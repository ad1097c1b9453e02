// Internal: the SIMD table accessor wired into dispatch.cc. avx2.cc defines
// it; when PRIMACY_SIMD is OFF (or the target is not x86-64) it is compiled
// out and dispatch.cc never references it.
#pragma once

#include "kernels/kernels.h"

#ifndef PRIMACY_SIMD_ENABLED
#define PRIMACY_SIMD_ENABLED 0
#endif

namespace primacy::kernels::detail {

#if PRIMACY_SIMD_ENABLED
const KernelTable* Avx2Table();
#endif

}  // namespace primacy::kernels::detail
