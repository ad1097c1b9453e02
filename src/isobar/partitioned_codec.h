// ISOBAR partitioned compression: applies the analyzer's plan to an element
// stream — compressible byte-columns are column-linearized and fed to the
// solver codec, incompressible columns are stored verbatim. This is the
// "ISOBAR-COMPRESS" step of the paper's Algorithm 1, applied in PRIMACY to
// the six low-order mantissa bytes of each double.
#pragma once

#include <memory>

#include "compress/codec.h"
#include "isobar/analyzer.h"

namespace primacy {

struct IsobarCompressed {
  Bytes stream;
  IsobarPlan plan;                 // the plan that was applied
  std::size_t compressed_bytes = 0;   // solver output size
  std::size_t raw_bytes = 0;           // bytes stored verbatim
};

/// Compresses a row-linearized `width`-byte element matrix under `plan`
/// using `solver`'s CompressAdaptive. The returned stream is
/// self-describing.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const IsobarPlan& plan, const Codec& solver);

/// Analyze-then-compress convenience.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const Codec& solver,
                                const IsobarOptions& options = {});

/// Inverse of IsobarCompress.
Bytes IsobarDecompress(ByteSpan stream, const Codec& solver);

}  // namespace primacy
