// Umbrella header: the full public API of the PRIMACY library.
//
//   #include "primacy.h"
//   primacy::PrimacyCompressor compressor;
//   primacy::Bytes stream = compressor.Compress(my_doubles);
//
// Layered contents:
//   core preconditioner  — core/primacy_codec.h, core/streaming.h
//   read-path cache      — cache/block_cache.h
//   solver codecs        — deflate/, lzfast/, bwt/ (byte-level classes) and
//                          fpc/, fpzip_like/ (predictive comparators),
//                          registry in compress/
//   ISOBAR               — isobar/
//   evaluation substrate — datasets/, model/, hpcsim/
#pragma once

#include "cache/block_cache.h"     // IWYU pragma: export
#include "compress/codec.h"        // IWYU pragma: export
#include "compress/frame.h"        // IWYU pragma: export
#include "compress/registry.h"     // IWYU pragma: export
#include "core/builtin_codecs.h"   // IWYU pragma: export
#include "core/primacy_codec.h"    // IWYU pragma: export
#include "core/streaming.h"        // IWYU pragma: export
#include "datasets/datasets.h"     // IWYU pragma: export
#include "hpcsim/checkpoint_planner.h"  // IWYU pragma: export
#include "hpcsim/staging.h"        // IWYU pragma: export
#include "isobar/analyzer.h"       // IWYU pragma: export
#include "isobar/partitioned_codec.h"  // IWYU pragma: export
#include "model/perf_model.h"      // IWYU pragma: export
#include "store/checkpoint_store.h"  // IWYU pragma: export
#include "util/bytes.h"            // IWYU pragma: export
#include "util/error.h"            // IWYU pragma: export
