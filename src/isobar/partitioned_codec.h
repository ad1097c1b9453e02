// ISOBAR partitioned compression: applies the analyzer's plan to an element
// stream — compressible byte-columns are column-linearized and fed to the
// solver codec, incompressible columns are stored verbatim. This is the
// "ISOBAR-COMPRESS" step of the paper's Algorithm 1, applied in PRIMACY to
// the six low-order mantissa bytes of each double. The decoder hands the
// solver the element window a read needs, with the column length the
// encoder passed, so a range read inflates only that part of each column.
#pragma once

#include <limits>
#include <memory>
#include <vector>

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
/// using `solver`'s CompressAdaptive, which gets the compressible columns
/// one after another and the element count as their column length. The
/// returned stream is self-describing.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const IsobarPlan& plan, const Codec& solver);

/// Analyze-then-compress convenience.
IsobarCompressed IsobarCompress(ByteSpan rows, std::size_t width,
                                const Codec& solver,
                                const IsobarOptions& options = {});

/// A decoded ISOBAR stream as byte planes: column c of the element matrix
/// is the `elements` bytes at columns[c], inside `compressible` or `raw`.
/// Move-only, since the column pointers point into `compressible`.
struct IsobarPlanes {
  IsobarPlanes() = default;
  IsobarPlanes(IsobarPlanes&&) = default;
  IsobarPlanes& operator=(IsobarPlanes&&) = default;
  IsobarPlanes(const IsobarPlanes&) = delete;
  IsobarPlanes& operator=(const IsobarPlanes&) = delete;

  std::size_t elements = 0;
  IsobarPlan plan;
  Bytes compressible;  // the inflated compressible columns, one after another
  ByteSpan raw;        // the stream's raw block, borrowed from the stream
  std::vector<const std::byte*> columns;  // plan.width entries
};

/// Inverse of IsobarCompress, without the scatter back to rows: inflates the
/// compressible columns and points each column at its plane. `stream` must
/// outlive the result. The compressible planes are exact for the elements
/// [first, first + count) the caller reads (the default is all of them):
/// they go to the solver's DecompressWindow, which may leave the rest of
/// each plane undecoded. The raw planes are always whole.
IsobarPlanes IsobarDecompress(
    ByteSpan stream, const Codec& solver, std::size_t first = 0,
    std::size_t count = std::numeric_limits<std::size_t>::max());

}  // namespace primacy
