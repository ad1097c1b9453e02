// The byte-matrix transforms of PRIMACY's preconditioner (paper Sections
// II-B, II-D) on the N x W byte matrix of a chunk of fixed-width elements
// (W = 8 for doubles, 4 for floats).
//
// All transforms are expressed on flat byte buffers:
//  * row linearization   : element 0 bytes, element 1 bytes, ... (memory order)
//  * column linearization: byte-column 0 of every element, then column 1, ...
//
// Each one is a single call into the dispatched kernel table
// (kernels/kernels.h) or a single in-place byteswap. They run on encode;
// the decoder undoes all of them at once with the assembly kernel, which
// writes native elements from the ID and mantissa byte planes.
#pragma once

#include <cstddef>
#include <span>

#include "util/bytes.h"

namespace primacy {

/// Swaps a packed array of width-4 or width-8 elements between native
/// layout and *big-endian byte significance* rows, in place: afterwards byte
/// 0 of each row is the sign/exponent byte, matching the paper's "first 2
/// bytes hold the exponent" framing regardless of host endianness. The swap
/// is its own inverse; on a big-endian host the two layouts coincide and it
/// does nothing.
void SwapBigEndianRows(MutableByteSpan data, std::size_t width);

/// Copies native doubles into big-endian rows (SwapBigEndianRows at width 8).
Bytes DoublesToBigEndianRows(std::span<const double> values);

/// Splits big-endian rows (N elements of `width` bytes, `width` 8 or 4) into
/// the 2-byte high pair of each element and its remaining low bytes. Both
/// outputs are row-linearized: `high` holds N * 2 bytes laid out as
/// [elem0 high pair][elem1 high pair]..., `low` holds N * (width - 2).
struct SplitBytes {
  Bytes high;
  Bytes low;
};
SplitBytes SplitHighLow(ByteSpan rows, std::size_t width);

/// Transposes the row-linearized N x 2 ID matrix into column linearization
/// (all first bytes, then all second bytes).
Bytes RowToColumn(ByteSpan rows);

}  // namespace primacy
