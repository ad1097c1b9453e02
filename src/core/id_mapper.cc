#include "core/id_mapper.h"

#include "kernels/kernels.h"
#include "util/byte_matrix.h"
#include "util/error.h"

namespace primacy {

// Both directions run through the dispatched lookup kernels, which are
// noexcept and signal a bad value by returning false; the throw sites below
// re-derive the precise error so the exception contract is unchanged.

Bytes MapToIds(ByteSpan high_bytes, const IdIndex& index,
               Linearization linearization) {
  if (high_bytes.size() % 2 != 0) {
    throw InvalidArgumentError("MapToIds: odd byte count");
  }
  Bytes ids(high_bytes.size());
  if (!kernels::Active().map_ids16(high_bytes.data(), high_bytes.size() / 2,
                                   index.ids_table(), ids.data())) {
    throw InvalidArgumentError("MapToIds: sequence not in index");
  }
  if (linearization == Linearization::kColumn) {
    return RowToColumn(ids);
  }
  return ids;
}

Bytes MapFromIds(ByteSpan id_bytes, const IdIndex& index,
                 Linearization linearization) {
  if (id_bytes.size() % 2 != 0) {
    throw CorruptStreamError("MapFromIds: odd byte count");
  }
  Bytes rows = linearization == Linearization::kColumn
                   ? ColumnToRow(id_bytes)
                   : ToBytes(id_bytes);
  // In place: the kernel contract allows out == in (each block is fully
  // loaded before it is stored).
  if (!kernels::Active().unmap_ids16(
          rows.data(), rows.size() / 2, index.sequences_u32().data(),
          static_cast<std::uint32_t>(index.size()), rows.data())) {
    throw CorruptStreamError("MapFromIds: ID beyond index");
  }
  return rows;
}

}  // namespace primacy
