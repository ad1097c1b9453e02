#include "core/id_mapper.h"

#include "kernels/kernels.h"
#include "util/byte_matrix.h"
#include "util/error.h"

namespace primacy {

// The mapping runs through the dispatched lookup kernel, which is noexcept
// and signals a bad value by returning false; the throw site below
// re-derives the precise error so the exception contract is unchanged.

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

}  // namespace primacy
