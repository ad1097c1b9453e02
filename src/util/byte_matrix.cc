#include "util/byte_matrix.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <version>

#include "kernels/kernels.h"
#include "util/error.h"

namespace primacy {

namespace {

/// Element count of `size` bytes at `width` (8 or 4: the PRIMACY shapes).
std::size_t RowCount(std::size_t size, std::size_t width, const char* what) {
  if (width != 8 && width != 4) {
    throw InvalidArgumentError(std::string(what) +
                               ": element width must be 4 or 8");
  }
  if (size % width != 0) {
    throw InvalidArgumentError(std::string(what) +
                               ": size is not a multiple of the element width");
  }
  return size / width;
}

template <typename U>
void ByteSwapEach(MutableByteSpan data) {
  for (std::size_t offset = 0; offset < data.size(); offset += sizeof(U)) {
    U bits;
    std::memcpy(&bits, data.data() + offset, sizeof(U));
#if defined(__cpp_lib_byteswap) && __cpp_lib_byteswap >= 202110L
    bits = std::byteswap(bits);
#else
    if constexpr (sizeof(U) == 8) {
      bits = __builtin_bswap64(bits);
    } else {
      bits = __builtin_bswap32(bits);
    }
#endif
    std::memcpy(data.data() + offset, &bits, sizeof(U));
  }
}

}  // namespace

void SwapBigEndianRows(MutableByteSpan data, std::size_t width) {
  RowCount(data.size(), width, "SwapBigEndianRows");
  if constexpr (std::endian::native == std::endian::big) return;
  if (width == 8) {
    ByteSwapEach<std::uint64_t>(data);
  } else {
    ByteSwapEach<std::uint32_t>(data);
  }
}

Bytes DoublesToBigEndianRows(std::span<const double> values) {
  Bytes rows = ToBytes(AsBytes(values));
  SwapBigEndianRows(rows, 8);
  return rows;
}

SplitBytes SplitHighLow(ByteSpan rows, std::size_t width) {
  const std::size_t n = RowCount(rows.size(), width, "SplitHighLow");
  SplitBytes out;
  out.high.resize(n * 2);
  out.low.resize(n * (width - 2));
  const kernels::KernelTable& k = kernels::Active();
  (width == 8 ? k.split_w8_h2 : k.split_w4_h2)(rows.data(), n,
                                                out.high.data(),
                                                out.low.data());
  return out;
}

Bytes RowToColumn(ByteSpan rows) {
  if (rows.size() % 2 != 0) {
    throw InvalidArgumentError("RowToColumn: odd byte count");
  }
  Bytes out(rows.size());
  kernels::Active().row_to_col_w2(rows.data(), rows.size() / 2, out.data());
  return out;
}

}  // namespace primacy
