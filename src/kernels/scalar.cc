#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

namespace primacy::kernels {

void scalar::RowToColW2(const std::byte* rows, std::size_t n,
                        std::byte* out) {
  for (std::size_t c = 0; c < 2; ++c) {
    std::byte* dst = out + c * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = rows[i * 2 + c];
  }
}

const KernelTable& ScalarTable() {
  static constexpr KernelTable kTable = {
      scalar::SplitW8H2,
      scalar::MergeW8H2,
      scalar::SplitW4H2,
      scalar::RowToColW2,
      scalar::CountPairs,
      scalar::MapIds16,
      scalar::UnmapIds16,
      scalar::Assemble<std::uint64_t>,
      scalar::Assemble<std::uint32_t>,
      scalar::HistogramStride,
  };
  return kTable;
}

}  // namespace primacy::kernels
