#include "kernels/kernels.h"
#include "kernels/scalar_impl.h"

namespace primacy::kernels {

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
