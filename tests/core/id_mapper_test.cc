#include "core/id_mapper.h"

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace primacy {
namespace {

Bytes HighBytes(std::span<const std::uint16_t> sequences) {
  Bytes out(sequences.size() * 2);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    out[i * 2] = static_cast<std::byte>(sequences[i] >> 8);
    out[i * 2 + 1] = static_cast<std::byte>(sequences[i] & 0xff);
  }
  return out;
}

IdIndex IndexOf(std::span<const std::uint16_t> sequences) {
  return IdIndex::FromFrequency(AnalyzePairFrequency(HighBytes(sequences)));
}

TEST(IdMapperTest, MostFrequentPairBecomesZeroBytes) {
  const std::vector<std::uint16_t> sequences{0x4142, 0x4142, 0x4142, 0x5152};
  const IdIndex index = IndexOf(sequences);
  const Bytes ids =
      MapToIds(HighBytes(sequences), index, Linearization::kRow);
  // ID 0 -> bytes 00 00, ID 1 -> 00 01.
  const Bytes expected{0_b, 0_b, 0_b, 0_b, 0_b, 0_b, 0_b, 1_b};
  EXPECT_EQ(ids, expected);
}

TEST(IdMapperTest, ColumnLinearizationTransposes) {
  const std::vector<std::uint16_t> sequences{0x4142, 0x4142, 0x5152};
  const IdIndex index = IndexOf(sequences);
  const Bytes ids =
      MapToIds(HighBytes(sequences), index, Linearization::kColumn);
  // Row form: 00 00 / 00 00 / 00 01; transposed: 00 00 00 | 00 00 01.
  const Bytes expected{0_b, 0_b, 0_b, 0_b, 0_b, 1_b};
  EXPECT_EQ(ids, expected);
}

class IdMapperRoundTrip : public ::testing::TestWithParam<Linearization> {};

/// Assembles single-precision elements whose mantissa bytes are zero from
/// `ids` (laid out per `linearization`) through the dispatched kernel;
/// returns false when an ID is beyond the index.
bool AssembleIds(const Bytes& ids, const IdIndex& index,
                 Linearization linearization, std::vector<std::uint32_t>& out) {
  const std::size_t n = ids.size() / 2;
  const bool columns = linearization == Linearization::kColumn;
  const Bytes zeros(n);
  const std::byte* low[2] = {zeros.data(), zeros.data()};
  out.assign(n, 0);
  return kernels::Active().assemble_w4(
      ids.data(), ids.data() + (columns ? n : 1), columns ? 1 : 2, low, n,
      index.sequences_u32().data(), static_cast<std::uint32_t>(index.size()),
      reinterpret_cast<std::byte*>(out.data()));
}

TEST_P(IdMapperRoundTrip, AssemblyInvertsMapToIds) {
  // The decoder unmaps IDs inside the assembly kernel: each element's high
  // 16 bits are the sequence its ID names.
  Rng rng(3);
  std::vector<std::uint16_t> sequences(40000);
  for (auto& s : sequences) {
    s = static_cast<std::uint16_t>(16000 + rng.NextSkewed(2000, 0.995));
  }
  const IdIndex index = IndexOf(sequences);
  const Bytes ids = MapToIds(HighBytes(sequences), index, GetParam());
  std::vector<std::uint32_t> elements;
  ASSERT_TRUE(AssembleIds(ids, index, GetParam(), elements));
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    ASSERT_EQ(elements[i], std::uint32_t{sequences[i]} << 16) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothLinearizations, IdMapperRoundTrip,
                         ::testing::Values(Linearization::kRow,
                                           Linearization::kColumn),
                         [](const ::testing::TestParamInfo<Linearization>& i) {
                           return i.param == Linearization::kRow ? "row"
                                                                 : "column";
                         });

TEST(IdMapperTest, MappingRaisesTopByteFrequency) {
  // The paper's Section II-C claim: frequency-ranked IDs concentrate mass on
  // the zero byte, raising byte-level repeatability.
  Rng rng(4);
  std::vector<std::uint16_t> sequences(100000);
  for (auto& s : sequences) {
    // Spread sequences over scattered byte values so the raw top-byte
    // frequency is low.
    s = static_cast<std::uint16_t>(rng.NextSkewed(1200, 0.995) * 53 + 1000);
  }
  const IdIndex index = IndexOf(sequences);
  const Bytes high = HighBytes(sequences);
  const Bytes ids = MapToIds(high, index, Linearization::kColumn);
  EXPECT_GT(TopByteFrequency(ids), TopByteFrequency(high) + 0.10);
}

TEST(IdMapperTest, UnmappedSequenceThrows) {
  const std::vector<std::uint16_t> sequences{0x0001};
  const IdIndex index = IndexOf(sequences);
  const std::vector<std::uint16_t> other{0x0002};
  EXPECT_THROW(MapToIds(HighBytes(other), index, Linearization::kRow),
               InvalidArgumentError);
}

TEST(IdMapperTest, IdBeyondIndexRejectedOnDecode) {
  const std::vector<std::uint16_t> sequences{0x0a0b};
  const IdIndex index = IndexOf(sequences);
  std::vector<std::uint32_t> elements;
  // ID 5, index only has ID 0; and ID 0 for contrast.
  EXPECT_FALSE(AssembleIds(Bytes{0_b, 5_b}, index, Linearization::kRow,
                           elements));
  EXPECT_FALSE(AssembleIds(Bytes{0_b, 5_b}, index, Linearization::kColumn,
                           elements));
  EXPECT_TRUE(AssembleIds(Bytes{0_b, 0_b}, index, Linearization::kRow,
                          elements));
}

TEST(IdMapperTest, OddSizeRejected) {
  const std::vector<std::uint16_t> sequences{0x0a0b};
  const IdIndex index = IndexOf(sequences);
  EXPECT_THROW(MapToIds(Bytes(3), index, Linearization::kRow),
               InvalidArgumentError);
}

TEST(IdMapperTest, EmptyInputAllowed) {
  const std::vector<std::uint16_t> sequences{0x0a0b};
  const IdIndex index = IndexOf(sequences);
  EXPECT_TRUE(MapToIds({}, index, Linearization::kColumn).empty());
}

}  // namespace
}  // namespace primacy
