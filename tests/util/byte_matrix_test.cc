#include "util/byte_matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

Bytes RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.NextBelow(256));
  return out;
}

TEST(SplitHighLowTest, SplitsExpectedColumns) {
  // Two elements of width 4: [0 1 2 3] [4 5 6 7].
  Bytes data(8);
  for (std::size_t i = 0; i < 8; ++i) data[i] = static_cast<std::byte>(i);
  const SplitBytes split = SplitHighLow(data, 4);
  ASSERT_EQ(split.high.size(), 4u);
  ASSERT_EQ(split.low.size(), 4u);
  EXPECT_EQ(split.high, (Bytes{0_b, 1_b, 4_b, 5_b}));
  EXPECT_EQ(split.low, (Bytes{2_b, 3_b, 6_b, 7_b}));
}

TEST(SplitHighLowTest, MergeInvertsSplit) {
  // The library merges on decode, inside the assembly kernel; here each row
  // is merged back from its high pair and low bytes by hand.
  for (const std::size_t width : {4u, 8u}) {
    for (const std::size_t n : {0u, 1u, 7u, 257u}) {
      const Bytes data = RandomBytes(width * n, width + n);
      const SplitBytes split = SplitHighLow(data, width);
      ASSERT_EQ(split.high.size(), n * 2);
      ASSERT_EQ(split.low.size(), n * (width - 2));
      Bytes merged;
      for (std::size_t i = 0; i < n; ++i) {
        const auto high = ByteSpan(split.high).subspan(i * 2, 2);
        const auto low = ByteSpan(split.low).subspan(i * (width - 2),
                                                     width - 2);
        merged.insert(merged.end(), high.begin(), high.end());
        merged.insert(merged.end(), low.begin(), low.end());
      }
      EXPECT_EQ(merged, data) << "width=" << width << " n=" << n;
    }
  }
}

TEST(SplitHighLowTest, RejectsBadArguments) {
  const Bytes data = RandomBytes(16, 2);
  EXPECT_THROW(SplitHighLow(data, 0), InvalidArgumentError);
  EXPECT_THROW(SplitHighLow(data, 2), InvalidArgumentError);
  EXPECT_THROW(SplitHighLow(data, 16), InvalidArgumentError);
  EXPECT_THROW(SplitHighLow(ByteSpan(data).first(12), 8),
               InvalidArgumentError);  // 12 % 8 != 0
}

TEST(LinearizationTest, RowToColumnSmallExample) {
  // Rows: [a b] [c d] [e f] -> Columns: [a c e] [b d f]
  const Bytes rows{10_b, 11_b, 20_b, 21_b, 30_b, 31_b};
  const Bytes expected{10_b, 20_b, 30_b, 11_b, 21_b, 31_b};
  EXPECT_EQ(RowToColumn(rows), expected);
}

TEST(LinearizationTest, RowToColumnTransposesEveryLength) {
  for (const std::size_t n : {1u, 31u, 1000u}) {
    const Bytes rows = RandomBytes(2 * n, n);
    const Bytes columns = RowToColumn(rows);
    ASSERT_EQ(columns.size(), rows.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(columns[i], rows[2 * i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(columns[n + i], rows[2 * i + 1]) << "n=" << n << " i=" << i;
    }
  }
  EXPECT_THROW(RowToColumn(Bytes(3)), InvalidArgumentError);
}

TEST(LinearizationTest, EmptyInputAllowed) {
  EXPECT_TRUE(RowToColumn({}).empty());
}

TEST(DoubleConversionTest, BigEndianRowsPutExponentFirst) {
  // 1.0 = 0x3FF0000000000000: byte 0 must be 0x3F, byte 1 0xF0.
  const std::vector<double> values{1.0};
  const Bytes rows = DoublesToBigEndianRows(values);
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0], 0x3f_b);
  EXPECT_EQ(rows[1], 0xf0_b);
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(rows[i], 0x00_b);
}

TEST(DoubleConversionTest, RoundTripsArbitraryDoubles) {
  Rng rng(9);
  std::vector<double> values(4096);
  for (auto& v : values) {
    v = rng.NextGaussian() * std::pow(10.0, rng.NextDouble(-30, 30));
  }
  values[0] = 0.0;
  values[1] = -0.0;
  values[2] = std::numeric_limits<double>::infinity();
  values[3] = -std::numeric_limits<double>::infinity();
  values[4] = std::numeric_limits<double>::denorm_min();
  values[5] = std::numeric_limits<double>::max();

  Bytes rows = DoublesToBigEndianRows(values);
  SwapBigEndianRows(rows, 8);
  const std::vector<double> restored = FromBytes<double>(rows);
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "index " << i;
  }
}

TEST(DoubleConversionTest, NaNPayloadPreservedBitExactly) {
  const auto nan_bits = std::uint64_t{0x7ff8dead0000beefULL};
  const std::vector<double> values{std::bit_cast<double>(nan_bits)};
  Bytes rows = DoublesToBigEndianRows(values);
  SwapBigEndianRows(rows, 8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(FromBytes<double>(rows)[0]),
            nan_bits);
}

TEST(DoubleConversionTest, RejectsUnalignedInput) {
  Bytes rows(7);
  EXPECT_THROW(SwapBigEndianRows(rows, 8), InvalidArgumentError);
  EXPECT_THROW(SwapBigEndianRows(rows, 7), InvalidArgumentError);
}

}  // namespace
}  // namespace primacy
