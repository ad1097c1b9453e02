#include "isobar/analyzer.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

/// Builds an N x width matrix where each column has a chosen character:
/// 'c' = constant, 's' = skewed, 'r' = uniform random.
Bytes BuildMatrix(std::size_t n, const std::string& columns,
                  std::uint64_t seed) {
  Rng rng(seed);
  Bytes rows(n * columns.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      std::byte value{};
      switch (columns[c]) {
        case 'c':
          value = 9_b;
          break;
        case 's':
          value = static_cast<std::byte>(rng.NextSkewed(256, 0.5));
          break;
        case 'r':
          value = static_cast<std::byte>(rng.NextBelow(256));
          break;
      }
      rows[i * columns.size() + c] = value;
    }
  }
  return rows;
}

TEST(AnalyzerTest, ClassifiesConstantColumnCompressible) {
  const Bytes rows = BuildMatrix(10000, "crr", 1);
  const IsobarPlan plan = AnalyzeColumns(rows, 3);
  ASSERT_EQ(plan.columns.size(), 3u);
  EXPECT_TRUE(plan.columns[0].compressible);
  EXPECT_DOUBLE_EQ(plan.columns[0].entropy_bits, 0.0);
  EXPECT_DOUBLE_EQ(plan.columns[0].top_frequency, 1.0);
}

TEST(AnalyzerTest, ClassifiesRandomColumnsIncompressible) {
  const Bytes rows = BuildMatrix(20000, "rrr", 2);
  const IsobarPlan plan = AnalyzeColumns(rows, 3);
  for (const ColumnAnalysis& col : plan.columns) {
    EXPECT_FALSE(col.compressible) << "column " << col.column;
    EXPECT_GT(col.entropy_bits, 7.8);
  }
}

TEST(AnalyzerTest, ClassifiesSkewedColumnCompressible) {
  const Bytes rows = BuildMatrix(20000, "srs", 3);
  const IsobarPlan plan = AnalyzeColumns(rows, 3);
  EXPECT_TRUE(plan.columns[0].compressible);
  EXPECT_FALSE(plan.columns[1].compressible);
  EXPECT_TRUE(plan.columns[2].compressible);
  EXPECT_NEAR(plan.CompressibleFraction(), 2.0 / 3.0, 1e-12);
}

TEST(AnalyzerTest, ColumnListsPartitionAllColumns) {
  const Bytes rows = BuildMatrix(5000, "scrsrc", 4);
  const IsobarPlan plan = AnalyzeColumns(rows, 6);
  const auto comp = plan.CompressibleColumns();
  const auto raw = plan.IncompressibleColumns();
  EXPECT_EQ(comp.size() + raw.size(), 6u);
  for (const std::size_t c : comp) {
    EXPECT_TRUE(plan.columns[c].compressible);
  }
  for (const std::size_t c : raw) {
    EXPECT_FALSE(plan.columns[c].compressible);
  }
}

TEST(AnalyzerTest, EmptyMatrixYieldsIncompressibleColumns) {
  const IsobarPlan plan = AnalyzeColumns({}, 4);
  EXPECT_EQ(plan.columns.size(), 4u);
  for (const auto& col : plan.columns) EXPECT_FALSE(col.compressible);
}

TEST(AnalyzerTest, SamplingMatchesFullScanOnHomogeneousData) {
  // Sampled verdicts must agree with a full scan when the column is
  // homogeneous along its length: 100,000 rows are sampled, and their
  // first kIsobarSampleBytes rows are read in full.
  const Bytes rows = BuildMatrix(100000, "sr", 5);
  const IsobarPlan plan_sampled = AnalyzeColumns(rows, 2);
  const IsobarPlan plan_full =
      AnalyzeColumns(ByteSpan(rows).first(kIsobarSampleBytes * 2), 2);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(plan_sampled.columns[c].compressible,
              plan_full.columns[c].compressible);
  }
}

TEST(AnalyzerTest, ThresholdsAreRespected) {
  const Bytes rows = BuildMatrix(20000, "s", 6);
  IsobarOptions strict;
  strict.entropy_threshold_bits = 0.5;   // almost nothing passes
  strict.top_frequency_threshold = 1.1;  // disabled
  const IsobarPlan plan = AnalyzeColumns(rows, 1, strict);
  EXPECT_FALSE(plan.columns[0].compressible);

  IsobarOptions lax;
  lax.entropy_threshold_bits = 8.1;  // everything passes
  const IsobarPlan plan2 = AnalyzeColumns(rows, 1, lax);
  EXPECT_TRUE(plan2.columns[0].compressible);
}

TEST(AnalyzerTest, ValidatesArguments) {
  EXPECT_THROW(AnalyzeColumns(Bytes(10), 0), InvalidArgumentError);
  EXPECT_THROW(AnalyzeColumns(Bytes(10), 3), InvalidArgumentError);
}

TEST(PlanSerializationTest, RoundTripsVerdicts) {
  const Bytes rows = BuildMatrix(5000, "scrsrcrrr", 7);
  const IsobarPlan plan = AnalyzeColumns(rows, 9);
  const IsobarPlan restored = DeserializePlan(SerializePlan(plan));
  ASSERT_EQ(restored.columns.size(), plan.columns.size());
  EXPECT_EQ(restored.width, plan.width);
  for (std::size_t c = 0; c < plan.columns.size(); ++c) {
    EXPECT_EQ(restored.columns[c].compressible, plan.columns[c].compressible);
  }
}

TEST(PlanSerializationTest, RejectsInconsistentHeader) {
  Bytes bad;
  bad.push_back(2_b);   // width 2
  bad.push_back(5_b);   // 5 columns > width
  bad.push_back(0_b);
  EXPECT_THROW(DeserializePlan(bad), CorruptStreamError);
}

}  // namespace
}  // namespace primacy
