#include "datasets/datasets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

TEST(DatasetsTest, ExactlyTwentyProfilesInTableOrder) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 20u);
  EXPECT_EQ(all.front().name, "gts_chkp_zeon");
  EXPECT_EQ(all.back().name, "obs_temp");
  std::set<std::string> names;
  for (const auto& spec : all) names.insert(spec.name);
  EXPECT_EQ(names.size(), 20u) << "duplicate dataset names";
}

TEST(DatasetsTest, FindDatasetLooksUpByName) {
  EXPECT_EQ(FindDataset("num_plasma").name, "num_plasma");
  EXPECT_THROW(FindDataset("nope"), InvalidArgumentError);
}

TEST(DatasetsTest, GenerationIsDeterministic) {
  const auto a = GenerateDatasetByName("gts_phi_l", 10000);
  const auto b = GenerateDatasetByName("gts_phi_l", 10000);
  EXPECT_EQ(a, b);
}

TEST(DatasetsTest, DifferentDatasetsDiffer) {
  const auto a = GenerateDatasetByName("gts_phi_l", 1000);
  const auto b = GenerateDatasetByName("gts_phi_nl", 1000);
  EXPECT_NE(a, b);
}

TEST(DatasetsTest, DefaultElementCountHonored) {
  const auto& spec = FindDataset("obs_info");
  EXPECT_EQ(GenerateDataset(spec).size(), spec.default_elements);
  EXPECT_EQ(GenerateDataset(spec, 123).size(), 123u);
}

TEST(DatasetsTest, AllValuesAreFiniteInSmoothDatasets) {
  for (const char* name : {"msg_bt", "msg_lu", "msg_sp", "msg_sweep3d",
                           "num_brain"}) {
    for (const double v : GenerateDatasetByName(name, 20000)) {
      ASSERT_TRUE(std::isfinite(v)) << name;
    }
  }
}

class DatasetDistribution : public ::testing::TestWithParam<int> {};

TEST_P(DatasetDistribution, HighOrderPairsAreFewAndSkewed) {
  const auto& spec = AllDatasets()[static_cast<std::size_t>(GetParam())];
  const auto values = GenerateDataset(spec, 100000);
  const Bytes rows = DoublesToBigEndianRows(values);
  const auto histogram = BytePairHistogram(rows, 8, 0);
  const std::size_t distinct = CountDistinct(histogram);
  // The paper: "the majority of our data had less than 2,000 unique
  // byte-sequences from the possible 65,536".
  EXPECT_LT(distinct, 4000u) << spec.name;
  // Ramp/smooth fields can sit inside one narrow value band (few distinct
  // pairs); the bit-pattern profiles must show a real population.
  EXPECT_GE(distinct, spec.kind == DatasetKind::kBitPattern ? 3u : 1u)
      << spec.name;
}

TEST_P(DatasetDistribution, MantissaTailIsHighEntropy) {
  const auto& spec = AllDatasets()[static_cast<std::size_t>(GetParam())];
  if (spec.name == "msg_sppm") {
    GTEST_SKIP() << "sppm is intentionally easy to compress";
  }
  const auto values = GenerateDataset(spec, 50000);
  const Bytes rows = DoublesToBigEndianRows(values);
  // Last mantissa byte: essentially uniform noise for hard datasets.
  const Bytes last = ExtractColumn(rows, 8, 7);
  EXPECT_GT(ByteEntropyBits(last), 6.0) << spec.name;
}

TEST_P(DatasetDistribution, ExponentBytesLowerEntropyThanMantissa) {
  const auto& spec = AllDatasets()[static_cast<std::size_t>(GetParam())];
  const auto values = GenerateDataset(spec, 50000);
  const Bytes rows = DoublesToBigEndianRows(values);
  const Bytes exponent = ExtractColumn(rows, 8, 0);
  const Bytes deep_mantissa = ExtractColumn(rows, 8, 6);
  EXPECT_LT(ByteEntropyBits(exponent), ByteEntropyBits(deep_mantissa) + 0.5)
      << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllTwenty, DatasetDistribution,
                         ::testing::Range(0, 20),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return AllDatasets()
                               [static_cast<std::size_t>(param_info.param)]
                                   .name;
                         });

TEST(DatasetsTest, Figure1ShapeHolds) {
  // High-order bit positions show strong bias (p near 1), deep mantissa bits
  // are near 0.5 — Figure 1's visual claim.
  for (const char* name :
       {"gts_phi_l", "num_plasma", "obs_temp", "msg_sweep3d"}) {
    const auto values = GenerateDatasetByName(name, 50000);
    const Bytes rows = DoublesToBigEndianRows(values);
    const auto probs = DominantBitProbability(rows, 8);
    EXPECT_GT(probs[1], 0.9) << name;   // top exponent bits
    EXPECT_LT(probs[60], 0.6) << name;  // deep mantissa bits
  }
}

TEST(DatasetsTest, SppmIsEasyToCompressProfile) {
  // Table III: msg_sppm compresses ~7x with plain zlib — the easy outlier.
  // Check strong short-range value redundancy, the property that drives it.
  const auto values = GenerateDatasetByName("msg_sppm", 50000);
  std::size_t near_repeats = 0;
  for (std::size_t i = 8; i < values.size(); ++i) {
    for (std::size_t back = 1; back <= 8; ++back) {
      if (values[i] == values[i - back]) {
        ++near_repeats;
        break;
      }
    }
  }
  EXPECT_GT(near_repeats, values.size() / 2);
}

TEST(PermuteElementsTest, PermutationIsDeterministicAndComplete) {
  const auto values = GenerateDatasetByName("obs_error", 10000);
  const auto a = PermuteElements(values, 42);
  const auto b = PermuteElements(values, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, values);
  auto sorted_a = a;
  auto sorted_v = values;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_v.begin(), sorted_v.end());
  EXPECT_EQ(sorted_a, sorted_v);
}

TEST(PermuteElementsTest, DifferentSeedsGiveDifferentOrders) {
  const auto values = GenerateDatasetByName("obs_error", 1000);
  EXPECT_NE(PermuteElements(values, 1), PermuteElements(values, 2));
}

}  // namespace
}  // namespace primacy
