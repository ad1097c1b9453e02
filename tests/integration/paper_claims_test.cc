// Integration tests pinning the paper's qualitative claims on the synthetic
// dataset suite: PRIMACY's compression-ratio and throughput wins over the
// deflate-class solver (Table III), the column-linearization advantage
// (Section IV-H), and the predictive-coder comparison under permutation
// (Section V). Absolute numbers differ from the paper (different solver
// implementation, synthetic data); the *direction* of every claim must hold.
#include <gtest/gtest.h>

#include <ctime>

#include "compress/codec.h"
#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "deflate/deflate.h"
#include "fpc/fpc_codec.h"
#include "fpzip_like/fpz_codec.h"
#include "util/byte_matrix.h"

namespace primacy {
namespace {

constexpr std::size_t kElements = 96 * 1024;  // 768 KB per dataset

double Ratio(std::size_t original, std::size_t compressed) {
  return static_cast<double>(original) / static_cast<double>(compressed);
}

class PerDataset : public ::testing::TestWithParam<int> {
 protected:
  const DatasetSpec& spec() const {
    return AllDatasets()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(PerDataset, PrimacyRoundTripsEveryDataset) {
  const auto values = GenerateDataset(spec(), kElements);
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  EXPECT_EQ(decompressor.Decompress(compressor.Compress(values)), values);
}

INSTANTIATE_TEST_SUITE_P(AllTwenty, PerDataset, ::testing::Range(0, 20),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return AllDatasets()
                               [static_cast<std::size_t>(param_info.param)]
                                   .name;
                         });

TEST(TableThreeClaims, PrimacyBeatsSolverRatioOnAlmostAllDatasets) {
  const DeflateCodec solver;
  const PrimacyCompressor primacy;
  int wins = 0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const auto values = GenerateDataset(spec, kElements);
    const ByteSpan raw = AsBytes(values);
    const double solver_ratio = Ratio(raw.size(), solver.Compress(raw).size());
    const double primacy_ratio =
        Ratio(raw.size(), primacy.Compress(values).size());
    wins += (primacy_ratio > solver_ratio);
  }
  // Paper: 19 of 20 (msg_sppm is the exception).
  EXPECT_GE(wins, 16) << "PRIMACY should out-compress the vanilla solver on "
                         "nearly every dataset";
}

/// CPU seconds the calling thread spends in `fn`: its own work, without
/// the time other load on the host keeps it off a CPU.
template <typename Fn>
double ThreadCpuSeconds(const Fn& fn) {
  timespec start{};
  timespec end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  fn();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - start.tv_sec) +
         static_cast<double>(end.tv_nsec - start.tv_nsec) * 1e-9;
}

TEST(TableThreeClaims, PrimacyCompressesFasterOnHardDatasets) {
  // The throughput win comes from ISOBAR skipping incompressible mantissa
  // bytes; check a clearly hard dataset end to end. Both codecs run on the
  // calling thread (PrimacyCodec is serial by default), so each side's time
  // is that thread's CPU time: PRIMACY decodes this input in about 1.5 ms,
  // and a wall clock would let one stall of the thread decide the claim.
  const auto values = GenerateDatasetByName("gts_chkp_zeon", kElements);
  const ByteSpan raw = AsBytes(values);
  const DeflateCodec solver;
  const PrimacyCodec primacy;
  Bytes vanilla_stream;
  Bytes precond_stream;
  const double vanilla_compress =
      ThreadCpuSeconds([&] { vanilla_stream = solver.Compress(raw); });
  const double precond_compress =
      ThreadCpuSeconds([&] { precond_stream = primacy.Compress(raw); });
  Bytes vanilla_restored;
  Bytes precond_restored;
  const double vanilla_decompress = ThreadCpuSeconds(
      [&] { vanilla_restored = solver.Decompress(vanilla_stream); });
  const double precond_decompress = ThreadCpuSeconds(
      [&] { precond_restored = primacy.Decompress(precond_stream); });
  ASSERT_EQ(vanilla_restored, ToBytes(raw));
  ASSERT_EQ(precond_restored, ToBytes(raw));
  // Same input bytes on both sides, so less time is more MB/s.
  EXPECT_LT(precond_compress, vanilla_compress);
  EXPECT_LT(precond_decompress, vanilla_decompress);
}

TEST(LinearizationClaims, ColumnBeatsRowOnIdBytes) {
  // Section IV-H: column linearization gains ~8-10% compression ratio.
  int column_wins = 0;
  int datasets = 0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const auto values = GenerateDataset(spec, kElements / 2);
    PrimacyOptions row;
    row.linearization = Linearization::kRow;
    PrimacyOptions column;
    column.linearization = Linearization::kColumn;
    const std::size_t row_size =
        PrimacyCompressor(row).Compress(values).size();
    const std::size_t column_size =
        PrimacyCompressor(column).Compress(values).size();
    column_wins += (column_size <= row_size);
    ++datasets;
  }
  EXPECT_GE(column_wins, datasets * 3 / 4);
}

TEST(SectionVClaims, PredictiveCodersDegradeUnderPermutation) {
  // fpc/fpz rely on sequential correlation; PRIMACY's frequency statistics
  // are order-invariant. Permuting elements must hurt the predictive coders
  // far more than PRIMACY (Section V's reorganized-data experiment).
  const auto values = GenerateDatasetByName("msg_bt", kElements);
  const auto permuted = PermuteElements(values, 7);
  const ByteSpan raw = AsBytes(values);
  const ByteSpan raw_permuted = AsBytes(permuted);

  const FpcCodec fpc;
  const double fpc_ratio = Ratio(raw.size(), fpc.Compress(raw).size());
  const double fpc_permuted =
      Ratio(raw.size(), fpc.Compress(raw_permuted).size());

  const PrimacyCodec primacy;
  const double primacy_ratio =
      Ratio(raw.size(), primacy.Compress(raw).size());
  const double primacy_permuted =
      Ratio(raw.size(), primacy.Compress(raw_permuted).size());

  // Relative degradation must be much worse for the predictive coder.
  const double fpc_loss = fpc_ratio / fpc_permuted;
  const double primacy_loss = primacy_ratio / primacy_permuted;
  EXPECT_GT(fpc_loss, primacy_loss);
  // And on permuted data PRIMACY should win outright.
  EXPECT_GT(primacy_permuted, fpc_permuted * 0.95);
}

TEST(SectionVClaims, PredictiveCodersWinOnSmoothSequentialData) {
  // Fairness check the paper concedes: on smooth dimensionally-correlated
  // data the predictive coders are competitive or better.
  const auto values = GenerateDatasetByName("num_brain", kElements);
  const ByteSpan raw = AsBytes(values);
  const FpcCodec fpc;
  const PrimacyCodec primacy;
  const double fpc_ratio = Ratio(raw.size(), fpc.Compress(raw).size());
  const double primacy_ratio =
      Ratio(raw.size(), primacy.Compress(raw).size());
  EXPECT_GT(fpc_ratio, primacy_ratio * 0.8);
}

TEST(SectionIIClaims, RepeatabilityGainAveragesDoubleDigits) {
  // Section II-C: "increased the repeatability of the most frequently
  // occurring data byte by approximately 15% over the 20 datasets".
  double total_gain = 0.0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const auto values = GenerateDataset(spec, kElements / 2);
    PrimacyStats stats;
    PrimacyCompressor().Compress(values, &stats);
    total_gain +=
        stats.top_byte_frequency_after - stats.top_byte_frequency_before;
  }
  const double mean_gain = total_gain / 20.0;
  EXPECT_GT(mean_gain, 0.05);
}

TEST(SppmException, EasyDataGainsLittleOrRegresses) {
  // msg_sppm: index overhead makes PRIMACY slightly worse (Table III).
  const auto values = GenerateDatasetByName("msg_sppm", kElements);
  const ByteSpan raw = AsBytes(values);
  const DeflateCodec solver;
  const PrimacyCompressor primacy;
  const double solver_ratio = Ratio(raw.size(), solver.Compress(raw).size());
  const double primacy_ratio =
      Ratio(raw.size(), primacy.Compress(values).size());
  // PRIMACY must not *meaningfully* beat the solver here; a big win would
  // mean the easy-to-compress profile is wrong.
  EXPECT_LT(primacy_ratio, solver_ratio * 1.1);
}

}  // namespace
}  // namespace primacy
