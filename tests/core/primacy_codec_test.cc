#include "core/primacy_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "datasets/datasets.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

std::vector<double> SmallDataset(const std::string& name, std::size_t n) {
  return GenerateDatasetByName(name, n);
}

TEST(PrimacyCodecTest, RoundTripsDatasetValuesBitExactly) {
  const auto values = SmallDataset("gts_phi_l", 100000);
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  const Bytes stream = compressor.Compress(values);
  const auto restored = decompressor.Decompress(stream);
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(restored[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "element " << i;
  }
}

class PrimacyOptionSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, Linearization, IndexMode>> {};

TEST_P(PrimacyOptionSweep, RoundTripsUnderAllOptionCombinations) {
  const auto& [solver, linearization, index_mode] = GetParam();
  PrimacyOptions options;
  options.solver = solver;
  options.linearization = linearization;
  options.index_mode = index_mode;
  options.chunk_bytes = 64 * 1024;  // several chunks at this input size
  const auto values = SmallDataset("obs_temp", 40000);
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  const auto restored = decompressor.Decompress(compressor.Compress(values));
  EXPECT_EQ(restored, values);
}

INSTANTIATE_TEST_SUITE_P(
    Options, PrimacyOptionSweep,
    ::testing::Combine(::testing::Values("deflate", "lzfast", "bwt"),
                       ::testing::Values(Linearization::kRow,
                                         Linearization::kColumn),
                       ::testing::Values(IndexMode::kPerChunk,
                                         IndexMode::kReuseWhenCorrelated)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) +
             std::string(std::get<1>(param_info.param) == Linearization::kRow
                             ? "_row"
                             : "_col") +
             (std::get<2>(param_info.param) == IndexMode::kPerChunk
                  ? "_perchunk"
                  : "_reuse");
    });

TEST(PrimacyCodecTest, StatsAccountForAllStages) {
  const auto values = SmallDataset("num_plasma", 200000);
  PrimacyOptions options;
  options.chunk_bytes = 256 * 1024;
  const PrimacyCompressor compressor(options);
  PrimacyStats stats;
  const Bytes stream = compressor.Compress(values, &stats);
  EXPECT_EQ(stats.input_bytes, values.size() * 8);
  EXPECT_EQ(stats.output_bytes, stream.size());
  EXPECT_EQ(stats.chunks, (values.size() * 8 + 256 * 1024 - 1) / (256 * 1024));
  EXPECT_EQ(stats.indexes_emitted, stats.chunks);
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GT(stats.id_compressed_bytes, 0u);
  EXPECT_GT(stats.mantissa_stream_bytes, 0u);
  EXPECT_GT(stats.CompressionRatio(), 1.0);
}

TEST(PrimacyCodecTest, AccumulateWeightsMeansByChunkCount) {
  // Two calls of unequal chunk counts: 3 smooth chunks, then 1 noise chunk.
  // Their chunk records match one call over all four, so the folded totals
  // must too, and the means are per chunk, not per call.
  constexpr std::size_t kChunkElements = 1024;
  std::vector<double> mixed(4 * kChunkElements);
  Rng rng(41);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i < 3 * kChunkElements
                   ? std::sin(static_cast<double>(i) * 1e-3)
                   : rng.NextGaussian() * 1e3;
  }
  PrimacyOptions options;
  options.chunk_bytes = kChunkElements * sizeof(double);
  const PrimacyCompressor compressor(options);
  const std::span<const double> all(mixed);
  PrimacyStats smooth;
  PrimacyStats noise;
  compressor.Compress(all.first(3 * kChunkElements), &smooth);
  compressor.Compress(all.subspan(3 * kChunkElements), &noise);
  PrimacyStats totals;
  totals.Accumulate(smooth);
  totals.Accumulate(noise);
  PrimacyStats one_call;
  compressor.Compress(mixed, &one_call);

  ASSERT_EQ(totals.chunks, 4u);
  EXPECT_EQ(totals.chunks, one_call.chunks);
  EXPECT_EQ(totals.input_bytes, one_call.input_bytes);
  EXPECT_EQ(totals.indexes_emitted, one_call.indexes_emitted);
  EXPECT_EQ(totals.index_bytes, one_call.index_bytes);
  EXPECT_EQ(totals.id_compressed_bytes, one_call.id_compressed_bytes);
  EXPECT_EQ(totals.mantissa_stream_bytes, one_call.mantissa_stream_bytes);
  EXPECT_EQ(totals.mantissa_raw_bytes, one_call.mantissa_raw_bytes);
  EXPECT_NEAR(totals.mean_compressible_fraction,
              one_call.mean_compressible_fraction, 1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_before,
              one_call.top_byte_frequency_before, 1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_after,
              one_call.top_byte_frequency_after, 1e-12);
  // Compress folds its own chunks through Accumulate too, so check the
  // weights directly as well: a per-call mean would read (smooth + noise) / 2.
  const auto by_chunk = [](double three_chunks, double one_chunk) {
    return (3 * three_chunks + one_chunk) / 4;
  };
  EXPECT_NEAR(totals.mean_compressible_fraction,
              by_chunk(smooth.mean_compressible_fraction,
                       noise.mean_compressible_fraction),
              1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_before,
              by_chunk(smooth.top_byte_frequency_before,
                       noise.top_byte_frequency_before),
              1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_after,
              by_chunk(smooth.top_byte_frequency_after,
                       noise.top_byte_frequency_after),
              1e-12);
}

TEST(PrimacyCodecTest, IdMappingRaisesRepeatability) {
  // Section II-C: ~15% average gain in top-byte frequency.
  const auto values = SmallDataset("gts_chkp_zeon", 200000);
  const PrimacyCompressor compressor;
  PrimacyStats stats;
  compressor.Compress(values, &stats);
  EXPECT_GT(stats.top_byte_frequency_after,
            stats.top_byte_frequency_before + 0.05);
}

TEST(PrimacyCodecTest, IndexReuseEmitsFewerIndexes) {
  // Statistically stationary data: consecutive chunks correlate, so the
  // reuse policy should emit far fewer indexes than chunks.
  const auto values = SmallDataset("obs_temp", 300000);
  PrimacyOptions reuse;
  reuse.chunk_bytes = 128 * 1024;
  reuse.index_mode = IndexMode::kReuseWhenCorrelated;
  PrimacyStats stats;
  const PrimacyCompressor compressor(reuse);
  const Bytes stream = compressor.Compress(values, &stats);
  EXPECT_GT(stats.chunks, 10u);
  EXPECT_LT(stats.indexes_emitted, stats.chunks);
  // And the stream still decodes.
  const PrimacyDecompressor decompressor(reuse);
  EXPECT_EQ(decompressor.Decompress(stream), values);
}

TEST(PrimacyCodecTest, SolverNameEmbeddedInStream) {
  PrimacyOptions options;
  options.solver = "lzfast";
  const PrimacyCompressor compressor(options);
  const auto values = SmallDataset("obs_info", 5000);
  const Bytes stream = compressor.Compress(values);
  // A default decompressor (deflate options) must still decode it.
  const PrimacyDecompressor decompressor;
  EXPECT_EQ(decompressor.Decompress(stream), values);
}

TEST(PrimacyCodecTest, UnknownSolverRejected) {
  PrimacyOptions options;
  options.solver = "not-a-codec";
  EXPECT_THROW(PrimacyCompressor compressor(options), InvalidArgumentError);
}

TEST(PrimacyCodecTest, TinyChunkSizeRejected) {
  PrimacyOptions options;
  options.chunk_bytes = 4;
  EXPECT_THROW(PrimacyCompressor compressor(options), InvalidArgumentError);
}

TEST(PrimacyCodecTest, EmptyInputRoundTrips) {
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  const Bytes stream = compressor.Compress(std::span<const double>{});
  EXPECT_TRUE(decompressor.Decompress(stream).empty());
}

TEST(PrimacyCodecTest, SingleElementRoundTrips) {
  const std::vector<double> values{3.14159};
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  EXPECT_EQ(decompressor.Decompress(compressor.Compress(values)), values);
}

TEST(PrimacyCodecTest, SpecialValuesSurvive) {
  std::vector<double> values(1000, 1.0);
  values[0] = 0.0;
  values[1] = -0.0;
  values[2] = std::numeric_limits<double>::infinity();
  values[3] = -std::numeric_limits<double>::infinity();
  values[4] = std::numeric_limits<double>::quiet_NaN();
  values[5] = std::numeric_limits<double>::denorm_min();
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  const auto restored = decompressor.Decompress(compressor.Compress(values));
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
}

TEST(PrimacyCodecTest, NonMultipleOfEightTailPreserved) {
  // Through the byte-level Codec interface.
  const PrimacyCodec codec;
  Bytes data(8 * 1000 + 5);
  Rng rng(9);
  for (auto& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
  EXPECT_EQ(codec.Decompress(codec.Compress(data)), data);
}

TEST(PrimacyCodecTest, CorruptMagicRejected) {
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  Bytes stream = compressor.Compress(SmallDataset("obs_info", 1000));
  stream[0] = 0xff_b;
  EXPECT_THROW(decompressor.Decompress(stream), CorruptStreamError);
}

TEST(PrimacyCodecTest, TruncatedStreamRejected) {
  const PrimacyCompressor compressor;
  const PrimacyDecompressor decompressor;
  Bytes stream = compressor.Compress(SmallDataset("obs_info", 50000));
  stream.resize(stream.size() / 2);
  EXPECT_THROW(decompressor.Decompress(stream), CorruptStreamError);
}

TEST(PrimacyCodecTest, ChunkBoundariesDoNotLeakState) {
  // Identical data compressed as one chunk vs many chunks must decode
  // identically (chunks are self-contained except for index reuse).
  const auto values = SmallDataset("flash_velx", 60000);
  PrimacyOptions one;
  one.chunk_bytes = 8 * 60000;
  PrimacyOptions many;
  many.chunk_bytes = 32 * 1024;
  const auto a =
      PrimacyDecompressor(one).Decompress(PrimacyCompressor(one).Compress(values));
  const auto b = PrimacyDecompressor(many).Decompress(
      PrimacyCompressor(many).Compress(values));
  EXPECT_EQ(a, values);
  EXPECT_EQ(b, values);
}

}  // namespace
}  // namespace primacy
