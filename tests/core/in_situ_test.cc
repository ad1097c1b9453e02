#include "core/in_situ.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "datasets/datasets.h"
#include "golden/golden_files.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

TEST(InSituTest, ShardedRoundTripMatchesInput) {
  const auto values = GenerateDatasetByName("num_comet", 150000);
  InSituOptions options;
  options.shard_elements = 20000;
  options.threads = 4;
  options.primacy.chunk_bytes = 64 * 1024;
  const InSituResult result = InSituCompress(values, options);
  EXPECT_EQ(result.shards.size(), 8u);  // ceil(150000 / 20000)
  EXPECT_EQ(InSituDecompress(result.shards, options), values);
}

TEST(InSituTest, TotalsAggregateAcrossShards) {
  const auto values = GenerateDatasetByName("obs_error", 100000);
  InSituOptions options;
  options.shard_elements = 25000;
  options.threads = 2;
  const InSituResult result = InSituCompress(values, options);
  EXPECT_EQ(result.totals.input_bytes, values.size() * 8);
  EXPECT_EQ(result.totals.output_bytes, result.TotalCompressedBytes());
  EXPECT_GT(result.totals.chunks, 0u);

  // Shards of unequal chunk counts: 3 smooth chunks, then 1 noise chunk.
  // The chunk records match a one-shot compress, so the totals must too —
  // the means are per chunk, not per shard.
  constexpr std::size_t kChunkElements = 1024;
  std::vector<double> mixed(4 * kChunkElements);
  Rng rng(41);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i < 3 * kChunkElements
                   ? std::sin(static_cast<double>(i) * 1e-3)
                   : rng.NextGaussian() * 1e3;
  }
  InSituOptions sharded;
  sharded.primacy.chunk_bytes = kChunkElements * sizeof(double);
  sharded.shard_elements = 3 * kChunkElements;
  const PrimacyStats totals = InSituCompress(mixed, sharded).totals;
  PrimacyStats one_shot;
  PrimacyCompressor(sharded.primacy).Compress(mixed, &one_shot);
  ASSERT_EQ(totals.chunks, 4u);
  EXPECT_EQ(totals.chunks, one_shot.chunks);
  EXPECT_EQ(totals.indexes_emitted, one_shot.indexes_emitted);
  EXPECT_EQ(totals.index_bytes, one_shot.index_bytes);
  EXPECT_EQ(totals.id_compressed_bytes, one_shot.id_compressed_bytes);
  EXPECT_EQ(totals.mantissa_stream_bytes, one_shot.mantissa_stream_bytes);
  EXPECT_EQ(totals.mantissa_raw_bytes, one_shot.mantissa_raw_bytes);
  EXPECT_NEAR(totals.mean_compressible_fraction,
              one_shot.mean_compressible_fraction, 1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_before,
              one_shot.top_byte_frequency_before, 1e-12);
  EXPECT_NEAR(totals.top_byte_frequency_after,
              one_shot.top_byte_frequency_after, 1e-12);
}

TEST(InSituTest, ShardOutputIndependentOfThreadCount) {
  const auto values = GenerateDatasetByName("obs_spitzer", 80000);
  InSituOptions one;
  one.shard_elements = 10000;
  one.threads = 1;
  InSituOptions many = one;
  many.threads = 8;
  const InSituResult a = InSituCompress(values, one);
  const InSituResult b = InSituCompress(values, many);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i], b.shards[i]) << "shard " << i;
  }
}

TEST(InSituTest, EmptyInputYieldsNoShards) {
  const InSituResult result = InSituCompress(std::span<const double>{});
  EXPECT_TRUE(result.shards.empty());
  EXPECT_TRUE(InSituDecompress(result.shards).empty());
}

TEST(InSituTest, ZeroShardElementsRejected) {
  InSituOptions options;
  options.shard_elements = 0;
  const std::vector<double> values(10, 1.0);
  EXPECT_THROW(InSituCompress(values, options), InvalidArgumentError);
}

TEST(InSituTest, DecompressWithStatsAggregatesAcrossShards) {
  const auto values = GenerateDatasetByName("obs_error", 100000);
  InSituOptions options;
  options.shard_elements = 25000;
  options.threads = 4;
  options.primacy.chunk_bytes = 64 * 1024;
  const InSituResult result = InSituCompress(values, options);
  const InSituDecodeResult decoded =
      InSituDecompressWithStats(result.shards, options);
  EXPECT_EQ(decoded.values, values);
  EXPECT_EQ(decoded.totals.chunks_decoded, result.totals.chunks);
  EXPECT_EQ(decoded.totals.output_bytes, values.size() * 8);
  EXPECT_TRUE(decoded.totals.used_directory);
}

TEST(InSituTest, RangeRestoreTouchesOnlyCoveringShards) {
  const auto values = GenerateDatasetByName("num_comet", 150000);
  InSituOptions options;
  options.shard_elements = 20000;
  options.threads = 4;
  options.primacy.chunk_bytes = 64 * 1024;  // 8192 elements per chunk
  const InSituResult result = InSituCompress(values, options);

  // [30000, 45000) overlaps shards 1 and 2 only; within them, only the
  // covering chunks decode.
  const InSituDecodeResult partial =
      InSituDecompressRange(result.shards, 30000, 15000, options);
  EXPECT_EQ(partial.values,
            std::vector<double>(values.begin() + 30000,
                                values.begin() + 45000));
  // Shard 1 local [10000, 20000) -> chunks 1..2 of 8192 elements; shard 2
  // local [0, 5000) -> chunk 0. Three covering chunks in total.
  EXPECT_EQ(partial.totals.chunks_decoded, 3u);

  // Whole-array range restore matches the full restore.
  const InSituDecodeResult all =
      InSituDecompressRange(result.shards, 0, values.size(), options);
  EXPECT_EQ(all.values, values);

  // Empty range, boundary positions, bounds checks.
  EXPECT_TRUE(
      InSituDecompressRange(result.shards, values.size(), 0, options)
          .values.empty());
  EXPECT_THROW(
      InSituDecompressRange(result.shards, values.size(), 1, options),
      InvalidArgumentError);
}

TEST(InSituTest, StreamedShardsRangeRestore) {
  // Shards a streaming writer emitted are sized from their v3 directory, so
  // they range-read like one-shot shards. A v1 shard (here the streamed
  // shape pre-v3 writers emitted) has no directory and is rejected.
  const auto values = GenerateDatasetByName("num_comet", 60000);
  InSituOptions options;
  options.primacy.chunk_bytes = 64 * 1024;
  std::vector<Bytes> shards;
  for (std::size_t first = 0; first < values.size(); first += 20000) {
    Bytes shard;
    PrimacyStreamWriter writer(
        [&shard](ByteSpan data) { AppendBytes(shard, data); },
        options.primacy);
    writer.Append(std::span(values).subspan(first, 20000));
    writer.Finish();
    shards.push_back(std::move(shard));
  }
  EXPECT_EQ(InSituDecompressRange(shards, 15000, 10000, options).values,
            std::vector<double>(values.begin() + 15000,
                                values.begin() + 25000));

  shards.push_back(ReadGolden("stream_v1_streamed.bin"));
  EXPECT_THROW(InSituDecompressRange(shards, 0, 1, options),
               InvalidArgumentError);
}

TEST(InSituTest, CompressionActuallyReduces) {
  const auto values = GenerateDatasetByName("num_plasma", 200000);
  const InSituResult result = InSituCompress(values);
  EXPECT_LT(result.TotalCompressedBytes(), values.size() * 8);
  EXPECT_GT(result.totals.CompressionRatio(), 1.0);
}

}  // namespace
}  // namespace primacy
