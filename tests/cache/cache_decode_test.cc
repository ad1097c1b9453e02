// Decoded-block cache wired through the decode paths: warm range reads skip
// chunk decodes, cache-off stays byte-identical, one cache instance is
// shared across decompressors, index-chain streams stay correct when cache
// hits punch gaps into the chain, and v2 streams bypass the cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

constexpr std::size_t kChunkElements = 8192;  // 64 KiB chunks of doubles
constexpr std::size_t kChunks = 5;
constexpr std::size_t kElements = kChunks * kChunkElements;

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = kChunkElements * 8;
  return options;
}

PrimacyOptions Cached() {
  PrimacyOptions options = SmallChunks();
  options.block_cache = std::make_shared<DecodedBlockCache>(
      16 * 1024 * 1024, /*shard_count=*/1);  // deterministic byte accounting
  return options;
}

// Hand-assembles a one-shot v2 stream (v1 payload + checksum-free directory
// and footer), the way a pre-v3 writer laid it out.
Bytes MakeV2Stream(std::span<const double> values,
                   const PrimacyOptions& options) {
  Bytes out;
  internal::WriteStreamHeader(out, options, values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion2);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const ByteSpan body = AsBytes(values);
  const std::size_t chunk_elements = options.chunk_bytes / 8;
  internal::ChunkDirectory directory;
  for (std::size_t first = 0; first < values.size();
       first += chunk_elements) {
    const std::size_t count = std::min(chunk_elements, values.size() - first);
    internal::ChunkDirectoryEntry entry;
    entry.offset = out.size();
    entry.elements = count;
    entry.index_flag = 1;  // kPerChunk: every record carries a full index
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), out);
    directory.chunks.push_back(entry);
  }
  directory.tail_offset = out.size();
  PutBlock(out, ByteSpan{});  // empty tail
  internal::AppendChunkDirectory(out, directory, internal::kFormatVersion2);
  return out;
}

std::vector<double> Slice(const std::vector<double>& values, std::size_t first,
                          std::size_t count) {
  return std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(first),
      values.begin() + static_cast<std::ptrdiff_t>(first + count));
}

class CacheDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = GenerateDatasetByName("obs_temp", kElements);
    stream_ = PrimacyCompressor(SmallChunks()).Compress(values_);
  }

  std::vector<double> values_;
  Bytes stream_;
};

TEST_F(CacheDecodeTest, WarmRangeReadServesFromCache) {
  const PrimacyDecompressor decompressor(Cached());
  ASSERT_NE(decompressor.cache(), nullptr);

  // A range spanning chunks 1 and 2.
  const std::size_t first = kChunkElements + 10;
  const std::size_t count = kChunkElements;
  PrimacyDecodeStats cold;
  const auto cold_values =
      decompressor.DecompressRange(stream_, first, count, &cold);
  EXPECT_EQ(cold_values, Slice(values_, first, count));
  EXPECT_EQ(cold.chunks_decoded, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 2u);

  PrimacyDecodeStats warm;
  const auto warm_values =
      decompressor.DecompressRange(stream_, first, count, &warm);
  EXPECT_EQ(warm_values, cold_values);
  EXPECT_EQ(warm.chunks_decoded, 0u);  // both chunks served from cache
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_misses, 0u);

  const CacheStatsSnapshot stats = decompressor.cache()->Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2u * kChunkElements * 8);
}

TEST_F(CacheDecodeTest, CacheOffIsByteIdenticalWithZeroCacheStats) {
  const PrimacyDecompressor cached(Cached());
  const PrimacyDecompressor uncached(SmallChunks());
  EXPECT_EQ(uncached.cache(), nullptr);

  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    const std::size_t first = rng.NextBelow(kElements);
    const std::size_t count = rng.NextBelow(kElements - first + 1);
    PrimacyDecodeStats plain;
    const auto expected = uncached.DecompressRange(stream_, first, count, &plain);
    EXPECT_EQ(plain.cache_hits, 0u);
    EXPECT_EQ(plain.cache_misses, 0u);
    EXPECT_EQ(cached.DecompressRange(stream_, first, count), expected)
        << "first=" << first << " count=" << count;
  }
}

TEST_F(CacheDecodeTest, CapacityZeroYieldsNoCache) {
  // A zero-capacity instance rejects every insert: each pass misses and
  // decodes, nothing stays resident, and the bytes are correct.
  PrimacyOptions options = SmallChunks();
  options.block_cache = std::make_shared<DecodedBlockCache>(0);
  const PrimacyDecompressor decompressor(options);
  for (int pass = 0; pass < 2; ++pass) {
    PrimacyDecodeStats stats;
    EXPECT_EQ(decompressor.DecompressRange(stream_, 10, 100, &stats),
              Slice(values_, 10, 100));
    EXPECT_EQ(stats.cache_hits, 0u) << "pass " << pass;
    EXPECT_EQ(stats.cache_misses, 1u) << "pass " << pass;
    EXPECT_EQ(stats.chunks_decoded, 1u) << "pass " << pass;
  }
  const CacheStatsSnapshot cache = options.block_cache->Stats();
  EXPECT_EQ(cache.entries, 0u);
  EXPECT_EQ(cache.bytes, 0u);
  EXPECT_EQ(cache.rejected, 2u);
}

TEST_F(CacheDecodeTest, ExplicitCacheInstanceSharedAcrossDecompressors) {
  const PrimacyOptions options = Cached();
  const PrimacyDecompressor a(options);
  const PrimacyDecompressor b(options);
  EXPECT_EQ(a.cache(), options.block_cache);
  EXPECT_EQ(a.cache(), b.cache());

  PrimacyDecodeStats cold;
  a.DecompressRange(stream_, 0, kChunkElements, &cold);
  EXPECT_EQ(cold.cache_misses, 1u);
  // The second decompressor hits what the first one filled.
  PrimacyDecodeStats warm;
  const auto warm_values = b.DecompressRange(stream_, 0, kChunkElements, &warm);
  EXPECT_EQ(warm_values, Slice(values_, 0, kChunkElements));
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, FullDecodeWarmsSubsequentRangeReads) {
  PrimacyOptions options = Cached();
  options.threads = 2;  // exercise the parallel seekable decode with a cache
  const PrimacyDecompressor decompressor(options);

  PrimacyDecodeStats full;
  EXPECT_EQ(decompressor.Decompress(stream_, &full), values_);
  EXPECT_EQ(full.chunks_decoded, kChunks);
  EXPECT_EQ(full.cache_misses, kChunks);

  PrimacyDecodeStats warm;
  const auto range =
      decompressor.DecompressRange(stream_, 3 * kChunkElements, 50, &warm);
  EXPECT_EQ(range, Slice(values_, 3 * kChunkElements, 50));
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);

  // A second full decode is served entirely from cache.
  PrimacyDecodeStats second;
  EXPECT_EQ(decompressor.Decompress(stream_, &second), values_);
  EXPECT_EQ(second.cache_hits, kChunks);
  EXPECT_EQ(second.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, WarmSinglePrecisionRangeRead) {
  // Smooth low-entropy floats: a raw cast of the Gaussian dataset is
  // incompressible in single precision and would take the stored fallback,
  // which is (by design) never cached.
  std::vector<float> floats(kElements);
  for (std::size_t i = 0; i < kElements; ++i) {
    floats[i] = static_cast<float>(i % 997) / 997.0f;
  }
  PrimacyOptions compress = SmallChunks();
  compress.precision = Precision::kSingle;
  compress.chunk_bytes = kChunkElements * 4;
  PrimacyStats cstats;
  const Bytes stream = PrimacyCompressor(compress).Compress(floats, &cstats);
  ASSERT_EQ(cstats.chunks, kChunks) << "stream took the stored fallback";

  PrimacyOptions decode = Cached();
  const PrimacyDecompressor decompressor(decode);
  const std::size_t first = kChunkElements + 5;
  PrimacyDecodeStats cold;
  const auto cold_values =
      decompressor.DecompressRange<float>(stream, first, 100, &cold);
  EXPECT_EQ(cold_values,
            std::vector<float>(floats.begin() + static_cast<std::ptrdiff_t>(first),
                               floats.begin() + static_cast<std::ptrdiff_t>(first + 100)));
  EXPECT_EQ(cold.cache_misses, 1u);
  PrimacyDecodeStats warm;
  EXPECT_EQ(decompressor.DecompressRange<float>(stream, first, 100, &warm),
            cold_values);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.chunks_decoded, 0u);
}

TEST_F(CacheDecodeTest, IndexChainStreamsStayCorrectAcrossCacheHitGaps) {
  // Build data whose chunks share one base pattern plus a few per-chunk
  // novel values, so kReuseWhenCorrelated emits flag-0/flag-2 chains: a
  // cache hit then leaves the decoder's index state behind the chunk a
  // later miss needs, forcing the chain re-prime path.
  std::vector<double> chained(kElements);
  const std::vector<double> base =
      GenerateDatasetByName("obs_temp", kChunkElements);
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t i = 0; i < kChunkElements; ++i) {
      chained[c * kChunkElements + i] = base[i];
    }
    // A handful of values with exponents the base never produces, so later
    // chunks extend the index (flag 2) instead of reusing it verbatim.
    for (std::size_t i = 0; i < 4; ++i) {
      chained[c * kChunkElements + 17 * (i + 1)] =
          1.0e30 * static_cast<double>(c * 4 + i + 1);
    }
  }
  PrimacyOptions compress = SmallChunks();
  compress.index_mode = IndexMode::kReuseWhenCorrelated;
  PrimacyStats cstats;
  const Bytes stream = PrimacyCompressor(compress).Compress(chained, &cstats);
  ASSERT_EQ(cstats.chunks, kChunks);
  // The test only means something if chains actually formed.
  ASSERT_LT(cstats.indexes_emitted, cstats.chunks);

  const PrimacyDecompressor cached(Cached());
  const PrimacyDecompressor uncached(SmallChunks());
  Rng rng(42);
  for (int i = 0; i < 48; ++i) {
    const std::size_t first = rng.NextBelow(kElements);
    const std::size_t count = rng.NextBelow(kElements - first + 1);
    const auto expected = uncached.DecompressRange(stream, first, count);
    EXPECT_EQ(cached.DecompressRange(stream, first, count), expected)
        << "first=" << first << " count=" << count;
  }
  // And the fully-warm stream still decodes end to end.
  EXPECT_EQ(cached.Decompress(stream), chained);
}

TEST_F(CacheDecodeTest, V2StreamsBypassTheCache) {
  // Two v2 streams that differ in one mantissa byte mid-record. A v2
  // directory carries no record checksums, so nothing short of the whole
  // record tells them apart: a cache keyed on it would serve the first
  // stream's chunk for the second.
  const std::vector<double> first =
      GenerateDatasetByName("num_plasma", kChunkElements);
  std::vector<double> second = first;
  std::span<std::byte> element = std::as_writable_bytes(
      std::span<double>(second).subspan(kChunkElements / 2, 1));
  element[0] ^= std::byte{0x01};  // lowest mantissa byte (little-endian)
  const Bytes stream_a = MakeV2Stream(first, SmallChunks());
  const Bytes stream_b = MakeV2Stream(second, SmallChunks());
  ASSERT_EQ(stream_a.size(), stream_b.size());
  ASSERT_NE(stream_a, stream_b);

  const PrimacyDecompressor decompressor(Cached());
  for (int pass = 0; pass < 2; ++pass) {
    PrimacyDecodeStats stats_a;
    EXPECT_EQ(decompressor.Decompress(stream_a, &stats_a), first);
    PrimacyDecodeStats stats_b;
    EXPECT_EQ(decompressor.Decompress(stream_b, &stats_b), second);
    EXPECT_EQ(decompressor.DecompressRange(stream_b, kChunkElements / 2, 1),
              Slice(second, kChunkElements / 2, 1));
    for (const PrimacyDecodeStats& stats : {stats_a, stats_b}) {
      EXPECT_EQ(stats.cache_hits, 0u) << "pass " << pass;
      EXPECT_EQ(stats.cache_misses, 0u) << "pass " << pass;
      EXPECT_EQ(stats.chunks_decoded, 1u) << "pass " << pass;
    }
  }
  EXPECT_EQ(decompressor.cache()->Stats().entries, 0u);
}

}  // namespace
}  // namespace primacy
