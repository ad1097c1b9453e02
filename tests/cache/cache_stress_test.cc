// TSan-targeted stress over the decoded-block cache: many caller threads
// hammer one shared DecodedBlockCache — through concurrent DecompressRange
// calls with a capacity small enough to force eviction churn, through raw
// mixed lookup/insert traffic, and through concurrent full decodes.
// Run under PRIMACY_SANITIZE=thread (the sanitizer matrix's named stress
// pass) these catch races between shard mutation, LRU splicing, pin
// refcounting, and eviction that single-threaded functional tests cannot.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

constexpr std::size_t kChunkElements = 8192;  // 64 KiB chunks of doubles
constexpr std::size_t kChunks = 5;
constexpr std::size_t kElements = kChunks * kChunkElements;
constexpr std::size_t kCallerThreads = 8;
constexpr std::size_t kRangesPerThread = 12;

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = kChunkElements * 8;
  return options;
}

std::vector<double> Slice(const std::vector<double>& values, std::size_t first,
                          std::size_t count) {
  return std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(first),
      values.begin() + static_cast<std::ptrdiff_t>(first + count));
}

class CacheStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = GenerateDatasetByName("obs_temp", kElements);
    stream_ = PrimacyCompressor(SmallChunks()).Compress(values_);
  }

  std::vector<double> values_;
  Bytes stream_;
};

TEST_F(CacheStressTest, RangeReadStressConcurrentCallersSharedCacheChurn) {
  // Capacity holds ~2 of the 5 decoded chunks, so concurrent callers evict
  // each other's entries continuously while other callers hold pins.
  PrimacyOptions options = SmallChunks();
  options.threads = 2;
  options.block_cache = std::make_shared<DecodedBlockCache>(
      2 * kChunkElements * 8, /*shard_count=*/2);
  const PrimacyDecompressor decompressor(options);

  std::vector<std::thread> callers;
  std::vector<std::string> failures(kCallerThreads);
  callers.reserve(kCallerThreads);
  for (std::size_t t = 0; t < kCallerThreads; ++t) {
    callers.emplace_back([this, &decompressor, &failures, t] {
      Rng rng(200 + t);
      for (std::size_t i = 0; i < kRangesPerThread; ++i) {
        const std::size_t first = rng.NextBelow(kElements);
        const std::size_t count = rng.NextBelow(kElements - first + 1);
        PrimacyDecodeStats stats;
        const auto range =
            decompressor.DecompressRange(stream_, first, count, &stats);
        if (range != Slice(values_, first, count)) {
          failures[t] = "range mismatch at first=" + std::to_string(first) +
                        " count=" + std::to_string(count);
          return;
        }
        if (stats.output_bytes != count * sizeof(double)) {
          failures[t] = "stats mismatch at first=" + std::to_string(first);
          return;
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t t = 0; t < kCallerThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "caller thread " << t;
  }
  // Churn really happened: the cache is far too small for the working set.
  EXPECT_GT(decompressor.cache()->Stats().evictions, 0u);
}

TEST_F(CacheStressTest, RawCacheStressMixedLookupInsertClear) {
  // Raw shard traffic with data integrity: every entry is filled with a
  // byte derived from its key, so a lookup that returns the wrong entry's
  // bytes (or bytes freed by a racing eviction) is caught immediately.
  DecodedBlockCache cache(64 * 1024, /*shard_count=*/4);  // constant eviction

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 400;
  constexpr std::size_t kKeySpace = 64;
  constexpr std::size_t kEntryBytes = 1024;

  std::vector<std::thread> workers;
  std::vector<std::string> failures(kThreads);
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &failures, t] {
      Rng rng(300 + t);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t stream_id = 1 + rng.NextBelow(2);
        const std::uint64_t chunk = rng.NextBelow(kKeySpace);
        const auto fill = static_cast<std::byte>(
            (stream_id * 131 + chunk * 17) & 0xff);
        if (rng.NextBelow(9) < 5) {
          const auto handle = cache.Lookup(stream_id, chunk);
          if (handle) {
            const ByteSpan data = handle.data();
            if (data.size() != kEntryBytes || data[0] != fill ||
                data[data.size() - 1] != fill) {
              failures[t] = "corrupt entry for chunk " + std::to_string(chunk);
              return;
            }
          }
        } else {
          cache.Insert(stream_id, chunk, Bytes(kEntryBytes, fill));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "worker thread " << t;
  }
  const CacheStatsSnapshot stats = cache.Stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST_F(CacheStressTest, FullDecodeStressConcurrentDecodersSharedCache) {
  // Several caller threads run chunk-parallel full decodes against one
  // shared cache instance: the first fills, the rest race hits against
  // concurrent inserts of the same keys.
  PrimacyOptions options = SmallChunks();
  options.threads = 2;
  options.block_cache = std::make_shared<DecodedBlockCache>(
      16 * 1024 * 1024, /*shard_count=*/4);
  const PrimacyDecompressor decompressor(options);

  constexpr std::size_t kDecoders = 6;
  std::vector<std::thread> callers;
  // int, not bool: vector<bool> packs bits, so writes to distinct elements
  // from different threads would themselves race.
  std::vector<int> ok(kDecoders, 0);
  callers.reserve(kDecoders);
  for (std::size_t t = 0; t < kDecoders; ++t) {
    callers.emplace_back([this, &decompressor, &ok, t] {
      for (int round = 0; round < 3; ++round) {
        PrimacyDecodeStats stats;
        if (decompressor.Decompress(stream_, &stats) != values_) return;
        if (stats.cache_hits + stats.chunks_decoded < kChunks) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t t = 0; t < kDecoders; ++t) {
    EXPECT_TRUE(ok[t]) << "caller thread " << t;
  }
  // Across 18 decodes of a 5-chunk stream most chunks must have been hits.
  EXPECT_GT(options.block_cache->Stats().hits, 0u);
}

}  // namespace
}  // namespace primacy
