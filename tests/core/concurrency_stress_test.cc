// TSan-targeted stress over the codec paths that share state across
// threads. A PrimacyDecompressor is const and stateless between calls, so
// many caller threads may issue DecompressRange against one decompressor and
// one stream concurrently — each call planning chunk groups from the shared
// directory and fanning decode work onto the process-wide SharedThreadPool.
// A PrimacyCompressor is the same on the encode side: caller threads share
// one compressor and its one solver, as the service's batch slots do.
// Run under PRIMACY_SANITIZE=thread these tests catch races in the range
// planner, the shared solver, the pool's queue, and the per-pool telemetry
// counters that the functional range/parallel tests (single caller thread)
// cannot.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

constexpr std::size_t kChunkElements = 8192;  // 64 KiB chunks of doubles
constexpr std::size_t kElements = 5 * kChunkElements;
constexpr std::size_t kCallerThreads = 8;
constexpr std::size_t kRangesPerThread = 12;

PrimacyOptions SmallChunks(std::size_t threads) {
  PrimacyOptions options;
  options.chunk_bytes = kChunkElements * 8;
  options.threads = threads;
  return options;
}

std::vector<double> Slice(const std::vector<double>& values, std::size_t first,
                          std::size_t count) {
  return std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(first),
      values.begin() + static_cast<std::ptrdiff_t>(first + count));
}

class DecodeConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = GenerateDatasetByName("obs_temp", kElements);
    stream_ = PrimacyCompressor(SmallChunks(1)).Compress(values_);
  }

  std::vector<double> values_;
  Bytes stream_;
};

TEST_F(DecodeConcurrencyStressTest,
       DecompressRangeStressSharedReaderConcurrentCallers) {
  // threads = 2 so ranges spanning several chunks also fan decode work onto
  // the shared pool from inside each caller thread (nested parallelism).
  const PrimacyDecompressor decompressor(SmallChunks(2));
  std::vector<std::thread> callers;
  std::vector<std::string> failures(kCallerThreads);
  callers.reserve(kCallerThreads);
  for (std::size_t t = 0; t < kCallerThreads; ++t) {
    callers.emplace_back([this, &decompressor, &failures, t] {
      Rng rng(100 + t);
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
}

TEST_F(DecodeConcurrencyStressTest,
       ParallelDecodeStressConcurrentFullDecodes) {
  // Several caller threads each run a chunk-parallel full decode (and one a
  // checksum-only verify), all multiplexed onto the one SharedThreadPool.
  const PrimacyDecompressor decompressor(SmallChunks(4));
  constexpr std::size_t kDecoders = 4;
  std::vector<std::thread> callers;
  // int, not bool: vector<bool> packs bits, so writes to distinct elements
  // from different threads would themselves race.
  std::vector<int> ok(kDecoders + 1, 0);
  callers.reserve(kDecoders + 1);
  for (std::size_t t = 0; t < kDecoders; ++t) {
    callers.emplace_back([this, &decompressor, &ok, t] {
      PrimacyDecodeStats stats;
      const auto decoded = decompressor.Decompress(stream_, &stats);
      ok[t] = decoded == values_ && stats.chunks_decoded == 5;
    });
  }
  callers.emplace_back([this, &ok] {
    for (int i = 0; i < 3; ++i) {
      const StreamVerifyResult result = VerifyStream(stream_);
      if (!result.ok) return;
    }
    ok[kDecoders] = true;
  });
  for (auto& caller : callers) caller.join();
  for (std::size_t t = 0; t < ok.size(); ++t) {
    EXPECT_TRUE(ok[t]) << "caller thread " << t;
  }
}

TEST(EncodeConcurrencyStressTest, SharedCompressorMatchesSingleThreadStreams) {
  // Caller threads compress through one const PrimacyCompressor: every call
  // builds its encoders over the compressor's one solver, and a kPerChunk
  // call with threads = 2 also encodes its chunks on the shared pool, whose
  // slots share that solver too. Each stream must equal a single-thread
  // compress of the same input.
  std::vector<Bytes> inputs;
  for (const char* dataset : {"obs_temp", "num_plasma", "flash_velx"}) {
    inputs.push_back(
        ToBytes(AsBytes(GenerateDatasetByName(dataset, kElements))));
  }
  // One chunk and a partial element: the serial path and the tail block.
  Bytes one_chunk =
      ToBytes(AsBytes(GenerateDatasetByName("msg_sppm", kChunkElements / 2)));
  one_chunk.push_back(std::byte{0x5a});
  inputs.push_back(std::move(one_chunk));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const IndexMode mode :
         {IndexMode::kPerChunk, IndexMode::kReuseWhenCorrelated}) {
      PrimacyOptions options = SmallChunks(threads);
      options.index_mode = mode;
      PrimacyOptions single = options;
      single.threads = 1;
      std::vector<Bytes> expected;
      for (const Bytes& input : inputs) {
        expected.push_back(PrimacyCompressor(single).CompressBytes(input));
      }
      const PrimacyCompressor compressor(options);
      std::vector<std::thread> callers;
      std::vector<std::string> failures(kCallerThreads);
      callers.reserve(kCallerThreads);
      for (std::size_t t = 0; t < kCallerThreads; ++t) {
        callers.emplace_back([&, t] {
          // Two inputs per caller, so each input has four callers.
          for (std::size_t round = 0; round < 2; ++round) {
            const std::size_t i = (t + round) % inputs.size();
            if (compressor.CompressBytes(inputs[i]) != expected[i]) {
              failures[t] = "input " + std::to_string(i) + " differs";
              return;
            }
          }
        });
      }
      for (auto& caller : callers) caller.join();
      for (std::size_t t = 0; t < kCallerThreads; ++t) {
        EXPECT_EQ(failures[t], "")
            << "threads=" << threads << " reuse="
            << (mode == IndexMode::kReuseWhenCorrelated) << " caller " << t;
      }
    }
  }
}

}  // namespace
}  // namespace primacy
