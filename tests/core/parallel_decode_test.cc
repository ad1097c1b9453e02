// Thread-pool parallel decompression: byte-identical to serial decode, for
// both kPerChunk (fully parallel) and kReuseWhenCorrelated (group-parallel)
// streams, at several thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "datasets/datasets.h"
#include "util/rng.h"

namespace primacy {
namespace {

PrimacyOptions ManyChunks(std::size_t threads) {
  PrimacyOptions options;
  options.chunk_bytes = 8 * 1024;  // 1024 doubles per chunk
  options.threads = threads;
  return options;
}

TEST(ParallelDecodeTest, ParallelMatchesSerialAtSeveralThreadCounts) {
  const auto values = GenerateDatasetByName("gts_phi_l", 40000);  // 40 chunks
  const Bytes stream = PrimacyCompressor(ManyChunks(1)).Compress(values);

  PrimacyDecodeStats serial_stats;
  const auto serial =
      PrimacyDecompressor(ManyChunks(1)).Decompress(stream, &serial_stats);
  ASSERT_EQ(serial.size(), values.size());
  EXPECT_EQ(serial_stats.threads_used, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    PrimacyDecodeStats stats;
    const auto parallel =
        PrimacyDecompressor(ManyChunks(threads)).Decompress(stream, &stats);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(parallel[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "threads=" << threads << " element " << i;
    }
    EXPECT_GT(stats.threads_used, 1u) << "threads=" << threads;
    EXPECT_EQ(stats.chunks_decoded, 40u);
  }
}

TEST(ParallelDecodeTest, ParallelCompressionOutputIsByteIdenticalToSerial) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes serial = PrimacyCompressor(ManyChunks(1)).Compress(values);
  const Bytes parallel = PrimacyCompressor(ManyChunks(4)).Compress(values);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDecodeTest, GroupParallelDecodeOfCorrelatedStream) {
  // kReuseWhenCorrelated chains chunks onto shared indexes; parallel decode
  // must split at full-index boundaries only and still match serial exactly.
  PrimacyOptions write_options = ManyChunks(1);
  write_options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("num_plasma", 30000);
  const Bytes stream = PrimacyCompressor(write_options).Compress(values);

  const auto serial = PrimacyDecompressor(ManyChunks(1)).Decompress(stream);
  const auto parallel = PrimacyDecompressor(ManyChunks(4)).Decompress(stream);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, values);

  // Second input: a correlated num_plasma chain between uncorrelated
  // gts_phi_l chunks, so the stream holds several index groups. Range reads
  // share the full decode's decoder: one that starts mid-chain and spans
  // several groups decodes them in parallel and matches the serial read.
  const auto uncorrelated = GenerateDatasetByName("gts_phi_l", 8192);
  const auto chained = GenerateDatasetByName("num_plasma", 12288);
  std::vector<double> mixed = uncorrelated;
  mixed.insert(mixed.end(), chained.begin(), chained.end());
  mixed.insert(mixed.end(), uncorrelated.begin(), uncorrelated.end());
  const Bytes mixed_stream = PrimacyCompressor(write_options).Compress(mixed);
  PrimacyDecodeStats full_stats;
  EXPECT_EQ(PrimacyDecompressor(ManyChunks(4)).Decompress(mixed_stream,
                                                           &full_stats),
            mixed);
  EXPECT_GT(full_stats.threads_used, 1u);
  ByteReader reader(mixed_stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  const auto chunks = internal::ReadChunkDirectory(
                          mixed_stream, reader.Offset(), header.version)
                          .chunks;
  std::size_t start = 0;  // three chunks into the first reuse/delta chain
  while (start < chunks.size() && chunks[start].index_flag == 1) ++start;
  start += 3;
  ASSERT_LT(start, chunks.size());
  ASSERT_NE(chunks[start].index_flag, 1) << "chain shorter than expected";
  std::size_t end = start;  // through the third full index after it
  for (std::size_t full = 0; end < chunks.size() && full < 3; ++end) {
    full += chunks[end].index_flag == 1;
  }
  ASSERT_LT(end, chunks.size()) << "too few index groups after the chain";
  const std::uint64_t first = start * 1024 + 100;
  const std::uint64_t count = (end - start) * 1024 - 200;
  PrimacyDecodeStats serial_stats;
  PrimacyDecodeStats parallel_stats;
  const auto serial_range = PrimacyDecompressor(ManyChunks(1)).DecompressRange(
      mixed_stream, first, count, &serial_stats);
  const auto parallel_range =
      PrimacyDecompressor(ManyChunks(4))
          .DecompressRange(mixed_stream, first, count, &parallel_stats);
  EXPECT_EQ(parallel_range, serial_range);
  const auto slice = mixed.begin() + static_cast<std::ptrdiff_t>(first);
  EXPECT_EQ(serial_range, std::vector<double>(
                              slice, slice + static_cast<std::ptrdiff_t>(count)));
  EXPECT_EQ(serial_stats.threads_used, 1u);
  EXPECT_GT(parallel_stats.threads_used, 1u);
  EXPECT_GT(serial_stats.index_loads, 0u);
  EXPECT_EQ(parallel_stats.index_loads, serial_stats.index_loads);
  EXPECT_EQ(parallel_stats.chunks_decoded, end - start);
}

TEST(ParallelDecodeTest, SinglePrecisionParallelDecode) {
  PrimacyOptions options;
  options.precision = Precision::kSingle;
  options.chunk_bytes = 4 * 1024;
  options.threads = 4;
  Rng rng(11);
  std::vector<float> values(30000);
  for (auto& v : values) v = static_cast<float>(rng.NextGaussian());
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  const auto serial = PrimacyDecompressor().Decompress<float>(stream);
  const auto parallel =
      PrimacyDecompressor(options).Decompress<float>(stream);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, values);
}

TEST(ParallelDecodeTest, TinyStreamsDecodeOnOneThread) {
  // Fewer groups than threads: the decoder must quietly stay serial.
  const std::vector<double> values{1.0, 2.0, 3.0};
  const Bytes stream = PrimacyCompressor().Compress(values);
  PrimacyDecodeStats stats;
  const auto restored =
      PrimacyDecompressor(ManyChunks(8)).Decompress(stream, &stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(stats.threads_used, 1u);
}

}  // namespace
}  // namespace primacy
