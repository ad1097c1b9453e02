// Direct tests of the shared chunk pipeline plus the chunk-parallel
// compression path built on it.
#include "core/chunk_pipeline.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/id_mapper.h"
#include "datasets/datasets.h"
#include "deflate/deflate.h"
#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

Bytes NativeBytes(const std::vector<double>& values) {
  return ToBytes(AsBytes(values));
}

TEST(ChunkPipelineTest, SingleChunkRoundTrip) {
  const auto values = GenerateDatasetByName("obs_info", 10000);
  const PrimacyOptions options;
  const DeflateCodec solver;
  ChunkEncoder encoder(options, solver);
  Bytes record;
  const ChunkRecordStats stats =
      encoder.EncodeChunk(NativeBytes(values), record);
  EXPECT_EQ(stats.elements, values.size());
  EXPECT_EQ(stats.record_bytes, record.size());
  EXPECT_TRUE(stats.emitted_full_index);

  ChunkDecoder decoder(solver, options.linearization, 8);
  ByteReader reader(record);
  const std::uint64_t count = reader.GetVarint();
  Bytes restored;
  decoder.DecodeChunk(reader, count, restored);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored, NativeBytes(values));
}

TEST(ChunkPipelineTest, EmptyChunkRejected) {
  const PrimacyOptions options;
  const DeflateCodec solver;
  ChunkEncoder encoder(options, solver);
  Bytes record;
  EXPECT_THROW(encoder.EncodeChunk({}, record), InvalidArgumentError);
  EXPECT_THROW(encoder.EncodeChunk(Bytes(12), record), InvalidArgumentError);
}

TEST(ChunkPipelineTest, ResetDropsIndexState) {
  PrimacyOptions options;
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  const DeflateCodec solver;
  ChunkEncoder encoder(options, solver);
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  const Bytes chunk = NativeBytes(values);
  Bytes first_record, second_record, third_record;
  const auto first = encoder.EncodeChunk(chunk, first_record);
  const auto second = encoder.EncodeChunk(chunk, second_record);
  EXPECT_TRUE(first.emitted_full_index);
  EXPECT_FALSE(second.emitted_full_index);  // identical chunk: pure reuse
  encoder.Reset();
  const auto third = encoder.EncodeChunk(chunk, third_record);
  EXPECT_TRUE(third.emitted_full_index);
}

/// Chunks of one base pattern plus a few values the base never produces, so
/// kReuseWhenCorrelated reuses the first chunk's index where a chunk adds
/// nothing (chunk 1) and extends it where it does (chunks 2 and 3).
std::vector<std::vector<double>> ChainedChunks() {
  const std::vector<double> base = GenerateDatasetByName("obs_temp", 4096);
  std::vector<std::vector<double>> chunks(4, base);
  for (std::size_t c = 2; c < chunks.size(); ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      chunks[c][17 * (i + 1)] = 1.0e30 * static_cast<double>(c * 4 + i + 1);
    }
  }
  return chunks;
}

template <typename T>
Bytes ChunkBytes(const std::vector<double>& values) {
  const std::vector<T> converted(values.begin(), values.end());
  return ToBytes(AsBytes(std::span(converted)));
}

TEST(ChunkPipelineTest, RecordStatsMatchTheBytesTheyDescribe) {
  const DeflateCodec solver;
  for (const Precision precision : {Precision::kDouble, Precision::kSingle}) {
    for (const Linearization linearization :
         {Linearization::kRow, Linearization::kColumn}) {
      for (const IndexMode mode :
           {IndexMode::kPerChunk, IndexMode::kReuseWhenCorrelated}) {
        PrimacyOptions options;
        options.precision = precision;
        options.linearization = linearization;
        options.index_mode = mode;
        const std::size_t width = ElementWidth(precision);
        ChunkEncoder encoder(options, solver);
        std::optional<IdIndex> index;
        std::vector<std::uint8_t> flags;
        for (const std::vector<double>& values : ChainedChunks()) {
          const Bytes chunk = precision == Precision::kDouble
                                  ? ChunkBytes<double>(values)
                                  : ChunkBytes<float>(values);
          Bytes record;
          const ChunkRecordStats stats = encoder.EncodeChunk(chunk, record);

          // The index the record carries or keeps, read back from it.
          ByteReader reader(record);
          reader.GetVarint();
          flags.push_back(reader.GetU8());
          if (flags.back() == 1) {
            index = DeserializeIndex(reader.GetBlock());
          } else if (flags.back() == 2) {
            index = index->Extended(DeserializeSequenceList(reader.GetBlock()));
          }
          Bytes rows = chunk;
          SwapBigEndianRows(rows, width);
          const Bytes high = SplitHighLow(rows, width).high;
          EXPECT_EQ(stats.top_byte_frequency_before, TopByteFrequency(high));
          EXPECT_EQ(stats.top_byte_frequency_after,
                    TopByteFrequency(MapToIds(high, *index, linearization)));
        }
        const std::vector<std::uint8_t> expected =
            mode == IndexMode::kPerChunk ? std::vector<std::uint8_t>{1, 1, 1, 1}
                                         : std::vector<std::uint8_t>{1, 0, 2, 2};
        EXPECT_EQ(flags, expected);
      }
    }
  }
}

TEST(ChunkPipelineTest, DecoderRejectsZeroCount) {
  const DeflateCodec solver;
  ChunkDecoder decoder(solver, Linearization::kColumn, 8);
  Bytes out;
  ByteReader reader(Bytes(4));
  EXPECT_THROW(decoder.DecodeChunk(reader, 0, out), CorruptStreamError);
}

TEST(ChunkPipelineTest, DecoderRejectsBadWidth) {
  const DeflateCodec solver;
  EXPECT_THROW(ChunkDecoder(solver, Linearization::kColumn, 5),
               InvalidArgumentError);
}

TEST(ParallelCompressionTest, OutputIdenticalToSerial) {
  const auto values = GenerateDatasetByName("flash_velx", 200000);
  PrimacyOptions serial;
  serial.chunk_bytes = 64 * 1024;
  serial.threads = 1;
  PrimacyOptions parallel = serial;
  parallel.threads = 4;
  PrimacyStats serial_stats, parallel_stats;
  const Bytes a = PrimacyCompressor(serial).Compress(values, &serial_stats);
  const Bytes b =
      PrimacyCompressor(parallel).Compress(values, &parallel_stats);
  EXPECT_EQ(a, b);
  EXPECT_EQ(serial_stats.chunks, parallel_stats.chunks);
  EXPECT_EQ(serial_stats.id_compressed_bytes,
            parallel_stats.id_compressed_bytes);
}

TEST(ParallelCompressionTest, ParallelStreamDecodes) {
  const auto values = GenerateDatasetByName("num_plasma", 150000);
  PrimacyOptions options;
  options.chunk_bytes = 32 * 1024;
  options.threads = 0;  // hardware concurrency
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  EXPECT_EQ(PrimacyDecompressor().Decompress(stream), values);
}

TEST(ParallelCompressionTest, ReuseModeStaysSerialButCorrect) {
  // threads is ignored under kReuseWhenCorrelated (serial dependency);
  // the result must still decode and reuse indexes.
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  options.threads = 8;
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("obs_temp", 150000);
  PrimacyStats stats;
  const Bytes stream = PrimacyCompressor(options).Compress(values, &stats);
  EXPECT_LT(stats.indexes_emitted, stats.chunks);
  EXPECT_EQ(PrimacyDecompressor().Decompress(stream), values);
}

}  // namespace
}  // namespace primacy
