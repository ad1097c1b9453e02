#include "core/streaming.h"

#include <gtest/gtest.h>

#include "datasets/datasets.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

/// Collects sink output into one buffer.
struct Collector {
  Bytes stream;
  PrimacyStreamWriter::Sink AsSink() {
    return [this](ByteSpan data) { AppendBytes(stream, data); };
  }
};

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  return options;
}

TEST(StreamingTest, BatchedAppendsRoundTrip) {
  const auto values = GenerateDatasetByName("obs_info", 100000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  // Feed in uneven batches.
  std::size_t offset = 0;
  Rng rng(1);
  while (offset < values.size()) {
    const std::size_t batch =
        std::min<std::size_t>(1 + rng.NextBelow(20000), values.size() - offset);
    writer.Append(std::span(values).subspan(offset, batch));
    offset += batch;
  }
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, StatsMatchOneShotCompressor) {
  const auto values = GenerateDatasetByName("num_plasma", 80000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  const PrimacyStats streaming_stats = writer.Finish();

  PrimacyStats oneshot_stats;
  PrimacyCompressor(SmallChunks()).Compress(values, &oneshot_stats);
  EXPECT_EQ(streaming_stats.chunks, oneshot_stats.chunks);
  EXPECT_EQ(streaming_stats.id_compressed_bytes,
            oneshot_stats.id_compressed_bytes);
  EXPECT_EQ(streaming_stats.input_bytes, oneshot_stats.input_bytes);
  // Stream sizes differ only by the trailer/header shape plus the one-shot
  // v2 chunk directory (~a dozen bytes per chunk + a 12-byte footer), which
  // the v1 streamed format does not carry.
  EXPECT_NEAR(static_cast<double>(streaming_stats.output_bytes),
              static_cast<double>(oneshot_stats.output_bytes),
              32.0 + 16.0 * static_cast<double>(oneshot_stats.chunks) + 12.0);
}

TEST(StreamingTest, ChunksEmittedIncrementally) {
  const auto values = GenerateDatasetByName("obs_temp", 64 * 1024);
  std::size_t sink_calls = 0;
  std::size_t bytes_before_finish = 0;
  PrimacyStreamWriter writer(
      [&](ByteSpan data) {
        ++sink_calls;
        bytes_before_finish += data.size();
      },
      SmallChunks());
  // 8192 elements per 64 KiB chunk: each append of 16384 yields records.
  for (std::size_t offset = 0; offset < values.size(); offset += 16384) {
    writer.Append(std::span(values).subspan(offset, 16384));
  }
  const std::size_t calls_before_finish = sink_calls;
  writer.Finish();
  EXPECT_GE(calls_before_finish, 4u);  // header + several record batches
}

TEST(StreamingTest, ReaderBoundsMemoryByChunk) {
  const auto values = GenerateDatasetByName("flash_velx", 100000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.element_width(), 8u);
  Bytes restored;
  std::size_t chunks = 0;
  Bytes chunk;
  while (reader.NextChunk(chunk)) {
    ++chunks;
    // Each NextChunk call appends at most one chunk's worth of bytes.
    EXPECT_LE(chunk.size(), 64u * 1024u);
    AppendBytes(restored, chunk);
    chunk.clear();
  }
  AppendBytes(restored, chunk);  // tail from the final call
  EXPECT_GT(chunks, 10u);
  EXPECT_EQ(FromBytes<double>(restored), values);
}

TEST(StreamingTest, ReaderAlsoReadsOneShotStreams) {
  const auto values = GenerateDatasetByName("gts_phi_l", 50000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  PrimacyStreamReader reader(stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, OneShotDecompressorRejectsStreamedStream) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  const std::vector<double> hundred(100, 1.0);
  writer.Append(std::span(hundred));
  writer.Finish();
  const PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.DecompressBytes(collector.stream),
               CorruptStreamError);
}

TEST(StreamingTest, TailBytesSurviveStreaming) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  Bytes raw(8 * 5000 + 3);
  Rng rng(2);
  for (auto& b : raw) b = static_cast<std::byte>(rng.NextBelow(256));
  writer.AppendBytes(raw);
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  Bytes restored;
  while (reader.NextChunk(restored)) {
  }
  EXPECT_EQ(restored, raw);
}

TEST(StreamingTest, EmptyStreamRoundTrips) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Finish();
  PrimacyStreamReader reader(collector.stream);
  Bytes restored;
  EXPECT_FALSE(reader.NextChunk(restored));
  EXPECT_TRUE(restored.empty());
}

TEST(StreamingTest, AppendAfterFinishRejected) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Finish();
  const std::vector<double> one(1, 1.0);
  EXPECT_THROW(writer.Append(std::span(one)), InvalidArgumentError);
  EXPECT_THROW(writer.Finish(), InvalidArgumentError);
}

TEST(StreamingTest, NullSinkRejected) {
  EXPECT_THROW(PrimacyStreamWriter writer({}, SmallChunks()),
               InvalidArgumentError);
}

TEST(StreamingTest, IndexReuseWorksAcrossStreamedChunks) {
  PrimacyOptions options = SmallChunks();
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("obs_temp", 200000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), options);
  for (std::size_t offset = 0; offset < values.size(); offset += 30000) {
    const std::size_t batch = std::min<std::size_t>(30000, values.size() - offset);
    writer.Append(std::span(values).subspan(offset, batch));
  }
  const PrimacyStats stats = writer.Finish();
  EXPECT_GT(stats.delta_indexes + (stats.chunks - stats.indexes_emitted -
                                   stats.delta_indexes),
            0u);
  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, SinglePrecisionStreamsRoundTrip) {
  PrimacyOptions options = SmallChunks();
  options.precision = Precision::kSingle;
  std::vector<float> values(60000);
  Rng rng(3);
  for (auto& v : values) {
    v = static_cast<float>(1.0 + rng.NextGaussian() * 0.1);
  }
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), options);
  writer.Append(std::span(values));
  writer.Finish();

  PrimacyStreamReader reader(collector.stream);
  EXPECT_EQ(reader.element_width(), 4u);
  Bytes restored;
  while (reader.NextChunk(restored)) {
  }
  EXPECT_EQ(FromBytes<float>(restored), values);
}

// Pins the streaming-writer format gap (ROADMAP "Streaming writer emits
// v3"): even with default (v3-capable) options, the streaming writer
// downgrades to v1 — no chunk directory, no footer, no checksums, and the
// seekable decompressor refuses the stream. If this test starts failing
// because stream[4] != 1, streaming parity has landed: flip it alongside.
TEST(StreamingTest, StreamWriterStillEmitsV1OnlyStreams) {
  Bytes stream;
  PrimacyOptions options;  // defaults request the current (v3) format
  PrimacyStreamWriter writer(
      [&stream](ByteSpan data) { primacy::AppendBytes(stream, data); },
      options);
  std::vector<double> values(512);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.5 + static_cast<double>(i) * 0.125;
  }
  writer.Append(values);
  writer.Finish();

  ASSERT_GT(stream.size(), 5u);
  // Byte 4 is the format version (after the 4-byte magic).
  EXPECT_EQ(static_cast<std::uint8_t>(stream[4]),
            primacy::internal::kFormatVersion1)
      << "streaming writer now emits v" << static_cast<int>(stream[4])
      << " — parity landed; update this pin and the streaming-writer docs";

  // Consequence of v1-with-sentinel: no random access. The one-shot
  // decompressor (and with it DecompressRange) refuses streamed streams.
  PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.DecompressBytes(stream), CorruptStreamError);
  EXPECT_THROW(decompressor.DecompressRange(stream, 0, 16),
               CorruptStreamError);
  // The sequential reader still handles it fine — that is all v1 offers.
  PrimacyStreamReader reader{ByteSpan(stream)};
  EXPECT_EQ(reader.ReadAllDoubles(), values);
}

TEST(StreamingTest, TruncatedStreamedStreamDetected) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  const auto values = GenerateDatasetByName("obs_info", 50000);
  writer.Append(std::span(values));
  writer.Finish();
  Bytes truncated = collector.stream;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(
      {
        PrimacyStreamReader reader(truncated);
        Bytes out;
        while (reader.NextChunk(out)) {
        }
      },
      CorruptStreamError);
}

}  // namespace
}  // namespace primacy
