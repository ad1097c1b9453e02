#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "datasets/datasets.h"
#include "golden/golden_files.h"
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
  EXPECT_EQ(streaming_stats.mean_compressible_fraction,
            oneshot_stats.mean_compressible_fraction);
  // The streams differ only in the header's total: the kStreamingTotal
  // sentinel is a longer varint than the byte count.
  Bytes sentinel;
  Bytes total;
  PutVarint(sentinel, kStreamingTotal);
  PutVarint(total, oneshot_stats.input_bytes);
  EXPECT_EQ(streaming_stats.output_bytes + total.size(),
            oneshot_stats.output_bytes + sentinel.size());
  EXPECT_EQ(streaming_stats.output_bytes, collector.stream.size());
}

TEST(StreamingTest, StatsBeforeFinishMatchOneShotPrefix) {
  // stats() before Finish describes the chunks emitted so far: its
  // per-chunk fields are means, not running sums, and equal those of a
  // one-shot compress of the same prefix.
  constexpr std::size_t kChunks = 4;
  constexpr std::size_t kChunkElements = 64 * 1024 / 8;
  const auto values =
      GenerateDatasetByName("num_plasma", (kChunks + 1) * kChunkElements);
  const auto prefix = std::span(values).first(kChunks * kChunkElements);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(prefix);
  const PrimacyStats& streamed = writer.stats();
  PrimacyStats oneshot;
  PrimacyCompressor(SmallChunks()).Compress(prefix, &oneshot);
  ASSERT_EQ(streamed.chunks, kChunks);
  ASSERT_EQ(oneshot.chunks, kChunks);
  const std::pair<double, double> means[] = {
      {streamed.mean_compressible_fraction, oneshot.mean_compressible_fraction},
      {streamed.top_byte_frequency_before, oneshot.top_byte_frequency_before},
      {streamed.top_byte_frequency_after, oneshot.top_byte_frequency_after}};
  for (const auto& [mean, expected] : means) {
    EXPECT_GE(mean, 0.0);
    EXPECT_LE(mean, 1.0);
    EXPECT_NEAR(mean, expected, 1e-12);
  }
}

// Streams `values` in uneven batches and compresses them one-shot with the
// same options; the two streams must carry identical chunk records and
// record checksums (one assembler frames both).
template <typename T>
void ExpectStreamedRecordsMatchOneShot(const std::vector<T>& values,
                                       const PrimacyOptions& options) {
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), options);
  for (std::size_t offset = 0; offset < values.size(); offset += 3001) {
    writer.Append(std::span(values).subspan(
        offset, std::min<std::size_t>(3001, values.size() - offset)));
  }
  writer.Finish();
  const Bytes oneshot = PrimacyCompressor(options).Compress(values);

  const internal::OpenedStream streamed_open =
      internal::OpenStream(collector.stream, /*verify=*/true);
  const internal::OpenedStream oneshot_open =
      internal::OpenStream(oneshot, /*verify=*/true);
  ASSERT_TRUE(streamed_open.directory.has_value());
  ASSERT_TRUE(oneshot_open.directory.has_value()) << "one-shot stored fallback";
  const auto& streamed_chunks = streamed_open.directory->chunks;
  const auto& oneshot_chunks = oneshot_open.directory->chunks;
  ASSERT_EQ(streamed_chunks.size(), oneshot_chunks.size());
  ASSERT_GT(streamed_chunks.size(), 1u);
  bool any_partial_index = false;
  for (std::size_t c = 0; c < streamed_chunks.size(); ++c) {
    EXPECT_EQ(streamed_chunks[c].elements, oneshot_chunks[c].elements) << c;
    EXPECT_EQ(streamed_chunks[c].index_flag, oneshot_chunks[c].index_flag)
        << c;
    EXPECT_EQ(streamed_chunks[c].checksum, oneshot_chunks[c].checksum) << c;
    EXPECT_TRUE(std::ranges::equal(streamed_open.Record(c),
                                   oneshot_open.Record(c)))
        << c;
    any_partial_index |= streamed_chunks[c].index_flag != 1;
  }
  EXPECT_EQ(any_partial_index,
            options.index_mode == IndexMode::kReuseWhenCorrelated);
  EXPECT_EQ(streamed_open.tail.size(), oneshot_open.tail.size());
  EXPECT_EQ(streamed_open.total_bytes, oneshot_open.total_bytes);
}

TEST(StreamingTest, StreamedRecordsMatchOneShotRecords) {
  const auto doubles = GenerateDatasetByName("num_plasma", 100000);
  const std::vector<float> floats(doubles.begin(), doubles.end());
  for (const IndexMode mode :
       {IndexMode::kPerChunk, IndexMode::kReuseWhenCorrelated}) {
    PrimacyOptions options = SmallChunks();
    options.index_mode = mode;
    SCOPED_TRACE(mode == IndexMode::kPerChunk ? "kPerChunk"
                                              : "kReuseWhenCorrelated");
    {
      SCOPED_TRACE("double");
      ExpectStreamedRecordsMatchOneShot(doubles, options);
    }
    SCOPED_TRACE("float");
    options.precision = Precision::kSingle;
    ExpectStreamedRecordsMatchOneShot(floats, options);
  }
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
  // A v1 streamed stream (the committed pre-v3 writer output) has no
  // directory: the one-shot decompressor rejects range reads of it and
  // drains it sequentially for a full decode.
  const Bytes stream = ReadGolden("stream_v1_streamed.bin");
  ASSERT_FALSE(stream.empty());
  const PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.DecompressBytesRange(stream, 0, 1),
               InvalidArgumentError);
  PrimacyDecodeStats stats;
  EXPECT_EQ(decompressor.DecompressBytes(stream, &stats),
            ReadGolden("input.bin"));
  EXPECT_FALSE(stats.used_directory);
  EXPECT_EQ(stats.chunks_decoded, 3u);
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

// Streaming parity: the writer emits v3, so its stream carries the chunk
// directory and checksums. Full decodes, parallel range reads and hash-only
// verification all work on it, as on a one-shot stream.
TEST(StreamingTest, StreamWriterEmitsV3Streams) {
  const auto values = GenerateDatasetByName("obs_temp", 40000);  // 5 chunks
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  writer.Finish();
  const Bytes& stream = collector.stream;
  const Bytes raw = ToBytes(AsBytes(std::span(values)));

  ASSERT_GT(stream.size(), 5u);
  // Byte 4 is the format version (after the 4-byte magic).
  EXPECT_EQ(static_cast<std::uint8_t>(stream[4]), internal::kFormatVersion3);

  EXPECT_EQ(PrimacyDecompressor().DecompressBytes(stream), raw);

  // Elements [8000, 18000) span chunks 0-2: three kPerChunk index groups.
  PrimacyOptions parallel = SmallChunks();
  parallel.threads = 4;
  PrimacyDecodeStats stats;
  EXPECT_EQ(PrimacyDecompressor(parallel).DecompressBytesRange(stream, 8000,
                                                               10000, &stats),
            Bytes(raw.begin() + 8000 * 8, raw.begin() + 18000 * 8));
  EXPECT_TRUE(stats.used_directory);
  EXPECT_EQ(stats.chunks_decoded, 3u);
  EXPECT_EQ(stats.chunks_verified, 3u);
  EXPECT_EQ(stats.threads_used, 3u);

  const StreamVerifyResult verdict = VerifyStream(stream);
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_EQ(verdict.version, internal::kFormatVersion3);
  EXPECT_TRUE(verdict.has_checksums);
  EXPECT_EQ(verdict.chunks_checked, 5u);
}

TEST(StreamingTest, StreamedStreamWithRewrittenVersionRejected) {
  // The version byte sits outside every record checksum. Rewritten to 1, a
  // streamed v3 stream reads as a v1 streamed one, whose trailer total must
  // end the stream: the directory after it is damage, not tail bytes.
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  Collector collector;
  PrimacyStreamWriter writer(collector.AsSink(), SmallChunks());
  writer.Append(std::span(values));
  writer.Finish();
  Bytes downgraded = collector.stream;
  downgraded[4] = std::byte{1};
  EXPECT_THROW(PrimacyDecompressor().DecompressBytes(downgraded),
               CorruptStreamError);
  EXPECT_FALSE(VerifyStream(downgraded).ok);
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
