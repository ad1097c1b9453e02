// Legacy stream formats: v1/v2 compatibility round-trips, directory layout,
// and corruption detection shared across versions. (v3-specific checksum
// behavior lives in stream_v3_test.cc.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "golden/golden_files.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

PrimacyOptions SmallChunks() {
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  return options;
}

// Hand-assembles a one-shot v1 stream (header + chunk records + tail, no
// directory), the way a pre-v2 writer laid it out.
Bytes MakeV1Stream(std::span<const double> values,
                   const PrimacyOptions& options) {
  Bytes out;
  internal::WriteStreamHeader(out, options, values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion1);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const ByteSpan body = AsBytes(values);
  const std::size_t chunk_elements = options.chunk_bytes / 8;
  for (std::size_t first = 0; first < values.size();
       first += chunk_elements) {
    const std::size_t count = std::min(chunk_elements, values.size() - first);
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), out);
  }
  PutBlock(out, ByteSpan{});  // empty tail
  return out;
}

// Hand-assembles a one-shot v2 stream (v1 payload + checksum-free directory
// and 12-byte footer), the way a pre-v3 writer laid it out. `streamed` puts
// the kStreamingTotal sentinel in its header, which no v2 writer did.
Bytes MakeV2Stream(std::span<const double> values,
                   const PrimacyOptions& options, bool streamed = false) {
  Bytes out;
  internal::WriteStreamHeader(out, options,
                              streamed ? kStreamingTotal : values.size() * 8,
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
    const ChunkRecordStats chunk =
        encoder.EncodeChunk(body.subspan(first * 8, count * 8), out);
    entry.index_flag =
        chunk.emitted_full_index ? 1 : (chunk.emitted_delta_index ? 2 : 0);
    directory.chunks.push_back(entry);
  }
  directory.tail_offset = out.size();
  PutBlock(out, ByteSpan{});  // empty tail
  internal::AppendChunkDirectory(out, directory, internal::kFormatVersion2);
  return out;
}

TEST(StreamV2Test, OneShotStreamsAreVersion3WithDirectoryFooter) {
  const auto values = GenerateDatasetByName("obs_temp", 40000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  ASSERT_GT(stream.size(), 25u);
  EXPECT_EQ(static_cast<std::uint8_t>(stream[4]), internal::kFormatVersion3);
  // Footer ends with the directory magic "PRD3".
  std::uint32_t magic = 0;
  std::memcpy(&magic, stream.data() + stream.size() - 4, 4);
  EXPECT_EQ(magic, 0x33445250u);
}

TEST(StreamV2Test, V2RoundTripUsesDirectory) {
  const auto values = GenerateDatasetByName("gts_phi_l", 50000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  PrimacyDecodeStats stats;
  const auto restored =
      PrimacyDecompressor(SmallChunks()).Decompress(stream, &stats);
  EXPECT_EQ(restored, values);
  // 50000 doubles at 8192 elements per chunk.
  EXPECT_EQ(stats.chunks_decoded, (50000 + 8191) / 8192);
  EXPECT_EQ(stats.output_bytes, values.size() * 8);
}

TEST(StreamV2Test, V1StreamsStillDecode) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes v1 = MakeV1Stream(values, SmallChunks());
  EXPECT_EQ(static_cast<std::uint8_t>(v1[4]), internal::kFormatVersion1);
  PrimacyDecodeStats stats;
  const auto restored = PrimacyDecompressor().Decompress(v1, &stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(stats.chunks_decoded, (30000 + 8191) / 8192);
  // The records index into a directory, so v1 decodes chunk-parallel too.
  PrimacyOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(PrimacyDecompressor(parallel).Decompress(v1, &stats), values);
  EXPECT_EQ(stats.threads_used, 4u);
}

TEST(StreamV2Test, V1IndexMatchesTheStoredV2Directory) {
  // v1 and v2 streams hold the same records, and a v1 stream's records
  // index into the directory a v2 footer stores: offsets, element counts
  // and index flags (reuse and delta ones too), and the tail block offset.
  const auto values = GenerateDatasetByName("gts_phi_l", 65536);  // 8 chunks
  for (const IndexMode mode :
       {IndexMode::kPerChunk, IndexMode::kReuseWhenCorrelated}) {
    PrimacyOptions options = SmallChunks();
    options.index_mode = mode;
    const Bytes v2 = MakeV2Stream(values, options);
    ByteReader reader(v2);
    const internal::StreamHeader header = internal::ReadStreamHeader(reader);
    const internal::ChunkDirectory stored =
        internal::ReadChunkDirectory(v2, reader.Offset(), header.version);
    const Bytes v1 = MakeV1Stream(values, options);
    const internal::OpenedStream opened =
        internal::OpenStream(v1, /*verify=*/true);
    ASSERT_TRUE(opened.directory.has_value());
    const internal::ChunkDirectory& indexed = *opened.directory;
    ASSERT_EQ(indexed.chunks.size(), stored.chunks.size());
    for (std::size_t c = 0; c < stored.chunks.size(); ++c) {
      EXPECT_EQ(indexed.chunks[c].offset, stored.chunks[c].offset) << c;
      EXPECT_EQ(indexed.chunks[c].elements, stored.chunks[c].elements) << c;
      EXPECT_EQ(indexed.chunks[c].index_flag, stored.chunks[c].index_flag)
          << c;
    }
    EXPECT_EQ(indexed.tail_offset, stored.tail_offset);
    EXPECT_FALSE(indexed.has_checksums);
  }
}

TEST(StreamV2Test, RewrittenVersionByteRejected) {
  // The version byte sits outside every record checksum. Rewritten to 1, a
  // one-shot v3 stream reads as v1, which ends at its tail block: the
  // directory after it is damage, so no reader decodes the records
  // unverified.
  const auto values = GenerateDatasetByName("num_plasma", 8192);
  PrimacyOptions options;
  options.chunk_bytes = 16 * 1024;
  Bytes downgraded = PrimacyCompressor(options).Compress(values);
  ASSERT_EQ(static_cast<std::uint8_t>(downgraded[4]),
            internal::kFormatVersion3);
  downgraded[4] = std::byte{1};
  EXPECT_THROW(PrimacyDecompressor().Decompress(downgraded),
               CorruptStreamError);
  EXPECT_THROW(PrimacyStreamReader(downgraded).ReadAllDoubles(),
               CorruptStreamError);
  EXPECT_FALSE(VerifyStream(downgraded).ok);
}

TEST(StreamV2Test, OneShotV1WithTrailingByteRejected) {
  // A one-shot v1 stream ends at its tail block.
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  Bytes v1 = MakeV1Stream(values, SmallChunks());
  ASSERT_EQ(PrimacyDecompressor().Decompress(v1), values);
  v1.push_back(0_b);
  EXPECT_THROW(PrimacyDecompressor().Decompress(v1), CorruptStreamError);
  EXPECT_THROW(PrimacyStreamReader(v1).ReadAllDoubles(), CorruptStreamError);
  EXPECT_FALSE(VerifyStream(v1).ok);
}

TEST(StreamV2Test, V2StreamsStillDecode) {
  const auto values = GenerateDatasetByName("gts_phi_l", 30000);
  const Bytes v2 = MakeV2Stream(values, SmallChunks());
  EXPECT_EQ(static_cast<std::uint8_t>(v2[4]), internal::kFormatVersion2);
  PrimacyDecodeStats stats;
  const auto restored = PrimacyDecompressor().Decompress(v2, &stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(stats.chunks_decoded, (30000 + 8191) / 8192);
  EXPECT_EQ(stats.chunks_verified, 0u) << "v2 carries no checksums";
  // Range reads work off the checksum-free directory too.
  const auto slice = PrimacyDecompressor().DecompressRange(v2, 9000, 100);
  EXPECT_EQ(slice, std::vector<double>(values.begin() + 9000,
                                       values.begin() + 9100));
  // The sequential reader opens a v2 stream the way the decompressor does:
  // a damaged directory is rejected even though every record is intact.
  EXPECT_EQ(PrimacyStreamReader(v2).ReadAllDoubles(), values);
  Bytes mutated = v2;
  mutated[mutated.size() - 1] ^= 0x01_b;  // footer magic
  EXPECT_THROW(PrimacyDecompressor().Decompress(mutated), CorruptStreamError);
  EXPECT_THROW(PrimacyStreamReader(mutated).ReadAllDoubles(),
               CorruptStreamError);
}

TEST(StreamV2Test, V1V2AndV3PayloadsMatchByteForByte) {
  // v2/v3 = v1 payload + directory: stripping the directory must leave
  // exactly the v1 record bytes (only the version byte differs).
  const auto values = GenerateDatasetByName("num_plasma", 25000);
  const Bytes v1 = MakeV1Stream(values, SmallChunks());
  const Bytes v2 = MakeV2Stream(values, SmallChunks());
  const Bytes v3 = PrimacyCompressor(SmallChunks()).Compress(values);
  ASSERT_GT(v2.size(), v1.size());
  ASSERT_GT(v3.size(), v2.size()) << "v3 adds checksums to the directory";
  EXPECT_TRUE(std::equal(v1.begin() + 5, v1.end(), v2.begin() + 5));
  EXPECT_TRUE(std::equal(v1.begin() + 5, v1.end(), v3.begin() + 5));
}

TEST(StreamV2Test, TruncatedDirectoryThrows) {
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  const PrimacyDecompressor decompressor;
  for (const std::size_t drop : {std::size_t{1}, std::size_t{4},
                                 std::size_t{12}, std::size_t{20}}) {
    Bytes truncated(stream.begin(),
                    stream.end() - static_cast<std::ptrdiff_t>(drop));
    EXPECT_THROW(decompressor.Decompress(truncated), CorruptStreamError)
        << "dropped " << drop << " bytes";
  }
}

TEST(StreamV2Test, CorruptFooterChunkCountThrows) {
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  // The footer's u32 chunk count sits 8 bytes from the end.
  stream[stream.size() - 8] ^= 0xff_b;
  EXPECT_THROW(PrimacyDecompressor().Decompress(stream), CorruptStreamError);
}

TEST(StreamV2Test, CorruptDirectoryPayloadThrows) {
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  // Locate the directory payload via its footer and zero its leading varint
  // (the chunk count): detected by the v3 directory checksum.
  std::uint32_t payload_bytes = 0;
  std::memcpy(&payload_bytes, stream.data() + stream.size() - 12, 4);
  ASSERT_LT(payload_bytes, stream.size());
  stream[stream.size() - 20 - payload_bytes] = 0_b;
  EXPECT_THROW(PrimacyDecompressor().Decompress(stream), CorruptStreamError);
}

TEST(StreamV2Test, CorruptFooterMagicThrows) {
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  stream[stream.size() - 1] ^= 0x01_b;
  EXPECT_THROW(PrimacyDecompressor().Decompress(stream), CorruptStreamError);
}

TEST(StreamV2Test, StoredFallbackHasNoDirectoryAndStillRangeReads) {
  // Incompressible input triggers the whole-stream stored fallback, which
  // carries no directory (the raw payload is already seekable).
  Rng rng(7);
  std::vector<double> values(4096);
  for (auto& v : values) {
    // Mask to finite positives so equality compares are NaN-free.
    v = std::bit_cast<double>(rng.NextU64() & 0x7fefffffffffffffull);
  }
  PrimacyStats stats;
  const Bytes stream = PrimacyCompressor().Compress(values, &stats);
  ASSERT_EQ(stats.chunks, 0u) << "input unexpectedly compressed";
  PrimacyDecodeStats decode_stats;
  const auto restored = PrimacyDecompressor().Decompress(stream, &decode_stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(decode_stats.chunks_decoded, 0u);
  const auto slice =
      PrimacyDecompressor().DecompressRange(stream, 100, 50, &decode_stats);
  EXPECT_EQ(slice, std::vector<double>(values.begin() + 100,
                                       values.begin() + 150));
  EXPECT_EQ(decode_stats.chunks_decoded, 0u);
}

TEST(StreamV2Test, StreamedV1StreamsStillDecode) {
  // The pre-v3 PrimacyStreamWriter's shape (v1, sentinel header, 0-count
  // trailer), committed to the golden corpus, still streams back.
  const Bytes stream = ReadGolden("stream_v1_streamed.bin");
  ASSERT_GT(stream.size(), 5u);
  EXPECT_EQ(static_cast<std::uint8_t>(stream[4]), internal::kFormatVersion1);
  PrimacyStreamReader reader(stream);
  Bytes restored;
  while (reader.NextChunk(restored)) {
  }
  EXPECT_EQ(restored, ReadGolden("input.bin"));
  EXPECT_EQ(reader.chunks_decoded(), 3u);
}

TEST(StreamV2Test, StreamedTotalInV2HeaderRejected) {
  // Only v1 and v3 writers ever streamed: a v2 header carrying the
  // kStreamingTotal sentinel is corrupt, even over a well-formed directory.
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  const Bytes v2 = MakeV2Stream(values, SmallChunks(), /*streamed=*/true);
  EXPECT_THROW(PrimacyDecompressor().DecompressBytes(v2), CorruptStreamError);
  EXPECT_THROW(PrimacyStreamReader{ByteSpan(v2)}, CorruptStreamError);
  EXPECT_FALSE(VerifyStream(v2).ok);
}

TEST(StreamV2Test, DirectoryEntriesDescribeEveryChunk) {
  const auto values = GenerateDatasetByName("gts_phi_l", 50000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  ASSERT_EQ(header.version, internal::kFormatVersion3);
  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream, reader.Offset(), header.version);
  ASSERT_EQ(directory.chunks.size(), (50000u + 8191) / 8192);
  std::uint64_t elements = 0;
  for (const auto& entry : directory.chunks) {
    EXPECT_EQ(entry.index_flag, 1) << "kPerChunk emits a full index per chunk";
    elements += entry.elements;
  }
  EXPECT_EQ(elements, values.size());
  EXPECT_LT(directory.tail_offset, directory.directory_offset);
}

}  // namespace
}  // namespace primacy
