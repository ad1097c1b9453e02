// Stream format v3: per-chunk checksums, the header/tail and directory
// checksums, the verify_checksums decode knob, and verification on every
// decode path (serial full decode, parallel directory decode, range reads,
// the streaming reader, and VerifyStream).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "golden/golden_files.h"
#include "store/checkpoint_store.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

PrimacyOptions SmallChunks(std::size_t chunk_bytes = 64 * 1024) {
  PrimacyOptions options;
  options.chunk_bytes = chunk_bytes;
  return options;
}

struct ParsedStream {
  internal::StreamHeader header;
  std::size_t chunks_begin = 0;
  internal::ChunkDirectory directory;
};

ParsedStream Parse(ByteSpan stream) {
  ByteReader reader(stream);
  ParsedStream parsed;
  parsed.header = internal::ReadStreamHeader(reader);
  parsed.chunks_begin = reader.Offset();
  parsed.directory = internal::ReadChunkDirectory(stream, parsed.chunks_begin,
                                                  parsed.header.version);
  return parsed;
}

TEST(StreamV3Test, DirectoryCarriesChecksumsThatMatchTheRecordBytes) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  const ParsedStream parsed = Parse(stream);
  ASSERT_EQ(parsed.header.version, internal::kFormatVersion3);
  ASSERT_TRUE(parsed.directory.has_checksums);
  ASSERT_EQ(parsed.directory.chunks.size(), (30000u + 8191) / 8192);
  for (std::size_t c = 0; c < parsed.directory.chunks.size(); ++c) {
    const auto& entry = parsed.directory.chunks[c];
    const std::uint64_t end = c + 1 < parsed.directory.chunks.size()
                                  ? parsed.directory.chunks[c + 1].offset
                                  : parsed.directory.tail_offset;
    const ByteSpan record = ByteSpan(stream).subspan(
        static_cast<std::size_t>(entry.offset),
        static_cast<std::size_t>(end - entry.offset));
    EXPECT_EQ(Xxh64(record), entry.checksum) << "chunk " << c;
  }
  EXPECT_EQ(internal::ComputeHeaderTailChecksum(stream, parsed.directory,
                                                parsed.chunks_begin),
            parsed.directory.header_tail_checksum);
}

TEST(StreamV3Test, EverySingleBitFlipInChunkRecordsIsDetected) {
  // The acceptance-criterion proof: flip EVERY bit of every chunk record and
  // require CorruptStreamError from the (verifying) decoder. A small stream
  // keeps this exhaustive sweep fast — the checksum check fires before any
  // decode work.
  const auto values = GenerateDatasetByName("num_plasma", 768);
  const Bytes stream = PrimacyCompressor(SmallChunks(2048)).Compress(values);
  const ParsedStream parsed = Parse(stream);
  ASSERT_GE(parsed.directory.chunks.size(), 2u);
  const auto first_record =
      static_cast<std::size_t>(parsed.directory.chunks.front().offset);
  const auto records_end =
      static_cast<std::size_t>(parsed.directory.tail_offset);
  ASSERT_LT(first_record, records_end);

  const PrimacyDecompressor decompressor;
  Bytes mutated = stream;
  std::size_t flips = 0;
  for (std::size_t byte = first_record; byte < records_end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::byte mask{static_cast<unsigned char>(1u << bit)};
      mutated[byte] ^= mask;
      // Hash-only verification catches every flip...
      EXPECT_FALSE(VerifyStream(mutated).ok)
          << "undetected flip at byte " << byte << " bit " << bit;
      // ...and the decoding path throws for a sampled subset (the full
      // product would redundantly re-decode healthy chunks tens of
      // thousands of times).
      if (flips % 41 == 0) {
        EXPECT_THROW(decompressor.Decompress(mutated), CorruptStreamError)
            << "undetected flip at byte " << byte << " bit " << bit;
      }
      ++flips;
      mutated[byte] ^= mask;  // restore
    }
  }
  // The restore discipline held: the stream still decodes.
  EXPECT_EQ(decompressor.Decompress(mutated), values);
}

TEST(StreamV3Test, HeaderAndTailFlipsAreDetected) {
  // Append a partial element so the stream has a non-empty tail block, then
  // flip bits in the regions the header/tail checksum covers. (num_plasma:
  // obs_temp at this size lands in the stored fallback, which has no
  // directory to carry the header/tail checksum.)
  const auto values = GenerateDatasetByName("num_plasma", 1024);
  Bytes input = ToBytes(AsBytes(std::span(values)));
  input.push_back(0x5a_b);  // dangling tail byte
  const Bytes stream =
      PrimacyCompressor(SmallChunks(4096)).CompressBytes(input);
  const ParsedStream parsed = Parse(stream);
  const PrimacyDecompressor decompressor;

  // A tail-block byte (skip its varint length prefix).
  Bytes mutated = stream;
  const auto tail_last =
      static_cast<std::size_t>(parsed.directory.directory_offset) - 1;
  mutated[tail_last] ^= 0x10_b;
  EXPECT_THROW(decompressor.DecompressBytes(mutated), CorruptStreamError);

  // A header byte past the magic/version/flags prelude: the solver-name
  // length would reframe the header. Flip inside the solver name.
  mutated = stream;
  mutated[8] ^= 0x20_b;
  EXPECT_THROW(decompressor.DecompressBytes(mutated), CorruptStreamError);
}

TEST(StreamV3Test, DirectoryChecksumGuardsTheDirectoryItself) {
  const auto values = GenerateDatasetByName("obs_temp", 20000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  const ParsedStream parsed = Parse(stream);
  const auto directory_begin =
      static_cast<std::size_t>(parsed.directory.directory_offset);
  // Directory payload spans [directory_begin, size - 20). Flipping any bit
  // must trip the footer checksum even with verification disabled — the
  // directory drives every bounds computation.
  PrimacyOptions no_verify;
  no_verify.verify_checksums = false;
  const PrimacyDecompressor decompressor(no_verify);
  Bytes mutated = stream;
  for (std::size_t byte = directory_begin; byte < stream.size() - 20;
       ++byte) {
    mutated[byte] ^= 0x01_b;
    EXPECT_THROW(decompressor.Decompress(mutated), CorruptStreamError)
        << "undetected directory flip at byte " << byte;
    mutated[byte] ^= 0x01_b;
  }
}

TEST(StreamV3Test, VerifyChecksumsKnobControlsChunkVerification) {
  const auto values = GenerateDatasetByName("gts_phi_l", 40000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  const std::size_t chunks = (40000 + 8191) / 8192;

  PrimacyDecodeStats stats;
  PrimacyDecompressor(SmallChunks()).Decompress(stream, &stats);
  EXPECT_EQ(stats.chunks_verified, chunks) << "default verifies every chunk";

  PrimacyOptions off = SmallChunks();
  off.verify_checksums = false;
  PrimacyDecodeStats off_stats;
  const auto restored = PrimacyDecompressor(off).Decompress(stream, &off_stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(off_stats.chunks_verified, 0u);
}

TEST(StreamV3Test, ParallelDecodeVerifiesEveryChunk) {
  const auto values = GenerateDatasetByName("obs_temp", 65536);
  PrimacyOptions options = SmallChunks();
  options.threads = 0;  // hardware concurrency
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  PrimacyDecodeStats stats;
  const auto restored = PrimacyDecompressor(options).Decompress(stream, &stats);
  EXPECT_EQ(restored, values);
  EXPECT_EQ(stats.chunks_verified, 65536 / 8192);
  EXPECT_GT(stats.threads_used, 1u);

  // A flipped record bit is detected from worker threads too.
  const ParsedStream parsed = Parse(stream);
  Bytes mutated = stream;
  mutated[static_cast<std::size_t>(parsed.directory.chunks[3].offset) + 9] ^=
      0x04_b;
  EXPECT_THROW(PrimacyDecompressor(options).Decompress(mutated),
               CorruptStreamError);
}

TEST(StreamV3Test, RangeReadsVerifyOnlyTouchedChunks) {
  const auto values = GenerateDatasetByName("obs_temp", 40000);  // 5 chunks
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  PrimacyDecodeStats stats;
  const PrimacyDecompressor decompressor;
  const auto slice = decompressor.DecompressRange(stream, 10000, 5000, &stats);
  EXPECT_EQ(slice, std::vector<double>(values.begin() + 10000,
                                       values.begin() + 15000));
  EXPECT_EQ(stats.chunks_decoded, 1u);
  EXPECT_EQ(stats.chunks_verified, 1u);

  // Corrupt chunk 3's record: ranges inside chunk 1 still read cleanly,
  // ranges touching chunk 3 throw.
  const ParsedStream parsed = Parse(stream);
  Bytes mutated = stream;
  mutated[static_cast<std::size_t>(parsed.directory.chunks[3].offset) + 17] ^=
      0x80_b;
  EXPECT_EQ(decompressor.DecompressRange(mutated, 10000, 100),
            std::vector<double>(values.begin() + 10000,
                                values.begin() + 10100));
  EXPECT_THROW(decompressor.DecompressRange(mutated, 3 * 8192 + 10, 10),
               CorruptStreamError);
}

TEST(StreamV3Test, ChunkErrorsCarryChunkIndexAndByteOffset) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  const ParsedStream parsed = Parse(stream);
  Bytes mutated = stream;
  const std::uint64_t offset = parsed.directory.chunks[2].offset;
  mutated[static_cast<std::size_t>(offset) + 5] ^= 0x01_b;
  try {
    PrimacyDecompressor().Decompress(mutated);
    FAIL() << "corrupt chunk decoded";
  } catch (const CorruptStreamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 2"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(offset)), std::string::npos) << what;
  }
}

TEST(StreamV3Test, StoredStreamsCarryATrailingChecksum) {
  Rng rng(11);
  std::vector<double> values(2048);
  for (auto& v : values) {
    v = std::bit_cast<double>(rng.NextU64() & 0x7fefffffffffffffull);
  }
  PrimacyStats stats;
  const Bytes stream = PrimacyCompressor().Compress(values, &stats);
  ASSERT_EQ(stats.chunks, 0u) << "input unexpectedly compressed";

  const auto restored = PrimacyDecompressor().Decompress(stream);
  EXPECT_EQ(restored, values);

  // Flip a payload bit: a verifying decode throws, a non-verifying decode
  // returns the (corrupt) bytes.
  Bytes mutated = stream;
  mutated[stream.size() / 2] ^= 0x08_b;
  EXPECT_THROW(PrimacyDecompressor().Decompress(mutated), CorruptStreamError);
  PrimacyOptions off;
  off.verify_checksums = false;
  EXPECT_NO_THROW(PrimacyDecompressor(off).Decompress(mutated));

  // Range reads check the same whole-stream checksum, even when the range
  // misses the damaged element — directly and through a checkpoint.
  const std::vector<double> head(values.begin(), values.begin() + 100);
  EXPECT_THROW(PrimacyDecompressor().DecompressRange(mutated, 0, 100),
               CorruptStreamError);
  EXPECT_THROW(PrimacyDecompressor().DecompressBytesRange(mutated, 0, 100),
               CorruptStreamError);
  EXPECT_EQ(PrimacyDecompressor(off).DecompressRange(mutated, 0, 100), head);
  EXPECT_EQ(PrimacyDecompressor(off).DecompressBytesRange(mutated, 0, 100),
            ToBytes(AsBytes(head)));

  CheckpointWriter writer;
  writer.Add("noise", values);
  Bytes checkpoint = writer.Finish();
  // The first variable's stream follows the 5-byte checkpoint header.
  ASSERT_TRUE(std::equal(stream.begin(), stream.end(), checkpoint.begin() + 5));
  checkpoint[5 + stream.size() / 2] ^= 0x08_b;
  EXPECT_THROW(CheckpointReader(checkpoint).ReadDoublesRange("noise", 0, 100),
               CorruptStreamError);
  EXPECT_EQ(CheckpointReader(checkpoint, off).ReadDoublesRange("noise", 0, 100),
            head);
}

TEST(StreamV3Test, StreamReaderVerifiesOneShotV3Streams) {
  const auto values = GenerateDatasetByName("num_plasma", 20000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);
  {
    PrimacyStreamReader reader(stream);
    EXPECT_EQ(reader.ReadAllDoubles(), values);
  }
  const ParsedStream parsed = Parse(stream);
  Bytes mutated = stream;
  mutated[static_cast<std::size_t>(parsed.directory.chunks[1].offset) + 3] ^=
      0x40_b;
  {
    PrimacyStreamReader reader(mutated);
    EXPECT_THROW(reader.ReadAllDoubles(), CorruptStreamError);
  }
  {
    // Verification off: the reader no longer checks record hashes (the
    // decode itself may or may not survive the damage; use a bit the
    // checksum catches but whose record still parses — the ISOBAR stream
    // payload tends to, so just assert no checksum-mismatch message).
    PrimacyStreamReader reader(mutated, /*verify_checksums=*/false);
    try {
      reader.ReadAllDoubles();
    } catch (const CorruptStreamError& e) {
      EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(StreamV3Test, VerifyStreamReportsHealthWithoutThrowing) {
  const auto values = GenerateDatasetByName("obs_temp", 30000);
  const Bytes stream = PrimacyCompressor(SmallChunks()).Compress(values);

  StreamVerifyResult ok = VerifyStream(stream);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.version, internal::kFormatVersion3);
  EXPECT_TRUE(ok.has_checksums);
  EXPECT_EQ(ok.chunks_checked, (30000u + 8191) / 8192);

  Bytes mutated = stream;
  mutated[stream.size() / 3] ^= 0x02_b;
  const StreamVerifyResult bad = VerifyStream(mutated);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // Garbage input: still no throw.
  const StreamVerifyResult garbage = VerifyStream(BytesFromString("nonsense"));
  EXPECT_FALSE(garbage.ok);

  // v1 streamed (the committed pre-v3 writer output) falls back to a
  // structural decode.
  const StreamVerifyResult v1 =
      VerifyStream(ReadGolden("stream_v1_streamed.bin"));
  EXPECT_TRUE(v1.ok) << v1.error;
  EXPECT_EQ(v1.version, internal::kFormatVersion1);
  EXPECT_FALSE(v1.has_checksums);
  EXPECT_EQ(v1.chunks_checked, 3u);
}

}  // namespace
}  // namespace primacy
