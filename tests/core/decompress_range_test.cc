// Random-access range reads over the v2 chunk directory: correctness at
// chunk boundaries, covering-chunk accounting, and index-chain resolution
// under IndexMode::kReuseWhenCorrelated.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "datasets/datasets.h"
#include "golden/golden_files.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

constexpr std::size_t kChunkElements = 8192;  // 64 KiB chunks of doubles

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

class DecompressRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    values_ = GenerateDatasetByName("obs_temp", 40000);  // 5 chunks
    stream_ = PrimacyCompressor(SmallChunks()).Compress(values_);
  }

  std::vector<double> values_;
  Bytes stream_;
  PrimacyDecompressor decompressor_;
};

TEST_F(DecompressRangeTest, FullRangeMatchesDecompress) {
  PrimacyDecodeStats stats;
  const auto range =
      decompressor_.DecompressRange(stream_, 0, values_.size(), &stats);
  EXPECT_EQ(range, values_);
  EXPECT_EQ(stats.chunks_decoded, 5u);
  EXPECT_TRUE(stats.used_directory);
}

TEST_F(DecompressRangeTest, MidChunkStartTouchesOnlyCoveringChunk) {
  // [10000, 15000) sits strictly inside chunk 1 ([8192, 16384)).
  PrimacyDecodeStats stats;
  const auto range = decompressor_.DecompressRange(stream_, 10000, 5000, &stats);
  EXPECT_EQ(range, Slice(values_, 10000, 5000));
  EXPECT_EQ(stats.chunks_decoded, 1u);
  EXPECT_EQ(stats.index_loads, 0u);  // kPerChunk: no chain to resolve
}

TEST_F(DecompressRangeTest, CrossChunkBoundaryTouchesBothChunks) {
  PrimacyDecodeStats stats;
  const auto range = decompressor_.DecompressRange(
      stream_, kChunkElements - 100, 200, &stats);
  EXPECT_EQ(range, Slice(values_, kChunkElements - 100, 200));
  EXPECT_EQ(stats.chunks_decoded, 2u);
}

TEST_F(DecompressRangeTest, ExactChunkExtent) {
  PrimacyDecodeStats stats;
  const auto range = decompressor_.DecompressRange(
      stream_, kChunkElements, kChunkElements, &stats);
  EXPECT_EQ(range, Slice(values_, kChunkElements, kChunkElements));
  EXPECT_EQ(stats.chunks_decoded, 1u);
}

TEST_F(DecompressRangeTest, TailPartialChunk) {
  // The last chunk holds 40000 - 4 * 8192 = 7232 elements; read its tail.
  PrimacyDecodeStats stats;
  const auto range =
      decompressor_.DecompressRange(stream_, values_.size() - 7, 7, &stats);
  EXPECT_EQ(range, Slice(values_, values_.size() - 7, 7));
  EXPECT_EQ(stats.chunks_decoded, 1u);
}

TEST_F(DecompressRangeTest, SingleElementReads) {
  for (const std::size_t i :
       {std::size_t{0}, kChunkElements - 1, kChunkElements,
        std::size_t{20000}, values_.size() - 1}) {
    PrimacyDecodeStats stats;
    const auto one = decompressor_.DecompressRange(stream_, i, 1, &stats);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], values_[i]) << "element " << i;
    EXPECT_EQ(stats.chunks_decoded, 1u);
  }
}

TEST_F(DecompressRangeTest, EmptyRangeIsValidAnywhere) {
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{12345}, values_.size()}) {
    PrimacyDecodeStats stats;
    EXPECT_TRUE(decompressor_.DecompressRange(stream_, at, 0, &stats).empty());
    EXPECT_EQ(stats.chunks_decoded, 0u);
  }
}

TEST_F(DecompressRangeTest, OutOfBoundsThrows) {
  EXPECT_THROW(decompressor_.DecompressRange(stream_, values_.size() + 1, 0),
               InvalidArgumentError);
  EXPECT_THROW(decompressor_.DecompressRange(stream_, 0, values_.size() + 1),
               InvalidArgumentError);
  EXPECT_THROW(
      decompressor_.DecompressRange(stream_, values_.size() - 1, 2),
      InvalidArgumentError);
}

TEST_F(DecompressRangeTest, WidthMismatchThrows) {
  EXPECT_THROW(decompressor_.DecompressRange<float>(stream_, 0, 1),
               InvalidArgumentError);
}

TEST_F(DecompressRangeTest, BytesRangeMatchesTypedRange) {
  const Bytes raw = decompressor_.DecompressBytesRange(stream_, 9000, 1000);
  EXPECT_EQ(FromBytes<double>(raw), Slice(values_, 9000, 1000));
}

TEST_F(DecompressRangeTest, ExtremeBoundsDoNotWrap) {
  // first/count near the uint64 edge must fail the bounds check, not wrap
  // into an in-bounds-looking product.
  const std::uint64_t huge = ~std::uint64_t{0};
  EXPECT_THROW(decompressor_.DecompressRange(stream_, huge, 1),
               InvalidArgumentError);
  EXPECT_THROW(decompressor_.DecompressRange(stream_, 1, huge),
               InvalidArgumentError);
  EXPECT_THROW(decompressor_.DecompressRange(stream_, huge, huge),
               InvalidArgumentError);
}

TEST_F(DecompressRangeTest, CorruptedChunkInsideRangeThrows) {
  // Damage chunk 2's record. Ranges confined to other chunks still decode;
  // any range whose covering set includes chunk 2 throws CorruptStreamError.
  ByteReader reader(stream_);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream_, reader.Offset(), header.version);
  Bytes mutated = stream_;
  mutated[static_cast<std::size_t>(directory.chunks[2].offset) + 11] ^= 0x01_b;

  EXPECT_EQ(decompressor_.DecompressRange(mutated, 0, 100),
            Slice(values_, 0, 100));
  EXPECT_THROW(
      decompressor_.DecompressRange(mutated, 2 * kChunkElements + 5, 10),
      CorruptStreamError);
  // A range straddling chunks 1-2 dies on the corrupt member too.
  EXPECT_THROW(
      decompressor_.DecompressRange(mutated, 2 * kChunkElements - 5, 10),
      CorruptStreamError);
}

TEST_F(DecompressRangeTest, RangeReadsValidateTheTailBlock) {
  // A stream with a 3-byte tail block whose length varint is damaged: with
  // checksums off, only the structural tail check can catch it, and range
  // reads make that check just as full decodes do.
  Bytes raw = ToBytes(AsBytes(values_));
  raw.insert(raw.end(), {1_b, 2_b, 3_b});
  Bytes stream = PrimacyCompressor(SmallChunks()).CompressBytes(raw);
  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream, reader.Offset(), header.version);
  const auto tail = static_cast<std::size_t>(directory.tail_offset);
  ASSERT_EQ(stream[tail], 3_b);  // varint length of the tail block
  stream[tail] = 2_b;

  PrimacyOptions off = SmallChunks();
  off.verify_checksums = false;
  const PrimacyDecompressor unverified(off);
  EXPECT_THROW(unverified.DecompressBytes(stream), CorruptStreamError);
  EXPECT_THROW(unverified.DecompressRange(stream, 0, 10), CorruptStreamError);
}

TEST(DecompressRangeV1Test, OneShotV1WithoutDirectoryRejected) {
  // A one-shot v1 stream parses fine but has no directory to seek with: the
  // contract is a typed InvalidArgumentError, not a parse failure.
  const auto values = GenerateDatasetByName("obs_temp", 10000);
  Bytes v1;
  internal::WriteStreamHeader(v1, SmallChunks(), values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion1);
  const auto solver = internal::ResolveSolver(SmallChunks().solver);
  ChunkEncoder encoder(SmallChunks(), *solver);
  const ByteSpan body = AsBytes(std::span(values));
  for (std::size_t first = 0; first < values.size();
       first += kChunkElements) {
    const std::size_t count =
        std::min(kChunkElements, values.size() - first);
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), v1);
  }
  PutBlock(v1, ByteSpan{});
  EXPECT_THROW(PrimacyDecompressor().DecompressRange(v1, 0, 1),
               InvalidArgumentError);
  // Sanity: the same stream decodes sequentially.
  EXPECT_EQ(PrimacyDecompressor().Decompress(v1), values);
}

TEST(DecompressRangeV1Test, V1StreamRejected) {
  // A streamed v1 stream (the committed pre-v3 writer output) has neither a
  // directory nor a total up front: range reads are a typed
  // InvalidArgumentError, as for a one-shot v1 stream.
  const Bytes streamed = ReadGolden("stream_v1_streamed.bin");
  ASSERT_FALSE(streamed.empty());
  EXPECT_THROW(PrimacyDecompressor().DecompressRange(streamed, 0, 1),
               InvalidArgumentError);
  EXPECT_THROW(PrimacyDecompressor().DecompressBytesRange(streamed, 250, 12),
               InvalidArgumentError);
}

TEST(DecompressRangeChainTest, ReuseWhenCorrelatedResolvesIndexChain) {
  PrimacyOptions options = SmallChunks();
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  // A smooth dataset keeps chunk frequency vectors correlated, so most
  // chunks reuse (flag 0) or delta-extend (flag 2) the first full index.
  const auto values = GenerateDatasetByName("gts_phi_l", 65536);  // 8 chunks
  const Bytes stream = PrimacyCompressor(options).Compress(values);

  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  const internal::ChunkDirectory directory =
      internal::ReadChunkDirectory(stream, reader.Offset(), header.version);
  ASSERT_EQ(directory.chunks.size(), 8u);
  bool any_reused = false;
  for (const auto& entry : directory.chunks) {
    any_reused = any_reused || entry.index_flag != 1;
  }
  ASSERT_TRUE(any_reused) << "dataset unexpectedly produced per-chunk indexes";

  const PrimacyDecompressor decompressor(options);
  // Read from the last chunk only: the decoder must replay the index chain
  // (index blocks only) without decoding the earlier chunks.
  const std::size_t last = directory.chunks.size() - 1;
  std::size_t base = last;
  while (directory.chunks[base].index_flag != 1) --base;
  std::size_t expected_loads = directory.chunks[last].index_flag == 1 ? 0 : 1;
  for (std::size_t c = base + 1; c < last; ++c) {
    expected_loads += directory.chunks[c].index_flag == 2;
  }

  PrimacyDecodeStats stats;
  const auto range = decompressor.DecompressRange(
      stream, last * kChunkElements, 100, &stats);
  EXPECT_EQ(range, Slice(values, last * kChunkElements, 100));
  EXPECT_EQ(stats.chunks_decoded, 1u);
  EXPECT_EQ(stats.index_loads, expected_loads);

  // Every start offset must round-trip, whatever its chain shape.
  for (std::size_t c = 0; c < directory.chunks.size(); ++c) {
    const std::size_t first = c * kChunkElements + 17;
    const auto slice = decompressor.DecompressRange(stream, first, 64);
    EXPECT_EQ(slice, Slice(values, first, 64)) << "chunk " << c;
  }
}

TEST(DecompressRangeFloatTest, SinglePrecisionRangeRoundTrips) {
  PrimacyOptions options;
  options.precision = Precision::kSingle;
  options.chunk_bytes = 16 * 1024;  // 4096 floats per chunk
  const auto doubles = GenerateDatasetByName("num_plasma", 20000);
  std::vector<float> values(doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    values[i] = static_cast<float>(doubles[i]);
  }
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  PrimacyDecodeStats stats;
  const auto range =
      PrimacyDecompressor(options).DecompressRange<float>(stream, 5000, 3000,
                                                          &stats);
  EXPECT_EQ(range, std::vector<float>(values.begin() + 5000,
                                      values.begin() + 8000));
  EXPECT_EQ(stats.chunks_decoded, 1u);  // [5000, 8000) sits in chunk 1
  EXPECT_THROW(PrimacyDecompressor(options).DecompressRange(stream, 0, 1),
               InvalidArgumentError);
}

}  // namespace
}  // namespace primacy
