// Random-access range reads over the chunk directory (stored in v2/v3,
// indexed from the records in v1): correctness at chunk boundaries,
// covering-chunk accounting, and index-chain resolution under
// IndexMode::kReuseWhenCorrelated.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <utility>
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

/// Hand-assembles a one-shot v1 stream (header, chunk records, tail block,
/// no directory), the way a pre-v2 writer laid it out.
Bytes MakeV1(std::span<const double> values, const PrimacyOptions& options) {
  Bytes v1;
  internal::WriteStreamHeader(v1, options, values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion1);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const ByteSpan body = AsBytes(values);
  for (std::size_t first = 0; first < values.size();
       first += kChunkElements) {
    const std::size_t count = std::min(kChunkElements, values.size() - first);
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), v1);
  }
  PutBlock(v1, ByteSpan{});
  return v1;
}

/// Byte range reads of `stream` inside one chunk, across each chunk edge,
/// across three chunks and over every element equal the same slices of
/// `input`, serially and with threads = 4.
void ExpectRangeReadsMatchInput(const Bytes& stream, const Bytes& input,
                                std::uint64_t chunk_elements,
                                PrimacyOptions options) {
  const std::uint64_t elements = input.size() / 8;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
      {0, elements}, {chunk_elements / 2, 7}, {elements - 1, 1}};
  for (std::uint64_t edge = chunk_elements; edge < elements;
       edge += chunk_elements) {
    ranges.emplace_back(edge - 5, 10);
    if (edge + chunk_elements < elements) {
      ranges.emplace_back(edge - 3, chunk_elements + 6);
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const PrimacyDecompressor decompressor(options);
    for (const auto& [first, count] : ranges) {
      EXPECT_EQ(decompressor.DecompressBytesRange(stream, first, count),
                Bytes(input.begin() + static_cast<std::ptrdiff_t>(first * 8),
                      input.begin() +
                          static_cast<std::ptrdiff_t>((first + count) * 8)))
          << "first=" << first << " count=" << count
          << " threads=" << threads;
    }
  }
}

TEST(DecompressRangeV1Test, OneShotV1RangeReadsMatchSlices) {
  // A one-shot v1 stream stores no directory: opening it indexes its
  // records, so it reads by range, serially and in parallel, as v2 does.
  const auto values = GenerateDatasetByName("obs_temp", 40000);  // 5 chunks
  ExpectRangeReadsMatchInput(MakeV1(values, SmallChunks()),
                             ToBytes(AsBytes(std::span(values))),
                             kChunkElements, SmallChunks());
}

TEST(DecompressRangeV1Test, StreamedV1RangeReadsMatchSlices) {
  // The committed pre-v3 streamed writer output (sentinel header, records
  // ended by a 0 count, tail block, real total) in 256-element chunks.
  const Bytes streamed = ReadGolden("stream_v1_streamed.bin");
  ASSERT_FALSE(streamed.empty());
  ExpectRangeReadsMatchInput(streamed, ReadGolden("input.bin"), 256,
                             PrimacyOptions{});
}

TEST(DecompressRangeV1Test, ReuseWhenCorrelatedV1RangeReadsResolveIndexChain) {
  PrimacyOptions options = SmallChunks();
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  const auto values = GenerateDatasetByName("gts_phi_l", 65536);  // 8 chunks
  const Bytes v1 = MakeV1(values, options);
  ExpectRangeReadsMatchInput(v1, ToBytes(AsBytes(std::span(values))),
                             kChunkElements, options);

  // A read inside the first chunk that reuses or extends an earlier index
  // loads the chain's index blocks and decodes that one chunk.
  const internal::OpenedStream opened =
      internal::OpenStream(v1, /*verify=*/true);
  ASSERT_TRUE(opened.directory.has_value());
  const auto& chunks = opened.directory->chunks;
  const auto chained =
      std::find_if(chunks.begin(), chunks.end(),
                   [](const auto& entry) { return entry.index_flag != 1; });
  ASSERT_NE(chained, chunks.end())
      << "dataset unexpectedly produced per-chunk indexes";
  const std::size_t first =
      static_cast<std::size_t>(chained - chunks.begin()) * kChunkElements + 17;
  PrimacyDecodeStats stats;
  EXPECT_EQ(PrimacyDecompressor(options).DecompressRange(v1, first, 64, &stats),
            Slice(values, first, 64));
  EXPECT_EQ(stats.chunks_decoded, 1u);
  EXPECT_GE(stats.index_loads, 1u);
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

/// Range reads whose windows start and end at, just before and just after
/// every chunk edge (the stream's ends included), with lengths around the
/// assembly kernels' 8-element steps, compared against the same slice of a
/// full decode, at both widths and both linearizations.
template <typename T>
void ExpectWindowsAtEveryChunkEdgeMatch(bool cached) {
  constexpr std::size_t kEdgeChunk = 4096;
  PrimacyOptions options;
  options.precision =
      sizeof(T) == 8 ? Precision::kDouble : Precision::kSingle;
  options.chunk_bytes = kEdgeChunk * sizeof(T);
  const auto doubles = GenerateDatasetByName("num_plasma", 4 * kEdgeChunk + 777);
  const std::vector<T> values(doubles.begin(), doubles.end());
  for (const Linearization linearization :
       {Linearization::kColumn, Linearization::kRow}) {
    options.linearization = linearization;
    const Bytes stream = PrimacyCompressor(options).Compress(values);
    PrimacyOptions read_options = options;
    if (cached) {
      read_options.block_cache =
          std::make_shared<DecodedBlockCache>(16 * 1024 * 1024);
    }
    const PrimacyDecompressor decompressor(read_options);
    const std::vector<T> full = PrimacyDecompressor(options).Decompress<T>(
        stream);
    ASSERT_EQ(full, values);
    for (std::size_t edge = 0; edge <= values.size(); edge += kEdgeChunk) {
      for (const std::ptrdiff_t shift : {-9, -8, -1, 0, 1, 7, 8, 9}) {
        for (const std::size_t length : {1u, 7u, 8u, 9u, 17u, 100u}) {
          for (const bool ends_at_edge : {false, true}) {
            const std::ptrdiff_t start =
                static_cast<std::ptrdiff_t>(edge) + shift -
                (ends_at_edge ? static_cast<std::ptrdiff_t>(length) : 0);
            if (start < 0 ||
                static_cast<std::size_t>(start) + length > values.size()) {
              continue;
            }
            const auto first = static_cast<std::size_t>(start);
            PrimacyDecodeStats stats;
            EXPECT_EQ(decompressor.DecompressRange<T>(stream, first, length,
                                                      &stats),
                      std::vector<T>(full.begin() + start,
                                     full.begin() + start +
                                         static_cast<std::ptrdiff_t>(length)))
                << "first=" << first << " length=" << length
                << " width=" << sizeof(T) << " cached=" << cached;
            const std::size_t covering =
                (first + length - 1) / kEdgeChunk - first / kEdgeChunk + 1;
            EXPECT_EQ(stats.chunks_decoded + stats.cache_hits, covering);
          }
        }
      }
    }
  }
}

TEST(DecompressRangeWindowTest, UncachedWindowsAtEveryChunkEdge) {
  ExpectWindowsAtEveryChunkEdgeMatch<double>(false);
  ExpectWindowsAtEveryChunkEdgeMatch<float>(false);
}

TEST(DecompressRangeWindowTest, CachedWindowsAtEveryChunkEdge) {
  ExpectWindowsAtEveryChunkEdgeMatch<double>(true);
  ExpectWindowsAtEveryChunkEdgeMatch<float>(true);
}

/// Range reads inside the middle one of three chunks of 3 x 65,536 + 17
/// elements, whose rank column and literal ISOBAR columns each span four
/// 64 KiB literal blocks. Each window starts or ends at, one before or one
/// after an element position where a block edge falls (64 KiB steps from a
/// column's start, 64 KiB steps from the start of a call whose columns all
/// take literals, 32 Ki-element steps for kRow's ID pairs), is 1 or 1,024
/// elements long, and equals the same slice of a full decode, at both
/// widths and both linearizations.
template <typename T>
void ExpectWindowsAroundEveryBlockEdgeMatch(bool cached) {
  constexpr std::size_t kBig = 3 * 65536 + 17;
  std::set<std::size_t> edges = {kBig};
  for (std::size_t at = 0; at <= 2 * kBig; at += 65536) {
    edges.insert(at % kBig);
  }
  for (std::size_t at = 0; at <= kBig; at += 32768) edges.insert(at);
  PrimacyOptions options;
  options.precision =
      sizeof(T) == 8 ? Precision::kDouble : Precision::kSingle;
  options.chunk_bytes = kBig * sizeof(T);
  const auto doubles = GenerateDatasetByName("num_plasma", 2 * kBig + 777);
  const std::vector<T> values(doubles.begin(), doubles.end());
  for (const Linearization linearization :
       {Linearization::kColumn, Linearization::kRow}) {
    options.linearization = linearization;
    const Bytes stream = PrimacyCompressor(options).Compress(values);
    PrimacyOptions read_options = options;
    if (cached) {
      read_options.block_cache =
          std::make_shared<DecodedBlockCache>(64 * 1024 * 1024);
    }
    const PrimacyDecompressor decompressor(read_options);
    const std::vector<T> full =
        PrimacyDecompressor(options).Decompress<T>(stream);
    ASSERT_EQ(full, values);
    for (const std::size_t edge : edges) {
      for (const std::size_t at : {edge - 1, edge, edge + 1}) {
        for (const std::size_t length : {std::size_t{1}, std::size_t{1024}}) {
          for (const std::size_t offset : {at, at - length}) {
            if (offset >= kBig || length > kBig - offset) continue;
            const std::size_t first = kBig + offset;
            PrimacyDecodeStats stats;
            ASSERT_EQ(decompressor.DecompressRange<T>(stream, first, length,
                                                      &stats),
                      std::vector<T>(
                          full.begin() + static_cast<std::ptrdiff_t>(first),
                          full.begin() +
                              static_cast<std::ptrdiff_t>(first + length)))
                << "first=" << first << " length=" << length
                << " width=" << sizeof(T) << " cached=" << cached;
            EXPECT_EQ(stats.chunks_decoded + stats.cache_hits, 1u);
          }
        }
      }
    }
  }
}

TEST(DecompressRangeWindowTest, UncachedWindowsAroundEveryBlockEdge) {
  ExpectWindowsAroundEveryBlockEdgeMatch<double>(false);
  ExpectWindowsAroundEveryBlockEdgeMatch<float>(false);
}

TEST(DecompressRangeWindowTest, CachedWindowsAroundEveryBlockEdge) {
  ExpectWindowsAroundEveryBlockEdgeMatch<double>(true);
  ExpectWindowsAroundEveryBlockEdgeMatch<float>(true);
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
