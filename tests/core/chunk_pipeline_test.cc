// Direct tests of the shared chunk pipeline plus the chunk-parallel
// compression path built on it.
#include "core/chunk_pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/id_mapper.h"
#include "datasets/datasets.h"
#include "deflate/deflate.h"
#include "isobar/partitioned_codec.h"
#include "kernels/kernels.h"
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
  Bytes restored(static_cast<std::size_t>(count) * 8);
  decoder.DecodeChunkInto(reader, count, 0, restored);
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
  const Bytes record(4);
  ByteReader reader(record);
  EXPECT_THROW(decoder.DecodeChunkInto(reader, 0, 0, out), CorruptStreamError);
}

TEST(ChunkPipelineTest, DecoderRejectsBadWidth) {
  const DeflateCodec solver;
  EXPECT_THROW(ChunkDecoder(solver, Linearization::kColumn, 5),
               InvalidArgumentError);
}

/// A hand-built chunk record: the element count, a full index, the ID
/// bytes as given (deflated), and an ISOBAR stream of zero mantissa bytes.
Bytes HandBuiltRecord(const IdIndex& index, const Bytes& id_bytes,
                      std::size_t width, const Codec& solver) {
  const std::size_t count = id_bytes.size() / 2;
  Bytes record;
  PutVarint(record, count);
  PutU8(record, 1);
  PutBlock(record, SerializeIndex(index));
  PutBlock(record, solver.Compress(id_bytes));
  PutBlock(record, IsobarCompress(Bytes(count * (width - 2)), width - 2,
                                  solver)
                       .stream);
  return record;
}

/// ID bytes for `ids` laid out per `linearization`.
Bytes IdBytes(const std::vector<std::uint16_t>& ids,
              Linearization linearization) {
  const std::size_t n = ids.size();
  Bytes out(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto hi = static_cast<std::byte>(ids[i] >> 8);
    const auto lo = static_cast<std::byte>(ids[i] & 0xff);
    if (linearization == Linearization::kColumn) {
      out[i] = hi;
      out[n + i] = lo;
    } else {
      out[2 * i] = hi;
      out[2 * i + 1] = lo;
    }
  }
  return out;
}

/// Decodes `record` whole (first = 0) or from element `first` into `out`.
void DecodeRecord(ChunkDecoder& decoder, const Bytes& record,
                  std::uint64_t first, MutableByteSpan out) {
  ByteReader reader(record);
  const std::uint64_t count = reader.GetVarint();
  decoder.DecodeChunkInto(reader, count, first, out);
}

TEST(ChunkDecoderTest, IdBeyondIndexRejected) {
  // The index has IDs 0 and 1; one element's ID is 2 (the first one past
  // it) or 0x0100 (high byte set): first, mid-chunk and last, under every
  // kernel ISA, both widths and both linearizations. The same record with
  // that ID in range decodes to the index's sequences.
  const DeflateCodec solver;
  const IdIndex index = IdIndex::FromSequences({0x3ff0, 0xc001});
  constexpr std::size_t kCount = 1000;
  const kernels::Isa active = kernels::ActiveIsa();
  for (const kernels::Isa isa : kernels::kAllIsas) {
    if (!kernels::ForceIsa(isa)) continue;
    for (const std::size_t width : {std::size_t{8}, std::size_t{4}}) {
      for (const Linearization linearization :
           {Linearization::kColumn, Linearization::kRow}) {
        ChunkDecoder decoder(solver, linearization, width);
        Bytes out(kCount * width);
        for (const std::size_t bad : {std::size_t{0}, kCount / 2,
                                      kCount - 1}) {
          for (const std::uint16_t bad_id : {std::uint16_t{2},
                                             std::uint16_t{0x0100}}) {
            std::vector<std::uint16_t> ids(kCount);
            for (std::size_t i = 0; i < kCount; ++i) {
              ids[i] = static_cast<std::uint16_t>(i % 2);
            }
            ids[bad] = bad_id;
            const Bytes record = HandBuiltRecord(
                index, IdBytes(ids, linearization), width, solver);
            try {
              DecodeRecord(decoder, record, 0, out);
              ADD_FAILURE() << kernels::IsaName(isa) << " width=" << width
                            << " bad=" << bad << " id=" << bad_id
                            << ": no error";
            } catch (const CorruptStreamError& e) {
              EXPECT_NE(std::string(e.what()).find("ID beyond index"),
                        std::string::npos)
                  << e.what();
            }
            // A window holding the bad element rejects it too.
            const std::size_t first = bad >= 9 ? bad - 9 : 0;
            EXPECT_THROW(DecodeRecord(decoder, record, first,
                                      MutableByteSpan(out).first(10 * width)),
                         CorruptStreamError);
            ids[bad] = 1;
            DecodeRecord(decoder,
                         HandBuiltRecord(index, IdBytes(ids, linearization),
                                         width, solver),
                         0, out);
            // The element's top 16 bits are ID 1's sequence.
            std::uint64_t element = 0;
            std::memcpy(&element, out.data() + bad * width, width);
            EXPECT_EQ(element >> (8 * (width - 2)), 0xc001u);
          }
        }
      }
    }
  }
  kernels::ForceIsa(active);
}

TEST(ChunkDecoderTest, WindowsMatchTheWholeChunk) {
  // Every window start and length around the kernels' 8-element steps and
  // the chunk's ends equals the same slice of the whole chunk, at both
  // widths and both linearizations.
  const DeflateCodec solver;
  constexpr std::size_t kCount = 100;
  for (const Precision precision : {Precision::kDouble, Precision::kSingle}) {
    for (const Linearization linearization :
         {Linearization::kColumn, Linearization::kRow}) {
      PrimacyOptions options;
      options.precision = precision;
      options.linearization = linearization;
      const std::size_t width = ElementWidth(precision);
      const auto values = GenerateDatasetByName("num_plasma", kCount);
      const std::vector<float> floats(values.begin(), values.end());
      const Bytes chunk =
          width == 8 ? NativeBytes(values) : ToBytes(AsBytes(floats));
      Bytes record;
      ChunkEncoder(options, solver).EncodeChunk(chunk, record);
      ChunkDecoder decoder(solver, linearization, width);
      for (std::size_t first = 0; first < kCount; ++first) {
        for (std::size_t length = 0; first + length <= kCount; ++length) {
          Bytes out(length * width);
          DecodeRecord(decoder, record, first, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                 chunk.begin() + static_cast<std::ptrdiff_t>(
                                                     first * width)))
              << "width=" << width << " first=" << first
              << " length=" << length;
        }
      }
      // A window reaching past the chunk's last element is damage, not a
      // short read.
      Bytes out(2 * width);
      EXPECT_THROW(DecodeRecord(decoder, record, kCount - 1, out),
                   CorruptStreamError);
      EXPECT_THROW(DecodeRecord(decoder, record, kCount, {}),
                   CorruptStreamError);
    }
  }
}

/// DeflateCodec, recording the window of every DecompressWindow call as
/// (column_bytes, first, count).
class WindowRecordingSolver final : public Codec {
 public:
  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override {
    return inner_.Compress(data);
  }
  Bytes CompressAdaptive(ByteSpan data,
                         std::size_t column_bytes) const override {
    return inner_.CompressAdaptive(data, column_bytes);
  }
  Bytes Decompress(ByteSpan data) const override {
    windows.push_back({0, 0, 0});  // marks a whole-data decode
    return inner_.Decompress(data);
  }
  Bytes DecompressWindow(ByteSpan data, std::size_t column_bytes,
                         std::size_t first,
                         std::size_t count) const override {
    windows.push_back({column_bytes, first, count});
    return inner_.DecompressWindow(data, column_bytes, first, count);
  }

  mutable std::vector<std::array<std::size_t, 3>> windows;

 private:
  DeflateCodec inner_;
};

TEST(ChunkDecoderTest, MultiBlockWindowsMatchTheWholeChunk) {
  // 3 x 65,536 + 17 elements: num_plasma's rank column and literal ISOBAR
  // columns each span four 64 KiB literal blocks, so windows near a block
  // edge need one or two of them. The edges, as element positions: 64 KiB
  // steps from a column's start, 64 KiB steps from the start of a call
  // whose columns all take literals (these fall inside the next column),
  // and 32 Ki-element steps for kRow's ID pairs. Each window starts or ends
  // at, one before or one after an edge, is 1 or 1,024 elements long, and
  // equals the same slice of the whole chunk, at both widths and both
  // linearizations; both inflates get the window.
  constexpr std::size_t kCount = 3 * 65536 + 17;
  std::set<std::size_t> edges = {kCount};
  for (std::size_t at = 0; at <= 2 * kCount; at += 65536) {
    edges.insert(at % kCount);
  }
  for (std::size_t at = 0; at <= kCount; at += 32768) edges.insert(at);
  const auto doubles = GenerateDatasetByName("num_plasma", kCount);
  const std::vector<float> floats(doubles.begin(), doubles.end());
  for (const Precision precision : {Precision::kDouble, Precision::kSingle}) {
    for (const Linearization linearization :
         {Linearization::kColumn, Linearization::kRow}) {
      PrimacyOptions options;
      options.precision = precision;
      options.linearization = linearization;
      const std::size_t width = ElementWidth(precision);
      const Bytes chunk =
          width == 8 ? NativeBytes(doubles) : ToBytes(AsBytes(floats));
      const WindowRecordingSolver solver;
      Bytes record;
      ChunkEncoder(options, solver).EncodeChunk(chunk, record);
      ChunkDecoder decoder(solver, linearization, width);
      Bytes whole(chunk.size());
      DecodeRecord(decoder, record, 0, whole);
      ASSERT_EQ(whole, chunk);
      for (const std::size_t edge : edges) {
        for (const std::size_t at : {edge - 1, edge, edge + 1}) {
          for (const std::size_t length : {std::size_t{1}, std::size_t{1024}}) {
            for (const std::size_t first : {at, at - length}) {
              if (first >= kCount || length > kCount - first) continue;
              Bytes out(length * width);
              solver.windows.clear();
              DecodeRecord(decoder, record, first, out);
              ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                     chunk.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             first * width)))
                  << "width=" << width << " first=" << first
                  << " length=" << length;
              const std::array<std::size_t, 3> ids =
                  linearization == Linearization::kColumn
                      ? std::array<std::size_t, 3>{kCount, first, length}
                      : std::array<std::size_t, 3>{0, 2 * first, 2 * length};
              const std::array<std::size_t, 3> isobar{kCount, first, length};
              ASSERT_EQ(solver.windows,
                        (std::vector<std::array<std::size_t, 3>>{ids, isobar}));
            }
          }
        }
      }
    }
  }
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
