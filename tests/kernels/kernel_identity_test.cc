// Property suite for the dispatched SIMD kernel layer: every kernel, on
// every ISA this machine can run, must be byte-identical to the scalar
// reference at every length — especially 0, 1, and the non-multiple-of-
// vector tails where the SIMD main loop hands over to scalar code.
//
// The suite is parameterized over the available ISAs via ForceIsa, so on an
// AVX2 host one ctest run covers scalar and AVX2; on a scalar-only build it
// degenerates to a self-check of the reference.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chunk_pipeline.h"
#include "core/frequency.h"
#include "core/id_mapper.h"
#include "deflate/deflate.h"
#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy::kernels {
namespace {

// Lengths (element counts) chosen to straddle every vector width in play:
// 8/16/32-element bodies, their off-by-one neighbours, and a few large
// non-round sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,   5,   7,   8,    9,   15,
                                16, 17, 31, 32,  33,  63,  64,   65,  100,
                                127, 128, 129, 255, 256, 1000, 4099};

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas;
  for (Isa isa : kAllIsas) {
    if (TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

/// Deterministic bytes with realistic skew: ~half the positions come from a
/// tiny alphabet (exponent-like runs exercising the run fast path), the rest
/// are uniform (mantissa-like noise exercising the mixed path).
std::vector<std::byte> TestBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t r = rng.NextU64();
    if ((r & 1u) != 0) {
      out[i] = static_cast<std::byte>(0x40u + ((r >> 8) & 3u));
    } else {
      out[i] = static_cast<std::byte>(r >> 16);
    }
  }
  return out;
}

class KernelIdentityTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!ForceIsa(GetParam())) {
      GTEST_SKIP() << "ISA " << IsaName(GetParam())
                   << " unavailable on this build/CPU";
    }
    table_ = &Active();
  }
  // Leave the process on the best ISA so later suites in the same binary
  // see default dispatch behavior.
  void TearDown() override { ForceIsa(AvailableIsas().back()); }

  const KernelTable* table_ = nullptr;
};

TEST_P(KernelIdentityTest, SplitMergeW8) {
  const KernelTable& ref = ScalarTable();
  for (const std::size_t n : kLengths) {
    const auto rows = TestBytes(n * 8, 0x517eed + n);
    std::vector<std::byte> high(n * 2), low(n * 6);
    std::vector<std::byte> ref_high(n * 2), ref_low(n * 6);
    table_->split_w8_h2(rows.data(), n, high.data(), low.data());
    ref.split_w8_h2(rows.data(), n, ref_high.data(), ref_low.data());
    EXPECT_EQ(high, ref_high) << "split high, n=" << n;
    EXPECT_EQ(low, ref_low) << "split low, n=" << n;

    std::vector<std::byte> merged(n * 8), ref_merged(n * 8);
    table_->merge_w8_h2(high.data(), low.data(), n, merged.data());
    ref.merge_w8_h2(ref_high.data(), ref_low.data(), n, ref_merged.data());
    EXPECT_EQ(merged, ref_merged) << "merge, n=" << n;
    EXPECT_EQ(merged, rows) << "merge inverts split, n=" << n;
  }
}

/// The assembly kernel of `width` (8 or 4) in `table`.
using AssembleFn = bool (*)(const std::byte*, const std::byte*, std::size_t,
                            const std::byte* const*, std::size_t,
                            const std::uint32_t*, std::uint32_t, std::byte*);
AssembleFn AssembleOf(const KernelTable& table, std::size_t width) {
  return width == 8 ? table.assemble_w8 : table.assemble_w4;
}

/// Byte-planar input for the assembly kernels: n IDs, as two planes
/// (stride 1) or as big-endian pairs (stride 2), and width - 2 mantissa
/// planes, each its own exactly sized buffer so that a read past any of
/// them is a sanitizer error.
struct Planes {
  std::size_t stride = 1;
  std::vector<std::byte> ids;
  std::vector<std::vector<std::byte>> low;
  std::vector<const std::byte*> low_ptrs;

  Planes(std::size_t n, std::size_t width, std::size_t id_stride)
      : stride(id_stride), ids(n * 2), low(width - 2) {
    for (auto& plane : low) {
      plane.resize(n);
      low_ptrs.push_back(plane.data());
    }
  }
  Planes(const Planes&) = delete;  // low_ptrs point into low
  Planes& operator=(const Planes&) = delete;
  std::size_t size() const { return ids.size() / 2; }
  const std::byte* hi() const { return ids.data(); }
  const std::byte* lo() const {
    return ids.data() + (stride == 1 ? size() : 1);
  }
  void SetId(std::size_t i, std::uint32_t id) {
    ids[i * stride] = static_cast<std::byte>(id >> 8);
    ids[(stride == 1 ? size() : 1) + i * stride] =
        static_cast<std::byte>(id & 0xff);
  }
  bool Run(AssembleFn assemble, const std::vector<std::uint32_t>& sequences,
           std::byte* out) const {
    return assemble(hi(), lo(), stride, low_ptrs.data(), size(),
                    sequences.data(),
                    static_cast<std::uint32_t>(sequences.size()), out);
  }
};

TEST_P(KernelIdentityTest, SplitMergeW4) {
  // At width 4 the decoder's merge is the assembly kernel: with the
  // identity sequence table and the split's row-linearized high pairs as
  // stride-2 IDs, it turns the split back into native elements.
  const KernelTable& ref = ScalarTable();
  std::vector<std::uint32_t> identity(65536);
  for (std::uint32_t s = 0; s < identity.size(); ++s) identity[s] = s;
  for (const std::size_t n : kLengths) {
    const auto rows = TestBytes(n * 4, 0xf10a7 + n);
    std::vector<std::byte> high(n * 2), low(n * 2);
    std::vector<std::byte> ref_high(n * 2), ref_low(n * 2);
    table_->split_w4_h2(rows.data(), n, high.data(), low.data());
    ref.split_w4_h2(rows.data(), n, ref_high.data(), ref_low.data());
    EXPECT_EQ(high, ref_high) << "split high, n=" << n;
    EXPECT_EQ(low, ref_low) << "split low, n=" << n;

    Planes planes(n, 4, 2);
    std::copy(high.begin(), high.end(), planes.ids.begin());
    for (std::size_t i = 0; i < n; ++i) {
      planes.low[0][i] = low[2 * i];
      planes.low[1][i] = low[2 * i + 1];
    }
    Bytes merged(n * 4);
    ASSERT_TRUE(planes.Run(table_->assemble_w4, identity, merged.data()));
    Bytes native(rows.begin(), rows.end());
    SwapBigEndianRows(native, 4);
    EXPECT_EQ(merged, native) << "assembly inverts split, n=" << n;
  }
}

TEST_P(KernelIdentityTest, TransposeAllWidths) {
  // The N x 2 ID matrix is the only shape the table transposes.
  const KernelTable& ref = ScalarTable();
  for (const std::size_t n : kLengths) {
    const auto rows = TestBytes(n * 2, 0x7a05e + n * 2);
    std::vector<std::byte> cols(rows.size()), ref_cols(rows.size());
    table_->row_to_col_w2(rows.data(), n, cols.data());
    ref.row_to_col_w2(rows.data(), n, ref_cols.data());
    EXPECT_EQ(cols, ref_cols) << "row_to_col n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cols[i], rows[2 * i]) << "n=" << n << " i=" << i;
      ASSERT_EQ(cols[n + i], rows[2 * i + 1]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(KernelIdentityTest, AssembleMatchesScalarAtEveryLength) {
  // Every length 0-70 covers the empty call, every tail of the first
  // vector steps and the stride-2 body's one-element reach; the large
  // lengths cover every tail after a long vector body, over the largest
  // table (every 16-bit ID in range).
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  for (std::size_t tail = 0; tail < 16; ++tail) lengths.push_back(4096 + tail);
  const KernelTable& ref = ScalarTable();
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}}) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t n : lengths) {
        Rng rng(0xa55e + n * 16 + width * 2 + stride);
        std::vector<std::uint32_t> sequences(n > 70 ? 65536 : 300);
        for (auto& s : sequences) {
          s = static_cast<std::uint32_t>(rng.NextU64() & 0xffff);
        }
        Planes planes(n, width, stride);
        for (std::size_t i = 0; i < n; ++i) {
          planes.SetId(i, static_cast<std::uint32_t>(
                              rng.NextU64() % sequences.size()));
        }
        for (auto& plane : planes.low) {
          const auto bytes = TestBytes(n, rng.NextU64());
          std::copy(bytes.begin(), bytes.end(), plane.begin());
        }
        Bytes out(n * width), ref_out(n * width);
        ASSERT_TRUE(planes.Run(AssembleOf(*table_, width), sequences,
                               out.data()));
        ASSERT_TRUE(planes.Run(AssembleOf(ref, width), sequences,
                               ref_out.data()));
        EXPECT_EQ(out, ref_out)
            << "width=" << width << " stride=" << stride << " n=" << n;

        // The contract, built independently: big-endian rows, byteswapped.
        Bytes rows(n * width);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t id =
              (static_cast<std::size_t>(planes.hi()[i * stride]) << 8) |
              static_cast<std::size_t>(planes.lo()[i * stride]);
          rows[i * width] = static_cast<std::byte>(sequences[id] >> 8);
          rows[i * width + 1] = static_cast<std::byte>(sequences[id] & 0xff);
          for (std::size_t c = 0; c + 2 < width; ++c) {
            rows[i * width + 2 + c] = planes.low[c][i];
          }
        }
        SwapBigEndianRows(rows, width);
        EXPECT_EQ(out, rows)
            << "width=" << width << " stride=" << stride << " n=" << n;
      }
    }
  }
}

TEST_P(KernelIdentityTest, AssembleRejectsIdBeyondTable) {
  // One ID at `bad` is the table size itself (the first out-of-range ID)
  // or 0xffff: first, inside the vector body, in the scalar tail, last.
  const KernelTable& ref = ScalarTable();
  const std::vector<std::uint32_t> sequences(100, 0x3ff0);
  for (const std::size_t width : {std::size_t{8}, std::size_t{4}}) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t n : {std::size_t{40}, std::size_t{1001}}) {
        for (const std::size_t bad : {std::size_t{0}, std::size_t{5},
                                      std::size_t{17}, n / 2, n - 3,
                                      n - 1}) {
          for (const std::uint32_t bad_id : {100u, 0xffffu}) {
            Planes planes(n, width, stride);
            for (std::size_t i = 0; i < n; ++i) {
              planes.SetId(i, static_cast<std::uint32_t>(i % 100));
            }
            planes.SetId(bad, bad_id);
            Bytes out(n * width);
            EXPECT_FALSE(planes.Run(AssembleOf(*table_, width), sequences,
                                    out.data()))
                << "width=" << width << " stride=" << stride << " n=" << n
                << " bad=" << bad << " id=" << bad_id;
            EXPECT_FALSE(planes.Run(AssembleOf(ref, width), sequences,
                                    out.data()))
                << "scalar, width=" << width << " stride=" << stride
                << " n=" << n << " bad=" << bad << " id=" << bad_id;
            planes.SetId(bad, 99);
            EXPECT_TRUE(planes.Run(AssembleOf(*table_, width), sequences,
                                   out.data()))
                << "width=" << width << " stride=" << stride << " n=" << n
                << " bad=" << bad;
          }
        }
      }
      // An empty table rejects every ID, through the vector body too; an
      // empty call succeeds.
      Planes planes(40, width, stride);
      Bytes out(40 * width);
      EXPECT_FALSE(planes.Run(AssembleOf(*table_, width), {}, out.data()));
      EXPECT_TRUE(Planes(0, width, stride)
                      .Run(AssembleOf(*table_, width), {}, out.data()));
    }
  }
}

TEST_P(KernelIdentityTest, CountPairs) {
  const KernelTable& ref = ScalarTable();
  for (const std::size_t n : kLengths) {
    const auto pairs = TestBytes(n * 2, 0xc0047 + n);
    std::vector<std::uint32_t> counts(65536, 0), ref_counts(65536, 0);
    table_->count_pairs(pairs.data(), n, counts.data());
    ref.count_pairs(pairs.data(), n, ref_counts.data());
    EXPECT_EQ(counts, ref_counts) << "count_pairs, n=" << n;
  }
  // A pure run (the vector fast path end to end) and accumulation on top of
  // non-zero counts.
  std::vector<std::byte> run(2 * 333);
  for (std::size_t i = 0; i < run.size(); i += 2) {
    run[i] = std::byte{0x3f};
    run[i + 1] = std::byte{0xf0};
  }
  std::vector<std::uint32_t> counts(65536, 7), ref_counts(65536, 7);
  table_->count_pairs(run.data(), 333, counts.data());
  ref.count_pairs(run.data(), 333, ref_counts.data());
  EXPECT_EQ(counts, ref_counts);
  EXPECT_EQ(counts[0x3ff0], 7u + 333u);
}

TEST_P(KernelIdentityTest, MapUnmapIds) {
  const KernelTable& ref = ScalarTable();
  for (const std::size_t n : kLengths) {
    // Build an index covering exactly the sequences present in the input.
    const auto pairs = TestBytes(n * 2, 0x1d5 + n);
    const IdIndex index = IdIndex::FromFrequency(AnalyzePairFrequency(
        ByteSpan(pairs.data(), pairs.size())));
    const auto table_size = static_cast<std::uint32_t>(index.size());

    std::vector<std::byte> ids(n * 2), ref_ids(n * 2);
    ASSERT_TRUE(table_->map_ids16(pairs.data(), n, index.ids_table(),
                                  ids.data()));
    ASSERT_TRUE(ref.map_ids16(pairs.data(), n, index.ids_table(),
                              ref_ids.data()));
    EXPECT_EQ(ids, ref_ids) << "map, n=" << n;

    std::vector<std::byte> seqs(n * 2), ref_seqs(n * 2);
    ASSERT_TRUE(table_->unmap_ids16(ids.data(), n,
                                    index.sequences_u32().data(), table_size,
                                    seqs.data()));
    ASSERT_TRUE(ref.unmap_ids16(ref_ids.data(), n,
                                index.sequences_u32().data(), table_size,
                                ref_seqs.data()));
    EXPECT_EQ(seqs, ref_seqs) << "unmap, n=" << n;
    EXPECT_EQ(seqs, pairs) << "unmap inverts map, n=" << n;

    // In-place unmap (out == in) must match the out-of-place result.
    std::vector<std::byte> inplace = ids;
    ASSERT_TRUE(table_->unmap_ids16(inplace.data(), n,
                                    index.sequences_u32().data(), table_size,
                                    inplace.data()));
    EXPECT_EQ(inplace, seqs) << "in-place unmap, n=" << n;
  }
}

TEST_P(KernelIdentityTest, MapUnmapFailureDetection) {
  // A 40-pair buffer whose only unmapped/out-of-range entry sits at position
  // `bad`: positions inside the vector body and inside the scalar tail must
  // both be caught.
  constexpr std::size_t kN = 40;
  std::vector<std::uint16_t> mapped;
  for (std::uint16_t s = 0; s < 100; ++s) mapped.push_back(s);
  const IdIndex index = IdIndex::FromSequences(mapped);
  const auto table_size = static_cast<std::uint32_t>(index.size());

  for (const std::size_t bad : {std::size_t{0}, std::size_t{5},
                                std::size_t{17}, std::size_t{33},
                                std::size_t{39}}) {
    std::vector<std::byte> pairs(kN * 2, std::byte{0});
    for (std::size_t i = 0; i < kN; ++i) {
      pairs[2 * i] = std::byte{0};
      pairs[2 * i + 1] = static_cast<std::byte>(i % 100);
    }
    // An unmapped sequence for map (0x7b00 > 99) doubles as an
    // out-of-range ID for unmap.
    pairs[2 * bad] = std::byte{0x7b};
    std::vector<std::byte> out(kN * 2);
    EXPECT_FALSE(table_->map_ids16(pairs.data(), kN, index.ids_table(),
                                   out.data()))
        << "map missed bad entry at " << bad;
    EXPECT_FALSE(table_->unmap_ids16(pairs.data(), kN,
                                     index.sequences_u32().data(), table_size,
                                     out.data()))
        << "unmap missed bad entry at " << bad;
  }

  // Empty index: any lookup fails, including through the vector body.
  const IdIndex empty = IdIndex::FromSequences({});
  std::vector<std::byte> pairs(kN * 2, std::byte{0});
  std::vector<std::byte> out(kN * 2);
  EXPECT_FALSE(table_->map_ids16(pairs.data(), kN, empty.ids_table(),
                                 out.data()));
  EXPECT_FALSE(table_->unmap_ids16(pairs.data(), kN,
                                   empty.sequences_u32().data(), 0,
                                   out.data()));
}

TEST_P(KernelIdentityTest, HistogramStride) {
  const KernelTable& ref = ScalarTable();
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}, std::size_t{13}}) {
    for (const std::size_t count : kLengths) {
      const auto data = TestBytes(count * stride + 1, 0x415 + count * stride);
      std::vector<std::uint64_t> hist(256, 3), ref_hist(256, 3);
      table_->histogram_stride(data.data(), count, stride, hist.data());
      ref.histogram_stride(data.data(), count, stride, ref_hist.data());
      EXPECT_EQ(hist, ref_hist)
          << "histogram, count=" << count << " stride=" << stride;
    }
  }
}

TEST_P(KernelIdentityTest, PublicApiRoutesThroughForcedIsa) {
  // End-to-end sanity through the public byte_matrix / id_mapper / chunk
  // pipeline APIs under the forced ISA.
  const std::size_t n = 1001;
  for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
    const auto rows = TestBytes(n * width, 0xab1de + width);
    const SplitBytes split =
        SplitHighLow(ByteSpan(rows.data(), rows.size()), width);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < width; ++c) {
        ASSERT_EQ(c < 2 ? split.high[i * 2 + c]
                        : split.low[i * (width - 2) + c - 2],
                  rows[i * width + c])
            << "width=" << width << " i=" << i << " c=" << c;
      }
    }
  }

  const auto rows = TestBytes(n * 8, 0xab1de);
  const SplitBytes split =
      SplitHighLow(ByteSpan(rows.data(), rows.size()), 8);
  const Bytes cols = RowToColumn(split.high);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(cols[i], split.high[2 * i]) << i;
    ASSERT_EQ(cols[n + i], split.high[2 * i + 1]) << i;
  }
  const IdIndex index =
      IdIndex::FromFrequency(AnalyzePairFrequency(split.high));
  const Bytes ids = MapToIds(split.high, index, Linearization::kRow);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(
        (static_cast<unsigned>(ids[2 * i]) << 8) |
        static_cast<unsigned>(ids[2 * i + 1]));
    ASSERT_EQ(index.SequenceOf(id),
              (static_cast<unsigned>(split.high[2 * i]) << 8) |
                  static_cast<unsigned>(split.high[2 * i + 1]))
        << i;
  }

  // A chunk round trip: the decoder assembles through the forced table.
  const DeflateCodec solver;
  for (const Precision precision : {Precision::kDouble, Precision::kSingle}) {
    for (const Linearization linearization :
         {Linearization::kColumn, Linearization::kRow}) {
      PrimacyOptions options;
      options.precision = precision;
      options.linearization = linearization;
      const std::size_t width = ElementWidth(precision);
      const auto chunk = TestBytes(n * width, 0xc4a0 + width);
      Bytes record;
      ChunkEncoder(options, solver)
          .EncodeChunk(ByteSpan(chunk.data(), chunk.size()), record);
      ByteReader reader(record);
      const std::uint64_t count = reader.GetVarint();
      Bytes restored(static_cast<std::size_t>(count) * width);
      ChunkDecoder(solver, linearization, width)
          .DecodeChunkInto(reader, count, 0, restored);
      EXPECT_TRUE(std::equal(restored.begin(), restored.end(), chunk.begin(),
                             chunk.end()))
          << "width=" << width;
    }
  }
}

TEST_P(KernelIdentityTest, ExactErrorsSurviveKernelPath) {
  std::vector<std::uint16_t> mapped = {0x3ff0};
  const IdIndex index = IdIndex::FromSequences(mapped);
  const std::vector<std::byte> unknown = {std::byte{0x12}, std::byte{0x34}};
  EXPECT_THROW(MapToIds(ByteSpan(unknown.data(), unknown.size()), index,
                        Linearization::kRow),
               InvalidArgumentError);
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelIdentityTest, ::testing::ValuesIn(AvailableIsas()),
    [](const ::testing::TestParamInfo<Isa>& param_info) {
      return std::string(IsaName(param_info.param));
    });

TEST(KernelDispatchTest, ActiveMatchesForcedIsa) {
  for (Isa isa : AvailableIsas()) {
    ASSERT_TRUE(ForceIsa(isa));
    EXPECT_EQ(ActiveIsa(), isa);
    EXPECT_EQ(&Active(), TableFor(isa));
  }
  EXPECT_FALSE(ForceIsa(static_cast<Isa>(0x7f)));
}

TEST(KernelDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
}

}  // namespace
}  // namespace primacy::kernels
