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

#include "core/frequency.h"
#include "core/id_mapper.h"
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

TEST_P(KernelIdentityTest, SplitMergeW4) {
  const KernelTable& ref = ScalarTable();
  for (const std::size_t n : kLengths) {
    const auto rows = TestBytes(n * 4, 0xf10a7 + n);
    std::vector<std::byte> high(n * 2), low(n * 2);
    std::vector<std::byte> ref_high(n * 2), ref_low(n * 2);
    table_->split_w4_h2(rows.data(), n, high.data(), low.data());
    ref.split_w4_h2(rows.data(), n, ref_high.data(), ref_low.data());
    EXPECT_EQ(high, ref_high) << "split high, n=" << n;
    EXPECT_EQ(low, ref_low) << "split low, n=" << n;

    std::vector<std::byte> merged(n * 4), ref_merged(n * 4);
    table_->merge_w4_h2(high.data(), low.data(), n, merged.data());
    ref.merge_w4_h2(ref_high.data(), ref_low.data(), n, ref_merged.data());
    EXPECT_EQ(merged, ref_merged) << "merge, n=" << n;
    EXPECT_EQ(merged, rows) << "merge inverts split, n=" << n;
  }
}

TEST_P(KernelIdentityTest, TransposeAllWidths) {
  const KernelTable& ref = ScalarTable();
  struct Shape {
    std::size_t width;
    void (*KernelTable::* fwd)(const std::byte*, std::size_t, std::byte*);
    void (*KernelTable::* inv)(const std::byte*, std::size_t, std::byte*);
  };
  const Shape shapes[] = {
      {2, &KernelTable::row_to_col_w2, &KernelTable::col_to_row_w2},
      {4, &KernelTable::row_to_col_w4, &KernelTable::col_to_row_w4},
      {8, &KernelTable::row_to_col_w8, &KernelTable::col_to_row_w8},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t n : kLengths) {
      const auto rows = TestBytes(n * shape.width, 0x7a05e + n * shape.width);
      std::vector<std::byte> cols(rows.size()), ref_cols(rows.size());
      (table_->*shape.fwd)(rows.data(), n, cols.data());
      (ref.*shape.fwd)(rows.data(), n, ref_cols.data());
      EXPECT_EQ(cols, ref_cols)
          << "row_to_col w=" << shape.width << " n=" << n;

      std::vector<std::byte> back(rows.size()), ref_back(rows.size());
      (table_->*shape.inv)(cols.data(), n, back.data());
      (ref.*shape.inv)(ref_cols.data(), n, ref_back.data());
      EXPECT_EQ(back, ref_back)
          << "col_to_row w=" << shape.width << " n=" << n;
      EXPECT_EQ(back, rows)
          << "transpose round-trip w=" << shape.width << " n=" << n;
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
  // End-to-end sanity through the public byte_matrix / id_mapper APIs under
  // the forced ISA: same results as the scalar reference path computes.
  const std::size_t n = 1001;
  const auto rows = TestBytes(n * 8, 0xab1de);
  const SplitBytes split = SplitHighLow(ByteSpan(rows.data(), rows.size()),
                                        8, 2);
  const Bytes merged = MergeHighLow(split.high, split.low, 8, 2);
  EXPECT_TRUE(std::equal(merged.begin(), merged.end(), rows.begin()));

  const Bytes cols = RowToColumn(ByteSpan(rows.data(), rows.size()), 8);
  const Bytes back = ColumnToRow(cols, 8);
  EXPECT_TRUE(std::equal(back.begin(), back.end(), rows.begin()));

  const IdIndex index =
      IdIndex::FromFrequency(AnalyzePairFrequency(split.high));
  const Bytes ids = MapToIds(split.high, index, Linearization::kColumn);
  const Bytes seqs = MapFromIds(ids, index, Linearization::kColumn);
  EXPECT_TRUE(std::equal(seqs.begin(), seqs.end(), split.high.begin()));
}

TEST_P(KernelIdentityTest, ExactErrorsSurviveKernelPath) {
  std::vector<std::uint16_t> mapped = {0x3ff0};
  const IdIndex index = IdIndex::FromSequences(mapped);
  const std::vector<std::byte> unknown = {std::byte{0x12}, std::byte{0x34}};
  EXPECT_THROW(MapToIds(ByteSpan(unknown.data(), unknown.size()), index,
                        Linearization::kRow),
               InvalidArgumentError);
  const std::vector<std::byte> big_id = {std::byte{0x00}, std::byte{0x05}};
  EXPECT_THROW(MapFromIds(ByteSpan(big_id.data(), big_id.size()), index,
                          Linearization::kRow),
               CorruptStreamError);
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
