// AVX2 kernel variants. Compiled with -mavx2 for this translation unit only;
// dispatch.cc guarantees these run only after __builtin_cpu_supports("avx2").
//
// Every kernel hands its sub-vector remainder to the scalar reference
// (scalar_impl.h) or to the same per-element loop, so outputs are
// byte-identical to scalar at every length.
#include "kernels/tables.h"

#if PRIMACY_SIMD_ENABLED

#include <immintrin.h>

#include <cstring>

#include "kernels/scalar_impl.h"

namespace primacy::kernels {
namespace {

inline __m256i Load(const std::byte* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void Store(std::byte* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m128i Load128(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void Store128(std::byte* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

void SplitW8H2(const std::byte* rows, std::size_t n, std::byte* high,
               std::byte* low) {
  // Per 4-row tile: group [high(4) low(12)] per lane, then compact the two
  // high dwords to the front so one 8-byte and one 16+8-byte store finish
  // the tile.
  const __m256i group = _mm256_setr_epi8(
      0, 1, 8, 9, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15,  //
      0, 1, 8, 9, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15);
  const __m256i compact = _mm256_setr_epi32(0, 4, 1, 2, 3, 5, 6, 7);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(Load(rows + 8 * i), group), compact);
    const __m128i x0 = _mm256_castsi256_si128(v);
    const __m128i x1 = _mm256_extracti128_si256(v, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(high + 2 * i), x0);
    Store128(low + 6 * i, _mm_alignr_epi8(x1, x0, 8));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(low + 6 * i + 16),
                     _mm_srli_si128(x1, 8));
  }
  scalar::SplitW8H2(rows + 8 * i, n - i, high + 2 * i, low + 6 * i);
}

void MergeW8H2(const std::byte* high, const std::byte* low, std::size_t n,
               std::byte* rows) {
  // Per 4-row tile: an 8-byte high load + a 32-byte low load (24 used), the
  // low halves routed to their lane, then one blend shuffle per source.
  const __m256i low_route = _mm256_setr_epi32(0, 1, 2, 0, 3, 4, 5, 0);
  const __m256i high_pick = _mm256_setr_epi8(
      0, 1, -1, -1, -1, -1, -1, -1, 2, 3, -1, -1, -1, -1, -1, -1,  //
      4, 5, -1, -1, -1, -1, -1, -1, 6, 7, -1, -1, -1, -1, -1, -1);
  const __m256i low_pick = _mm256_setr_epi8(
      -1, -1, 0, 1, 2, 3, 4, 5, -1, -1, 6, 7, 8, 9, 10, 11,  //
      -1, -1, 0, 1, 2, 3, 4, 5, -1, -1, 6, 7, 8, 9, 10, 11);
  std::size_t i = 0;
  // The 32-byte low load needs 6 rows of low bytes ahead; the last tiles go
  // scalar.
  for (; i + 6 <= n; i += 4) {
    const __m128i xh =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(high + 2 * i));
    const __m256i h = _mm256_set_m128i(xh, xh);
    const __m256i l = _mm256_permutevar8x32_epi32(Load(low + 6 * i), low_route);
    Store(rows + 8 * i, _mm256_or_si256(_mm256_shuffle_epi8(h, high_pick),
                                        _mm256_shuffle_epi8(l, low_pick)));
  }
  scalar::MergeW8H2(high + 2 * i, low + 6 * i, n - i, rows + 8 * i);
}

void SplitW4H2(const std::byte* rows, std::size_t n, std::byte* high,
               std::byte* low) {
  // Per 8-row tile: [high(8) low(8)] per lane, qword permute gathers the
  // 16 high bytes and 16 low bytes into two 16-byte stores.
  const __m256i group = _mm256_setr_epi8(
      0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15,  //
      0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_permute4x64_epi64(
        _mm256_shuffle_epi8(Load(rows + 4 * i), group), 0xD8);
    Store128(high + 2 * i, _mm256_castsi256_si128(v));
    Store128(low + 2 * i, _mm256_extracti128_si256(v, 1));
  }
  scalar::SplitW4H2(rows + 4 * i, n - i, high + 2 * i, low + 2 * i);
}

void CountPairs(const std::byte* pairs, std::size_t n_pairs,
                std::uint32_t* counts) {
  // High-byte pairs are exponent bytes: long runs of one value dominate
  // real chunks. A 16-pair block that is all one value costs a single
  // compare + one counter add; mixed blocks fall back to the scalar loop.
  std::size_t i = 0;
  for (; i + 16 <= n_pairs; i += 16) {
    const __m256i v = Load(pairs + 2 * i);
    const __m256i first = _mm256_broadcastw_epi16(_mm256_castsi256_si128(v));
    const int eq = _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, first));
    if (eq == -1) {
      const auto hi = static_cast<std::uint32_t>(pairs[2 * i]);
      const auto lo = static_cast<std::uint32_t>(pairs[2 * i + 1]);
      counts[(hi << 8) | lo] += 16;
    } else {
      scalar::CountPairs(pairs + 2 * i, 16, counts);
    }
  }
  scalar::CountPairs(pairs + 2 * i, n_pairs - i, counts);
}

/// Loads 8 big-endian u16 values as zero-extended u32 lane indices.
inline __m256i LoadIndicesBe16(const std::byte* p) {
  const __m128i raw = Load128(p);
  const __m128i native =
      _mm_or_si128(_mm_slli_epi16(raw, 8), _mm_srli_epi16(raw, 8));
  return _mm256_cvtepu16_epi32(native);
}

/// Packs the low u16 of each u32 lane back to 8 big-endian u16 values.
inline __m128i PackBe16(__m256i values) {
  const __m256i be = _mm256_shuffle_epi8(
      values, _mm256_setr_epi8(1, 0, 5, 4, 9, 8, 13, 12, -1, -1, -1, -1, -1,
                               -1, -1, -1, 1, 0, 5, 4, 9, 8, 13, 12, -1, -1,
                               -1, -1, -1, -1, -1, -1));
  return _mm_unpacklo_epi64(_mm256_castsi256_si128(be),
                            _mm256_extracti128_si256(be, 1));
}

bool MapIds16(const std::byte* pairs, std::size_t n_pairs,
              const std::uint32_t* ids, std::byte* out) {
  std::size_t i = 0;
  for (; i + 8 <= n_pairs; i += 8) {
    const __m256i idx = LoadIndicesBe16(pairs + 2 * i);
    const __m256i g = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(ids), idx, 4);
    if (_mm256_movemask_epi8(
            _mm256_cmpeq_epi32(g, _mm256_set1_epi32(-1))) != 0) {
      return false;
    }
    Store128(out + 2 * i, PackBe16(g));
  }
  return scalar::MapIds16(pairs + 2 * i, n_pairs - i, ids, out + 2 * i);
}

bool UnmapIds16(const std::byte* ids_bytes, std::size_t n_pairs,
                const std::uint32_t* sequences, std::uint32_t table_size,
                std::byte* out) {
  // limit = table_size - 1 wraps to -1 for an empty table, which correctly
  // flags every index (all >= 0) as out of range.
  const __m256i limit =
      _mm256_set1_epi32(static_cast<std::int32_t>(table_size) - 1);
  std::size_t i = 0;
  for (; i + 8 <= n_pairs; i += 8) {
    const __m256i idx = LoadIndicesBe16(ids_bytes + 2 * i);
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi32(idx, limit)) != 0) {
      return false;
    }
    const __m256i g = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(sequences), idx, 4);
    Store128(out + 2 * i, PackBe16(g));
  }
  return scalar::UnmapIds16(ids_bytes + 2 * i, n_pairs - i, sequences,
                            table_size, out + 2 * i);
}

inline __m128i Load64(const std::byte* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

/// Loads 8 IDs, hi[k * kStride] << 8 | lo[k * kStride] for k in [0, 8), as
/// u32 lanes. At stride 2 each pointer gets a 16-byte load, which reads one
/// byte past its eighth ID byte.
template <std::size_t kStride>
inline __m256i LoadIds(const std::byte* hi, const std::byte* lo) {
  if constexpr (kStride == 1) {
    return _mm256_cvtepu16_epi32(_mm_unpacklo_epi8(Load64(lo), Load64(hi)));
  } else {
    const __m128i mask = _mm_set1_epi16(0x00ff);
    const __m128i h = _mm_and_si128(Load128(hi), mask);
    const __m128i l = _mm_and_si128(Load128(lo), mask);
    return _mm256_cvtepu16_epi32(_mm_or_si128(_mm_slli_epi16(h, 8), l));
  }
}

/// The assembly kernels, 8 elements per step: range-check the IDs and
/// gather their sequences as UnmapIds16 does, then interleave the sequence
/// and mantissa bytes into little-endian elements with unpacks, as a byte
/// transpose. Element i's memory bytes run low[W-3][i] ... low[0][i], then
/// the sequence's low byte and its high byte.
template <typename Element, std::size_t kStride>
bool Assemble(const std::byte* hi, const std::byte* lo,
              const std::byte* const* low, std::size_t n,
              const std::uint32_t* sequences, std::uint32_t table_size,
              std::byte* out) {
  constexpr std::size_t kWidth = sizeof(Element);
  // limit = table_size - 1 wraps to -1 for an empty table, which flags
  // every ID as out of range.
  const __m256i limit =
      _mm256_set1_epi32(static_cast<std::int32_t>(table_size) - 1);
  // A stride-2 step's loads reach one byte past its last ID byte, which
  // the next element's ID byte covers.
  constexpr std::size_t kReach = kStride == 1 ? 8 : 9;
  std::size_t i = 0;
  for (; i + kReach <= n; i += 8) {
    const __m256i ids = LoadIds<kStride>(hi + i * kStride, lo + i * kStride);
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi32(ids, limit)) != 0) {
      return false;
    }
    const __m256i g = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(sequences), ids, 4);
    // Sequences are below 65536, so the unsigned pack is exact.
    const __m128i seq = _mm_packus_epi32(_mm256_castsi256_si128(g),
                                         _mm256_extracti128_si256(g, 1));
    std::byte* dst = out + i * kWidth;
    if constexpr (kWidth == 8) {
      const __m128i l54 = _mm_unpacklo_epi8(Load64(low[5] + i),
                                            Load64(low[4] + i));
      const __m128i l32 = _mm_unpacklo_epi8(Load64(low[3] + i),
                                            Load64(low[2] + i));
      const __m128i l10 = _mm_unpacklo_epi8(Load64(low[1] + i),
                                            Load64(low[0] + i));
      const __m128i lower0 = _mm_unpacklo_epi16(l54, l32);
      const __m128i lower1 = _mm_unpackhi_epi16(l54, l32);
      const __m128i upper0 = _mm_unpacklo_epi16(l10, seq);
      const __m128i upper1 = _mm_unpackhi_epi16(l10, seq);
      Store128(dst, _mm_unpacklo_epi32(lower0, upper0));
      Store128(dst + 16, _mm_unpackhi_epi32(lower0, upper0));
      Store128(dst + 32, _mm_unpacklo_epi32(lower1, upper1));
      Store128(dst + 48, _mm_unpackhi_epi32(lower1, upper1));
    } else {
      const __m128i l10 = _mm_unpacklo_epi8(Load64(low[1] + i),
                                            Load64(low[0] + i));
      Store128(dst, _mm_unpacklo_epi16(l10, seq));
      Store128(dst + 16, _mm_unpackhi_epi16(l10, seq));
    }
  }
  const std::byte* tail_low[kWidth - 2];
  for (std::size_t c = 0; c < kWidth - 2; ++c) tail_low[c] = low[c] + i;
  return scalar::Assemble<Element>(hi + i * kStride, lo + i * kStride,
                                   kStride, tail_low, n - i, sequences,
                                   table_size, out + i * kWidth);
}

template <typename Element>
bool AssembleEitherStride(const std::byte* hi, const std::byte* lo,
                          std::size_t id_stride, const std::byte* const* low,
                          std::size_t n, const std::uint32_t* sequences,
                          std::uint32_t table_size, std::byte* out) {
  return id_stride == 1
             ? Assemble<Element, 1>(hi, lo, low, n, sequences, table_size, out)
             : Assemble<Element, 2>(hi, lo, low, n, sequences, table_size,
                                    out);
}

// A byte histogram does not vectorize (the increments scatter), but the
// scalar loop's real cost on the skewed columns ISOBAR samples is the
// store-to-load forwarding stall when consecutive samples hit the same
// bucket. Four interleaved sub-histograms (8 KiB, L1-resident) break that
// dependency chain; the 256-entry merge is amortized over the sample count.
void HistogramStride(const std::byte* p, std::size_t count,
                     std::size_t stride_bytes, std::uint64_t* hist) {
  if (count < 64) {  // not worth the 256-entry merge
    scalar::HistogramStride(p, count, stride_bytes, hist);
    return;
  }
  std::uint64_t sub[4][256] = {};
  const std::size_t main = count & ~static_cast<std::size_t>(3);
  for (std::size_t k = 0; k < main; k += 4) {
    ++sub[0][static_cast<std::size_t>(p[k * stride_bytes])];
    ++sub[1][static_cast<std::size_t>(p[(k + 1) * stride_bytes])];
    ++sub[2][static_cast<std::size_t>(p[(k + 2) * stride_bytes])];
    ++sub[3][static_cast<std::size_t>(p[(k + 3) * stride_bytes])];
  }
  scalar::HistogramStride(p + main * stride_bytes, count - main, stride_bytes,
                          hist);
  for (std::size_t b = 0; b < 256; ++b) {
    hist[b] += sub[0][b] + sub[1][b] + sub[2][b] + sub[3][b];
  }
}

constexpr KernelTable kAvx2Table = {
    SplitW8H2,
    MergeW8H2,
    SplitW4H2,
    // No AVX2 variant: a pack de-interleave measured 0.9–1.0x of scalar.
    scalar::RowToColW2,
    CountPairs,
    MapIds16,
    UnmapIds16,
    AssembleEitherStride<std::uint64_t>,
    AssembleEitherStride<std::uint32_t>,
    HistogramStride,
};

}  // namespace

namespace detail {
const KernelTable* Avx2Table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace primacy::kernels

#endif  // PRIMACY_SIMD_ENABLED
