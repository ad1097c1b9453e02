// AVX2 kernel variants. Compiled with -mavx2 for this translation unit only;
// dispatch.cc guarantees these run only after __builtin_cpu_supports("avx2").
//
// The transposes are radix-2 networks: one pass of DeInterleave64 separates
// even/odd byte columns of a 64-byte block, and width-4/8 transposes are 2/3
// such passes held in registers across a 32-row tile. Every kernel hands its
// sub-vector remainder to the scalar reference (scalar_impl.h), so outputs
// are byte-identical to scalar at every length.
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

/// 64 consecutive bytes (a ++ b) -> 32 even-index bytes and 32 odd-index
/// bytes, in order. The packus lane fix is the 0xD8 qword permute.
inline void DeInterleave64(__m256i a, __m256i b, __m256i& even, __m256i& odd) {
  const __m256i mask = _mm256_set1_epi16(0x00ff);
  even = _mm256_permute4x64_epi64(
      _mm256_packus_epi16(_mm256_and_si256(a, mask), _mm256_and_si256(b, mask)),
      0xD8);
  odd = _mm256_permute4x64_epi64(
      _mm256_packus_epi16(_mm256_srli_epi16(a, 8), _mm256_srli_epi16(b, 8)),
      0xD8);
}

/// Inverse of DeInterleave64: 32 evens + 32 odds -> 64 interleaved bytes.
inline void Interleave64(__m256i even, __m256i odd, __m256i& out0,
                         __m256i& out1) {
  const __m256i lo = _mm256_unpacklo_epi8(even, odd);
  const __m256i hi = _mm256_unpackhi_epi8(even, odd);
  out0 = _mm256_permute2x128_si256(lo, hi, 0x20);
  out1 = _mm256_permute2x128_si256(lo, hi, 0x31);
}

void RowToColW2(const std::byte* rows, std::size_t n, std::byte* out) {
  // Two passes (all evens, then all odds) rather than one combined pass:
  // each pass runs one load stream against one store stream, which the
  // hardware prefetchers like much better than one load + two distant
  // store streams — measured faster despite reading the input twice.
  // 128-bit registers on purpose: pack stays in-lane, so no cross-lane
  // permute fix-up is needed, and that fix-up made the 256-bit version
  // measurably slower than this one.
  const __m128i mask = _mm_set1_epi16(0x00ff);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + 2 * i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + 2 * i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(_mm_and_si128(a, mask),
                                      _mm_and_si128(b, mask)));
  }
  for (; i < n; ++i) out[i] = rows[2 * i];
  i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + 2 * i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + 2 * i + 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n + i),
                     _mm_packus_epi16(_mm_srli_epi16(a, 8),
                                      _mm_srli_epi16(b, 8)));
  }
  for (; i < n; ++i) out[n + i] = rows[2 * i + 1];
}

void ColToRowW2(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i r0, r1;
    Interleave64(Load(cols + i), Load(cols + n + i), r0, r1);
    Store(out + 2 * i, r0);
    Store(out + 2 * i + 32, r1);
  }
  for (; i < n; ++i) {
    out[2 * i] = cols[i];
    out[2 * i + 1] = cols[n + i];
  }
}

void RowToColW4(const std::byte* rows, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::byte* p = rows + 4 * i;
    __m256i e0, o0, e1, o1;
    DeInterleave64(Load(p), Load(p + 32), e0, o0);
    DeInterleave64(Load(p + 64), Load(p + 96), e1, o1);
    __m256i c0, c1, c2, c3;
    DeInterleave64(e0, e1, c0, c2);
    DeInterleave64(o0, o1, c1, c3);
    Store(out + i, c0);
    Store(out + n + i, c1);
    Store(out + 2 * n + i, c2);
    Store(out + 3 * n + i, c3);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) out[c * n + i] = rows[4 * i + c];
  }
}

void ColToRowW4(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c0 = Load(cols + i);
    const __m256i c1 = Load(cols + n + i);
    const __m256i c2 = Load(cols + 2 * n + i);
    const __m256i c3 = Load(cols + 3 * n + i);
    __m256i e0, e1, o0, o1;
    Interleave64(c0, c2, e0, e1);
    Interleave64(c1, c3, o0, o1);
    __m256i r0, r1, r2, r3;
    Interleave64(e0, o0, r0, r1);
    Interleave64(e1, o1, r2, r3);
    std::byte* q = out + 4 * i;
    Store(q, r0);
    Store(q + 32, r1);
    Store(q + 64, r2);
    Store(q + 96, r3);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) out[4 * i + c] = cols[c * n + i];
  }
}

void RowToColW8(const std::byte* rows, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::byte* p = rows + 8 * i;
    __m256i e[4], o[4];
    for (std::size_t k = 0; k < 4; ++k) {
      DeInterleave64(Load(p + 64 * k), Load(p + 64 * k + 32), e[k], o[k]);
    }
    __m256i ee0, eo0, ee1, eo1, oe0, oo0, oe1, oo1;
    DeInterleave64(e[0], e[1], ee0, eo0);
    DeInterleave64(e[2], e[3], ee1, eo1);
    DeInterleave64(o[0], o[1], oe0, oo0);
    DeInterleave64(o[2], o[3], oe1, oo1);
    __m256i c[8];
    DeInterleave64(ee0, ee1, c[0], c[4]);
    DeInterleave64(eo0, eo1, c[2], c[6]);
    DeInterleave64(oe0, oe1, c[1], c[5]);
    DeInterleave64(oo0, oo1, c[3], c[7]);
    for (std::size_t col = 0; col < 8; ++col) Store(out + col * n + i, c[col]);
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 8; ++c) out[c * n + i] = rows[8 * i + c];
  }
}

void ColToRowW8(const std::byte* cols, std::size_t n, std::byte* out) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i c[8];
    for (std::size_t col = 0; col < 8; ++col) c[col] = Load(cols + col * n + i);
    __m256i x[8];
    Interleave64(c[0], c[4], x[0], x[1]);
    Interleave64(c[2], c[6], x[2], x[3]);
    Interleave64(c[1], c[5], x[4], x[5]);
    Interleave64(c[3], c[7], x[6], x[7]);
    __m256i y[4], z[4];
    Interleave64(x[0], x[2], y[0], y[1]);
    Interleave64(x[1], x[3], y[2], y[3]);
    Interleave64(x[4], x[6], z[0], z[1]);
    Interleave64(x[5], x[7], z[2], z[3]);
    std::byte* q = out + 8 * i;
    for (std::size_t k = 0; k < 4; ++k) {
      __m256i r0, r1;
      Interleave64(y[k], z[k], r0, r1);
      Store(q + 64 * k, r0);
      Store(q + 64 * k + 32, r1);
    }
  }
  for (; i < n; ++i) {
    for (std::size_t c = 0; c < 8; ++c) out[8 * i + c] = cols[c * n + i];
  }
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

void MergeW4H2(const std::byte* high, const std::byte* low, std::size_t n,
               std::byte* rows) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = Load128(high + 2 * i);
    const __m128i l = Load128(low + 2 * i);
    Store128(rows + 4 * i, _mm_unpacklo_epi16(h, l));
    Store128(rows + 4 * i + 16, _mm_unpackhi_epi16(h, l));
  }
  scalar::MergeW4H2(high + 2 * i, low + 2 * i, n - i, rows + 4 * i);
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
    SplitW8H2,  MergeW8H2,  SplitW4H2,  MergeW4H2,  RowToColW2,
    ColToRowW2, RowToColW4, ColToRowW4, RowToColW8, ColToRowW8,
    CountPairs, MapIds16,   UnmapIds16, HistogramStride,
};

}  // namespace

namespace detail {
const KernelTable* Avx2Table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace primacy::kernels

#endif  // PRIMACY_SIMD_ENABLED
