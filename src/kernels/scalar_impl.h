// Portable scalar kernel implementations. This header is internal to
// src/kernels: scalar.cc builds the reference table from it, and avx2.cc
// reuses the same functions for its vector-remainder tails, which is what
// makes both tables byte-identical at every length by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/kernels.h"

namespace primacy::kernels::scalar {

inline void SplitW8H2(const std::byte* rows, std::size_t n, std::byte* high,
                      std::byte* low) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(high + i * 2, rows + i * 8, 2);
    std::memcpy(low + i * 6, rows + i * 8 + 2, 6);
  }
}

inline void MergeW8H2(const std::byte* high, const std::byte* low,
                      std::size_t n, std::byte* rows) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(rows + i * 8, high + i * 2, 2);
    std::memcpy(rows + i * 8 + 2, low + i * 6, 6);
  }
}

inline void SplitW4H2(const std::byte* rows, std::size_t n, std::byte* high,
                      std::byte* low) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(high + i * 2, rows + i * 4, 2);
    std::memcpy(low + i * 2, rows + i * 4 + 2, 2);
  }
}

inline void MergeW4H2(const std::byte* high, const std::byte* low,
                      std::size_t n, std::byte* rows) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(rows + i * 4, high + i * 2, 2);
    std::memcpy(rows + i * 4 + 2, low + i * 2, 2);
  }
}

template <std::size_t W>
inline void RowToColW(const std::byte* rows, std::size_t n, std::byte* out) {
  for (std::size_t c = 0; c < W; ++c) {
    std::byte* dst = out + c * n;
    for (std::size_t i = 0; i < n; ++i) dst[i] = rows[i * W + c];
  }
}

template <std::size_t W>
inline void ColToRowW(const std::byte* cols, std::size_t n, std::byte* out) {
  for (std::size_t c = 0; c < W; ++c) {
    const std::byte* src = cols + c * n;
    for (std::size_t i = 0; i < n; ++i) out[i * W + c] = src[i];
  }
}

inline void CountPairs(const std::byte* pairs, std::size_t n_pairs,
                       std::uint32_t* counts) {
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const auto hi = static_cast<std::uint32_t>(pairs[2 * i]);
    const auto lo = static_cast<std::uint32_t>(pairs[2 * i + 1]);
    ++counts[(hi << 8) | lo];
  }
}

inline bool MapIds16(const std::byte* pairs, std::size_t n_pairs,
                     const std::uint32_t* ids, std::byte* out) {
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const auto sequence = (static_cast<std::uint32_t>(pairs[2 * i]) << 8) |
                          static_cast<std::uint32_t>(pairs[2 * i + 1]);
    const std::uint32_t id = ids[sequence];
    if (id == kUnmapped16) return false;
    out[2 * i] = static_cast<std::byte>(id >> 8);
    out[2 * i + 1] = static_cast<std::byte>(id & 0xff);
  }
  return true;
}

inline bool UnmapIds16(const std::byte* ids_bytes, std::size_t n_pairs,
                       const std::uint32_t* sequences,
                       std::uint32_t table_size, std::byte* out) {
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const auto id = (static_cast<std::uint32_t>(ids_bytes[2 * i]) << 8) |
                    static_cast<std::uint32_t>(ids_bytes[2 * i + 1]);
    if (id >= table_size) return false;
    const std::uint32_t sequence = sequences[id];
    out[2 * i] = static_cast<std::byte>(sequence >> 8);
    out[2 * i + 1] = static_cast<std::byte>(sequence & 0xff);
  }
  return true;
}

inline void HistogramStride(const std::byte* p, std::size_t count,
                            std::size_t stride_bytes, std::uint64_t* hist) {
  for (std::size_t k = 0; k < count; ++k) {
    ++hist[static_cast<std::size_t>(p[k * stride_bytes])];
  }
}

}  // namespace primacy::kernels::scalar
