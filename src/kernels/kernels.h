// Runtime-dispatched SIMD kernel layer for the byte-matrix hot paths.
//
// Every PRIMACY transform stage — the high/low byte split, the ID matrix's
// row-to-column transpose, 16-bit pair-frequency counting, ID mapping, the
// ISOBAR column histograms and, on decode, the assembly of native elements
// from byte planes — reduces to one of the narrow kernels below. Each
// kernel has a portable scalar implementation (the semantic reference) plus
// an AVX2 variant selected once at startup from CPUID; callers go through
// the function-pointer table returned by Active() and never name an ISA.
//
// Contract shared by every variant of a kernel:
//   * byte-identical output to the scalar reference at every length,
//     including 0, 1, and non-multiple-of-vector tails (the vector body
//     hands the tail to the same scalar code the reference uses);
//   * no allocation, no exceptions — lookup kernels report a bad value by
//     returning false and the caller re-derives the precise error;
//   * in-place operation is allowed where noted (unmap/map may have
//     out == in; each block is fully loaded before it is stored).
//
// merge_w8_h2 and unmap_ids16 have no caller in the library since the
// decoder assembles elements from planes; they stay because primacy_bench's
// kernel section times them, and go when its kernel keys move to the
// assembly kernel.
//
// Dispatch:
//   * Active() resolves once: AVX2 when the CPU supports it, else scalar;
//   * builds with -DPRIMACY_SIMD=OFF (or non-x86-64 targets) compile the
//     intrinsics out entirely and Active() is always the scalar table;
//   * the selected ISA is exported as the telemetry gauge
//     primacy_kernel_isa{isa="..."} so `primacy_inspect --metrics` shows
//     what actually ran;
//   * ForceIsa() swaps the active table at runtime for benches and tests.
//
// Intrinsics headers are confined to src/kernels/ (enforced by the
// primacy_lint simd-containment rule); this API is raw pointers + lengths.
#pragma once

#include <cstddef>
#include <cstdint>

namespace primacy::kernels {

/// The values are fixed: parameterized test names print them.
enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 2 };

/// Every ISA a table can exist for, scalar first.
inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2};

/// Stable lowercase name ("scalar", "avx2").
const char* IsaName(Isa isa);

/// ID value marking "sequence never occurred" in a map table (mirrors
/// IdIndex::kUnmapped; duplicated here so the layer stays dependency-free).
inline constexpr std::uint32_t kUnmapped16 = 0xffffffffu;

/// The kernel dispatch table. All lengths are element counts, not bytes;
/// `n` rows of width W occupy n*W contiguous bytes in row linearization.
struct KernelTable {
  // --- High/low split (width 8 and 4, high width 2: the PRIMACY shapes).
  // split: rows (n x W) -> high (n x 2) + low (n x (W-2)), row-linearized.
  // merge_w8_h2 is the exact inverse at width 8.
  void (*split_w8_h2)(const std::byte* rows, std::size_t n, std::byte* high,
                      std::byte* low);
  void (*merge_w8_h2)(const std::byte* high, const std::byte* low,
                      std::size_t n, std::byte* rows);
  void (*split_w4_h2)(const std::byte* rows, std::size_t n, std::byte* high,
                      std::byte* low);

  // --- Row-to-column transpose of the n x 2 ID matrix:
  // out[c * n + i] = rows[i * 2 + c].
  void (*row_to_col_w2)(const std::byte* rows, std::size_t n, std::byte* out);

  // --- 16-bit pair-frequency counting.
  // counts[(pairs[2i] << 8) | pairs[2i+1]] += 1 for i in [0, n_pairs).
  // counts has 65536 entries and is NOT zeroed here.
  void (*count_pairs)(const std::byte* pairs, std::size_t n_pairs,
                      std::uint32_t* counts);

  // --- ID mapping (encode): big-endian sequence -> big-endian ID through
  // ids[65536]; entries equal to kUnmapped16 abort with false (out is
  // unspecified then). out may alias pairs.
  bool (*map_ids16)(const std::byte* pairs, std::size_t n_pairs,
                    const std::uint32_t* ids, std::byte* out);

  // --- ID unmapping: big-endian ID -> big-endian sequence through
  // sequences[table_size] (u32-widened); an ID >= table_size aborts with
  // false. out may alias ids_bytes.
  bool (*unmap_ids16)(const std::byte* ids_bytes, std::size_t n_pairs,
                      const std::uint32_t* sequences, std::uint32_t table_size,
                      std::byte* out);

  // --- Assembly (decode): byte planes -> n native elements of width W
  // (8 or 4). Element i's big-endian bytes are sequences[id] >> 8, then
  // sequences[id] & 0xff, then low[0][i] ... low[W-3][i], where
  // id = hi[i * id_stride] << 8 | lo[i * id_stride]: id_stride is 1 for
  // column-linearized ID bytes (two planes) or 2 for row-linearized ones
  // (lo = hi + 1), and no other value. The element is written in host byte
  // order to out + i * W. An ID >= table_size aborts with false (out is
  // unspecified then). Only hi[k * id_stride], lo[k * id_stride] and
  // low[c][k] for k < n are read.
  bool (*assemble_w8)(const std::byte* hi, const std::byte* lo,
                      std::size_t id_stride, const std::byte* const* low,
                      std::size_t n, const std::uint32_t* sequences,
                      std::uint32_t table_size, std::byte* out);
  bool (*assemble_w4)(const std::byte* hi, const std::byte* lo,
                      std::size_t id_stride, const std::byte* const* low,
                      std::size_t n, const std::uint32_t* sequences,
                      std::uint32_t table_size, std::byte* out);

  // --- ISOBAR column histogram accumulate:
  // hist[p[k * stride_bytes]] += 1 for k in [0, count); hist has 256
  // entries and is NOT zeroed here. stride_bytes >= 1.
  void (*histogram_stride)(const std::byte* p, std::size_t count,
                           std::size_t stride_bytes, std::uint64_t* hist);
};

/// The portable scalar reference table (always available).
const KernelTable& ScalarTable();

/// Table for one ISA, or nullptr when that variant is compiled out or the
/// CPU lacks the instructions. Scalar never returns nullptr.
const KernelTable* TableFor(Isa isa);

/// The dispatched table (CPUID, resolved on first call).
const KernelTable& Active();

/// ISA backing Active().
Isa ActiveIsa();

/// Test/bench hook: swap the active table. Returns false (and changes
/// nothing) when the ISA is compiled out or unsupported by this CPU. Not
/// synchronized against concurrent kernel calls — call from single-threaded
/// setup only.
bool ForceIsa(Isa isa);

}  // namespace primacy::kernels
