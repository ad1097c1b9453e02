// Seeded inputs and request mixes for primacy_bench. The seed is the only
// source of randomness: every dataset is its Table III DatasetSpec with
// seed ^= SplitMix64(S), and op mixes, sizes, offsets and object picks come
// from Rng streams derived from S. The library only ever sees the bytes
// built here.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace primacy::bench {

/// The four checkpoint variables, and the dataset each service tenant
/// serves.
inline constexpr std::array<const char*, 4> kDatasets = {
    "num_plasma", "num_brain", "obs_info", "flash_velx"};

std::vector<double> SeededDataset(const std::string& name, std::uint64_t seed,
                                  std::size_t elements);

/// An Rng for one purpose of one run: distinct `stream` values give
/// independent sequences from the same seed.
Rng StreamRng(std::uint64_t seed, std::uint64_t stream);

enum class Op : std::uint8_t { kCompress, kDecompress, kRange };

/// 45% compress, 45% decompress, 10% range decompress.
Op PickOp(Rng& rng);

/// Elements a range request decodes.
inline constexpr std::uint64_t kRangeElements = 256;

/// One payload and the direct-library answers every reply is checked
/// against.
struct Object {
  Bytes raw;       // little-endian doubles
  Bytes stream;    // PrimacyCompressor (threads = 1) output for `raw`
  std::uint64_t raw_hash = 0;
  std::uint64_t stream_hash = 0;
};

struct TenantObjects {
  std::string tenant;
  std::vector<Object> objects;
};

/// Per tenant, consecutive slices of the tenant's dataset with sizes drawn
/// from `element_choices` (uniformly by index, so repeating a size weights
/// it) until `min_bytes` of raw data exist. Streams and hashes are built on
/// one generator thread per tenant.
std::vector<TenantObjects> BuildTenantObjects(
    std::uint64_t seed, const std::vector<std::size_t>& element_choices,
    std::size_t min_bytes);

/// Zipf(s) over [0, n): rank 0 is the most popular.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Next(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace primacy::bench
