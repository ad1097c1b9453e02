#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench_support.h"
#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/checksum.h"

namespace primacy::bench {

std::vector<double> SeededDataset(const std::string& name, std::uint64_t seed,
                                  std::size_t elements) {
  DatasetSpec spec = FindDataset(name);
  spec.seed ^= SplitMix64(seed);
  return GenerateDataset(spec, elements);
}

Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  return Rng(SplitMix64(seed ^ SplitMix64(stream)));
}

Op PickOp(Rng& rng) {
  const std::uint64_t roll = rng.NextBelow(100);
  if (roll < 45) return Op::kCompress;
  if (roll < 90) return Op::kDecompress;
  return Op::kRange;
}

std::vector<TenantObjects> BuildTenantObjects(
    std::uint64_t seed, const std::vector<std::size_t>& element_choices,
    std::size_t min_bytes) {
  std::vector<TenantObjects> tenants(kDatasets.size());
  std::vector<std::thread> generators;
  for (std::size_t t = 0; t < kDatasets.size(); ++t) {
    generators.emplace_back([&, t] {
      TenantObjects& tenant = tenants[t];
      tenant.tenant = std::string("tenant_") + kDatasets[t];
      Rng sizes = StreamRng(seed, 100 + t);
      std::vector<std::size_t> lengths;
      std::size_t total = 0;
      while (total * 8 < min_bytes) {
        lengths.push_back(
            element_choices[sizes.NextBelow(element_choices.size())]);
        total += lengths.back();
      }
      const std::vector<double> values =
          SeededDataset(kDatasets[t], seed, total);
      PrimacyOptions direct;
      direct.threads = 1;
      const PrimacyCompressor compressor(direct);
      std::size_t offset = 0;
      for (const std::size_t length : lengths) {
        Object object;
        object.raw = ToBytes(
            AsBytes(std::span<const double>(values).subspan(offset, length)));
        object.stream = compressor.CompressBytes(object.raw);
        object.raw_hash = Xxh64(object.raw);
        object.stream_hash = Xxh64(object.stream);
        tenant.objects.push_back(std::move(object));
        offset += length;
      }
    });
  }
  for (std::thread& generator : generators) generator.join();
  return tenants;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace primacy::bench
