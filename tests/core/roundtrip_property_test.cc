// Property-based round-trip coverage: randomized element counts (0, 1, and
// counts straddling chunk boundaries), adversarial doubles (NaN, ±Inf,
// denormals, -0.0), and every codec registry entry as the solver — all
// seeded and reproducible. The property: Compress then Decompress is the
// identity on the input bits, whatever the shape of the input.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

// Bitwise comparison: NaNs compare unequal under operator==, so the
// round-trip property must be stated on the representation, not the value.
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double SpecialDouble(Rng& rng) {
  switch (rng.NextBelow(10)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::bit_cast<double>(0x7ff0000000000000ull);   // +inf
    case 3: return std::bit_cast<double>(0xfff0000000000000ull);   // -inf
    case 4: return std::bit_cast<double>(0x7ff8000000000000ull);   // qNaN
    case 5: return std::bit_cast<double>(0x7ff0000000000001ull);   // sNaN
    case 6: return 5e-324;                                         // min denormal
    case 7: return std::bit_cast<double>(0x000fffffffffffffull);   // max denormal
    case 8: return 1.7976931348623157e308;                         // max finite
    default: return -4.9406564584124654e-324;
  }
}

std::vector<double> RandomInput(Rng& rng, std::size_t count) {
  std::vector<double> values(count);
  for (auto& v : values) {
    if (rng.NextBelow(8) == 0) {
      v = SpecialDouble(rng);
    } else {
      // Smooth-ish values interleaved with raw bit noise: both the
      // high-correlation path the ID mapper likes and the stored fallback.
      v = rng.NextBelow(2) == 0
              ? 1.0 + static_cast<double>(rng.NextU64() % 100000) * 1e-5
              : std::bit_cast<double>(rng.NextU64());
    }
  }
  return values;
}

TEST(RoundTripPropertyTest, EdgeElementCountsRoundTrip) {
  // chunk_bytes = 1024 -> 128 doubles per chunk; counts probe empty input,
  // single element, exact chunk multiples, and off-by-one straddles.
  PrimacyOptions options;
  options.chunk_bytes = 1024;
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  Rng rng(0xabcdef);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{127},
        std::size_t{128}, std::size_t{129}, std::size_t{255}, std::size_t{256},
        std::size_t{257}, std::size_t{1000}}) {
    const auto values = RandomInput(rng, count);
    const Bytes stream = compressor.Compress(values);
    EXPECT_TRUE(BitIdentical(decompressor.Decompress(stream), values))
        << "count " << count;
  }
}

TEST(RoundTripPropertyTest, RandomCountsAndShapesRoundTrip) {
  Rng rng(20260806);
  PrimacyOptions options;
  options.chunk_bytes = 2048;
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  for (int iteration = 0; iteration < 40; ++iteration) {
    const std::size_t count = rng.NextBelow(3000);
    const auto values = RandomInput(rng, count);
    const Bytes stream = compressor.Compress(values);
    EXPECT_TRUE(BitIdentical(decompressor.Decompress(stream), values))
        << "iteration " << iteration << " count " << count;
  }
}

TEST(RoundTripPropertyTest, DanglingTailBytesRoundTrip) {
  // Raw-byte interface: sizes that are not a multiple of the element width
  // store the remainder in the tail block.
  PrimacyOptions options;
  options.chunk_bytes = 1024;
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  Rng rng(77);
  for (const std::size_t extra : {1u, 3u, 7u}) {
    const auto values = RandomInput(rng, 300);
    Bytes input = ToBytes(AsBytes(std::span(values)));
    for (std::size_t i = 0; i < extra; ++i) {
      input.push_back(static_cast<std::byte>(rng.NextU64() & 0xff));
    }
    const Bytes stream = compressor.CompressBytes(input);
    EXPECT_EQ(decompressor.DecompressBytes(stream), input)
        << "extra " << extra;
  }
}

TEST(RoundTripPropertyTest, EveryRegisteredSolverRoundTrips) {
  RegisterBuiltinCodecs();
  const auto names = CodecRegistry::Global().Names();
  ASSERT_FALSE(names.empty());
  Rng rng(0x50f7);
  const auto values = RandomInput(rng, 700);
  for (const std::string& name : names) {
    if (name == "primacy") continue;  // not a solver for itself
    PrimacyOptions options;
    options.chunk_bytes = 2048;
    options.solver = name;
    const Bytes stream = PrimacyCompressor(options).Compress(values);
    EXPECT_TRUE(
        BitIdentical(PrimacyDecompressor(options).Decompress(stream), values))
        << "solver " << name;
  }
}

TEST(RoundTripPropertyTest, ReuseWhenCorrelatedWithSpecialsRoundTrips) {
  // The delta-index path under adversarial values: correlated smooth chunks
  // with specials sprinkled in.
  PrimacyOptions options;
  options.chunk_bytes = 2048;
  options.index_mode = IndexMode::kReuseWhenCorrelated;
  Rng rng(0xfeed);
  auto values = GenerateDatasetByName("gts_phi_l", 4000);
  for (std::size_t i = 0; i < values.size() / 20; ++i) {
    values[rng.NextBelow(values.size())] = SpecialDouble(rng);
  }
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  EXPECT_TRUE(
      BitIdentical(PrimacyDecompressor(options).Decompress(stream), values));
}

TEST(RoundTripPropertyTest, SinglePrecisionSpecialsRoundTrip) {
  PrimacyOptions options;
  options.precision = Precision::kSingle;
  options.chunk_bytes = 1024;
  Rng rng(0xf10a7);
  std::vector<float> values(1500);
  for (auto& v : values) {
    switch (rng.NextBelow(6)) {
      case 0: v = std::bit_cast<float>(0x7f800000u); break;   // +inf
      case 1: v = std::bit_cast<float>(0x7fc00000u); break;   // qNaN
      case 2: v = -0.0f; break;
      case 3: v = std::bit_cast<float>(0x00000001u); break;   // denormal
      default:
        v = static_cast<float>(rng.NextBelow(1000)) * 0.25f;
    }
  }
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  const auto restored = PrimacyDecompressor(options).Decompress<float>(stream);
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(restored[i]),
              std::bit_cast<std::uint32_t>(values[i]))
        << "element " << i;
  }
}

}  // namespace
}  // namespace primacy
