// Parameterized sweep over LzParams: every knob combination must parse
// losslessly, and stronger settings must not produce worse parses.
#include <gtest/gtest.h>

#include <tuple>

#include "lz77/lz77.h"
#include "util/rng.h"

namespace primacy {
namespace {

Bytes MixedData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out;
  const Bytes phrase = BytesFromString("repeated segment content ");
  while (out.size() < n) {
    if (rng.NextBool(0.6)) {
      AppendBytes(out, phrase);
    } else {
      for (int i = 0; i < 16; ++i) {
        out.push_back(static_cast<std::byte>(rng.NextBelow(256)));
      }
    }
  }
  out.resize(n);
  return out;
}

std::size_t ParseCost(const std::vector<LzToken>& tokens) {
  // Rough coded size proxy: 1 byte per literal, 3 per match.
  std::size_t cost = 0;
  for (const LzToken& token : tokens) cost += token.IsLiteral() ? 1u : 3u;
  return cost;
}

class LzParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(LzParamSweep, RoundTripsUnderAllKnobs) {
  const auto [chain_exp, nice, lazy] = GetParam();
  LzParams params;
  params.max_chain = 1u << chain_exp;
  params.nice_length = static_cast<std::size_t>(nice);
  params.lazy = lazy;
  const Bytes data = MixedData(60000, 99);
  const auto tokens = LzParse(data, params);
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, LzParamSweep,
    ::testing::Combine(::testing::Values(0, 3, 7, 10),
                       ::testing::Values(8, 64, 258),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, int, bool>>& param_info) {
      return "chain" + std::to_string(1 << std::get<0>(param_info.param)) +
             "_nice" + std::to_string(std::get<1>(param_info.param)) +
             (std::get<2>(param_info.param) ? "_lazy" : "_greedy");
    });

TEST(LzParamQualityTest, DeeperChainsNeverParseWorse) {
  const Bytes data = MixedData(200000, 7);
  LzParams shallow = LzParams::Fast();
  LzParams deep = LzParams::Thorough();
  const std::size_t shallow_cost = ParseCost(LzParse(data, shallow));
  const std::size_t deep_cost = ParseCost(LzParse(data, deep));
  EXPECT_LE(deep_cost, shallow_cost + shallow_cost / 50);
}

}  // namespace
}  // namespace primacy
