#include "lz77/lz77.h"

#include <gtest/gtest.h>

#include <tuple>

#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

Bytes RepetitiveData(std::size_t n, std::uint64_t seed) {
  // Mixture of repeated phrases and noise, the typical LZ-friendly profile.
  Rng rng(seed);
  const Bytes phrase = BytesFromString("the quick brown fox jumps over ");
  Bytes out;
  while (out.size() < n) {
    if (rng.NextBool(0.7)) {
      AppendBytes(out, phrase);
    } else {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::byte>(rng.NextBelow(256)));
      }
    }
  }
  out.resize(n);
  return out;
}

class LzParseRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LzParseRoundTrip, ExpandReproducesInput) {
  const auto [size, preset] = GetParam();
  const LzParams params = preset == 0   ? LzParams::Fast()
                          : preset == 1 ? LzParams::Default()
                                        : LzParams::Thorough();
  const Bytes data = RepetitiveData(size, size + static_cast<std::size_t>(preset));
  const auto tokens = LzParse(data, params);
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPresets, LzParseRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 257, 4096, 100000),
                       ::testing::Values(0, 1, 2)));

TEST(LzParseTest, EmptyInputYieldsNoTokens) {
  EXPECT_TRUE(LzParse({}, LzParams::Default()).empty());
  EXPECT_TRUE(LzExpand({}, 0).empty());
}

TEST(LzParseTest, ShortInputsAreAllLiterals) {
  const Bytes data = BytesFromString("ab");
  const auto tokens = LzParse(data, LzParams::Default());
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].IsLiteral());
  EXPECT_TRUE(tokens[1].IsLiteral());
}

TEST(LzParseTest, AllSameByteCompressesToFewTokens) {
  const Bytes data(10000, 7_b);
  const auto tokens = LzParse(data, LzParams::Default());
  // First literal, then overlapping distance-1 matches of max length.
  EXPECT_LT(tokens.size(), data.size() / 100);
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

TEST(LzParseTest, FindsOverlappingRunMatches) {
  const Bytes data(600, 42_b);
  const auto tokens = LzParse(data, LzParams::Default());
  bool found_overlap = false;
  for (const auto& token : tokens) {
    if (!token.IsLiteral() && token.distance < token.length) {
      found_overlap = true;
    }
  }
  EXPECT_TRUE(found_overlap);
}

TEST(LzParseTest, RepeatedPhraseBecomesMatch) {
  Bytes data = BytesFromString("abcdefghij");
  AppendBytes(data, BytesFromString("abcdefghij"));
  const auto tokens = LzParse(data, LzParams::Default());
  bool has_match_of_ten = false;
  for (const auto& token : tokens) {
    if (!token.IsLiteral() && token.length == 10 && token.distance == 10) {
      has_match_of_ten = true;
    }
  }
  EXPECT_TRUE(has_match_of_ten);
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

TEST(LzParseTest, IncompressibleDataRoundTrips) {
  Rng rng(9);
  Bytes data(50000);
  for (auto& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
  const auto tokens = LzParse(data, LzParams::Default());
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

TEST(LzParseTest, MatchesNeverCrossWindowBound) {
  // 40 KiB of structure: early phrases must not be referenced from beyond
  // the 32 KiB window.
  const Bytes data = RepetitiveData(80000, 17);
  const auto tokens = LzParse(data, LzParams::Thorough());
  std::size_t pos = 0;
  for (const auto& token : tokens) {
    if (!token.IsLiteral()) {
      EXPECT_LE(token.distance, kLzWindowSize);
      EXPECT_LE(token.distance, pos);
      EXPECT_GE(token.length, kLzMinMatch);
      EXPECT_LE(token.length, kLzMaxMatch);
      pos += token.length;
    } else {
      ++pos;
    }
  }
  EXPECT_EQ(pos, data.size());
}

TEST(LzParseTest, HistoryParseExpandsAfterTheHistoryBytes) {
  // Parsing from `start` with the bytes before it as history: the tokens
  // expand to the tail once the history bytes precede them as literals.
  const Bytes data = RepetitiveData(60000, 23);
  for (const LzParams& params : {LzParams::Fast(), LzParams::Default()}) {
    for (const std::size_t start : {1u, 4096u, 40000u, 59999u, 60000u}) {
      std::vector<LzToken> tokens;
      for (std::size_t i = 0; i < start; ++i) {
        tokens.push_back(LzToken{static_cast<std::uint8_t>(data[i]), 0, 0});
      }
      const auto tail = LzParse(data, params, start);
      tokens.insert(tokens.end(), tail.begin(), tail.end());
      EXPECT_EQ(LzExpand(tokens, data.size()), data) << start;
    }
  }
}

TEST(LzParseTest, HistoryParseFindsRepeatsInTheHistory) {
  // A random block seen only in the history comes back as matches.
  Rng rng(31);
  Bytes block(20000);
  for (auto& b : block) b = static_cast<std::byte>(rng.NextBelow(256));
  Bytes data = block;
  AppendBytes(data, block);
  const auto tail = LzParse(data, LzParams::Fast(), block.size());
  EXPECT_LT(tail.size(), 100u);
  EXPECT_FALSE(tail.front().IsLiteral());
  EXPECT_EQ(tail.front().distance, block.size());
  EXPECT_THROW(LzParse(data, LzParams::Fast(), data.size() + 1),
               InvalidArgumentError);
}

TEST(LzExpandTest, RejectsBadDistance) {
  const std::vector<LzToken> tokens{
      LzToken{'a', 0, 0},
      LzToken{0, 5, 9},  // distance 9 > produced output (1)
  };
  EXPECT_THROW(LzExpand(tokens, 6), CorruptStreamError);
}

TEST(LzExpandTest, RejectsBadLength) {
  const std::vector<LzToken> tokens{
      LzToken{'a', 0, 0},
      LzToken{0, 2, 1},  // below kLzMinMatch
  };
  EXPECT_THROW(LzExpand(tokens, 3), CorruptStreamError);
}

TEST(LzExpandTest, RejectsSizeMismatch) {
  const std::vector<LzToken> tokens{LzToken{'a', 0, 0}};
  EXPECT_THROW(LzExpand(tokens, 2), CorruptStreamError);
}

TEST(LzParseTest, FastPresetStillCorrectOnPathologicalInput) {
  // Alternating two-byte pattern defeats 3-byte hashing sometimes; ensure
  // correctness regardless of match quality.
  Bytes data(30000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i % 2 == 0) ? 1_b : 2_b;
  }
  const auto tokens = LzParse(data, LzParams::Fast());
  EXPECT_EQ(LzExpand(tokens, data.size()), data);
}

}  // namespace
}  // namespace primacy
