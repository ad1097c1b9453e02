#include "deflate/deflate.h"

#include <gtest/gtest.h>

#include "codec_test_util.h"
#include "util/error.h"
#include "util/stats.h"

namespace primacy {
namespace {

using testing::AllInputGenerators;

TEST(DeflateTest, CompressesRepeatedPhrasesWell) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[4].make(200000, 1);
  const Bytes compressed = codec.Compress(input);
  // Heavily repetitive text: at least 5x.
  EXPECT_LT(compressed.size(), input.size() / 5);
}

TEST(DeflateTest, CompressesSkewedBytesNearEntropy) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[3].make(200000, 2);
  const double entropy = ByteEntropyBits(input);
  const Bytes compressed = codec.Compress(input);
  const double bits_per_byte =
      8.0 * static_cast<double>(compressed.size()) /
      static_cast<double>(input.size());
  // Within 15% of the order-0 entropy (LZ matches can beat it).
  EXPECT_LT(bits_per_byte, entropy * 1.15 + 0.2);
}

TEST(DeflateTest, RandomDataFallsBackToStored) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[2].make(100000, 3);
  const Bytes compressed = codec.Compress(input);
  EXPECT_LE(compressed.size(), input.size() + 16);
  EXPECT_EQ(codec.Decompress(compressed), input);
}

TEST(DeflateTest, FastPresetIsFasterButNoSmaller) {
  const DeflateCodec standard;
  const DeflateCodec fast(LzParams::Fast(), "deflate-fast");
  const Bytes input = AllInputGenerators()[4].make(500000, 4);
  const Bytes small = standard.Compress(input);
  const Bytes quick = fast.Compress(input);
  // The thorough parse should essentially never lose to the fast one; allow
  // a 2% slack since lazy matching is a heuristic, not a guarantee.
  EXPECT_LE(small.size(), quick.size() + quick.size() / 50);
  EXPECT_EQ(fast.Decompress(quick), input);
}

TEST(DeflateTest, MultiBlockStreamsRoundTrip) {
  // Force multiple Huffman blocks (> 2^16 tokens of mostly literals).
  const Bytes input = AllInputGenerators()[2].make(300000, 5);
  const DeflateCodec codec;
  EXPECT_EQ(codec.Decompress(codec.Compress(input)), input);
}

TEST(DeflateTest, StatisticsShiftAcrossBlocksHandled) {
  // First half noise, second half zeros: per-block codes must adapt.
  Bytes input = AllInputGenerators()[2].make(150000, 6);
  AppendBytes(input, Bytes(150000, 0_b));
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress(input);
  EXPECT_EQ(codec.Decompress(compressed), input);
  // The zero half must compress to almost nothing.
  EXPECT_LT(compressed.size(), 160000u);
}

TEST(DeflateTest, BadBlockTypeRejected) {
  const DeflateCodec codec;
  Bytes stream;
  stream.push_back(5_b);   // varint original_size = 5
  stream.push_back(9_b);   // invalid block type
  EXPECT_THROW(codec.Decompress(stream), CorruptStreamError);
}

TEST(DeflateTest, DistanceBeyondOutputRejected) {
  // Hand-craft: original size 4 but the first token is a match — no output
  // yet, so any distance is invalid. Easiest via corrupting a real stream is
  // flaky; instead check the empty-output+match path through a stored-size
  // lie: declared size smaller than actual expansion.
  const DeflateCodec codec;
  const Bytes input(1000, 1_b);
  Bytes compressed = codec.Compress(input);
  // Shrink the declared original size (first varint byte(s)).
  // 1000 encodes as 0xE8 0x07; rewrite to 10 (0x0A) and pad to keep parsing.
  ASSERT_EQ(static_cast<unsigned>(compressed[0]), 0xE8u);
  ASSERT_EQ(static_cast<unsigned>(compressed[1]), 0x07u);
  Bytes lied;
  lied.push_back(0x0a_b);
  AppendBytes(lied, ByteSpan(compressed).subspan(2));
  EXPECT_THROW(codec.Decompress(lied), CorruptStreamError);
}

TEST(DeflateTest, EmptyInputProducesDecodableStream) {
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress({});
  EXPECT_LE(compressed.size(), 2u);
  EXPECT_TRUE(codec.Decompress(compressed).empty());
}

}  // namespace
}  // namespace primacy
