#include "deflate/deflate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bitstream/bit_io.h"
#include "bitstream/byte_io.h"
#include "codec_test_util.h"
#include "huffman/huffman.h"
#include "lz77/lz77.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace primacy {
namespace {

using testing::AllInputGenerators;

// The container's alphabets: 256 literals plus 29 length symbols, and 30
// distance codes.
constexpr std::size_t kLitLenAlphabet = 285;
constexpr std::size_t kDistAlphabet = 30;
constexpr std::size_t kLength4 = 257;  // length 4, no extra bits
constexpr std::size_t kDistance1 = 0;  // distance code 0: distance 1

/// A hand-built Huffman block: the two code-length tables, and the tokens
/// coded under them. A token is a literal byte, or a length symbol with no
/// extra bits followed by `distance_code` (distance code 0, distance 1,
/// unless set; codes 0-3 are distances 1-4 with no extra bits).
struct HandBlock {
  std::vector<std::uint8_t> litlen =
      std::vector<std::uint8_t>(kLitLenAlphabet);
  std::vector<std::uint8_t> dist = std::vector<std::uint8_t>(kDistAlphabet);
  std::vector<std::size_t> symbols;
  std::size_t distance_code = kDistance1;

  /// The block as the container lays it out, declaring `token_count`
  /// tokens (the coded count unless given) and dropping the payload's last
  /// `cut` bytes.
  void AppendTo(Bytes& out, std::size_t cut = 0,
                std::optional<std::uint64_t> token_count = {}) const {
    const HuffmanEncoder litlen_encoder(litlen);
    std::optional<HuffmanEncoder> dist_encoder;
    if (dist[distance_code] != 0) dist_encoder.emplace(dist);
    BitWriter writer;
    for (const std::size_t symbol : symbols) {
      litlen_encoder.Encode(writer, symbol);
      if (symbol >= 256 && dist_encoder) {
        dist_encoder->Encode(writer, distance_code);
      }
    }
    Bytes payload = writer.Finish();
    payload.resize(payload.size() - cut);
    PutU8(out, 1);
    PutVarint(out, token_count.value_or(symbols.size()));
    PutBlock(out, SerializeCodeLengths(litlen));
    PutBlock(out, SerializeCodeLengths(dist));
    PutBlock(out, payload);
  }
};

/// A literal-only block cycling through the 2^bits letters from 'a', each
/// with a `bits`-bit code.
HandBlock LiteralBlock(std::size_t count, unsigned bits = 1) {
  HandBlock block;
  const std::size_t letters = std::size_t{1} << bits;
  for (std::size_t i = 0; i < letters; ++i) {
    block.litlen['a' + i] = static_cast<std::uint8_t>(bits);
  }
  for (std::size_t i = 0; i < count; ++i) {
    block.symbols.push_back('a' + i % letters);
  }
  return block;
}

/// An LZ block: literal 'a' (1 bit), then matches of length 4 at distance
/// 1 (2 bits each, 1 more for the distance), with literal 'b' (2 bits)
/// after every match.
HandBlock LzBlock(std::size_t matches) {
  HandBlock block;
  block.litlen['a'] = 1;
  block.litlen['b'] = 2;
  block.litlen[kLength4] = 2;
  block.dist[kDistance1] = 1;
  block.symbols.push_back('a');
  for (std::size_t i = 0; i < matches; ++i) {
    block.symbols.push_back(kLength4);
    block.symbols.push_back('b');
  }
  return block;
}

/// A container declaring `declared` bytes, then `body`'s blocks.
Bytes Container(std::uint64_t declared, const Bytes& body) {
  Bytes out;
  PutVarint(out, declared);
  AppendBytes(out, body);
  return out;
}

/// Decoding `stream` throws CorruptStreamError with `message` in it: the
/// check the test names, not a later one that the same input would reach.
void ExpectCorrupt(const Bytes& stream, const std::string& message) {
  try {
    const Bytes out = DeflateCodec().Decompress(stream);
    ADD_FAILURE() << "decoded " << out.size() << " bytes; expected \""
                  << message << "\"";
  } catch (const CorruptStreamError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

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

/// Literals 'a', 'b', 'c', then a length-4 match at distance code
/// `distance_code`.
HandBlock MatchAfterThreeLiterals(std::size_t distance_code) {
  HandBlock block;
  block.litlen['a'] = 2;
  block.litlen['b'] = 2;
  block.litlen['c'] = 2;
  block.litlen[kLength4] = 2;
  block.dist[distance_code] = 1;
  block.distance_code = distance_code;
  block.symbols = {'a', 'b', 'c', kLength4};
  return block;
}

TEST(DeflateTest, DistanceBeyondOutputRejected) {
  // After three bytes of output, a match at distance 4 reaches one byte
  // before the output. The declared size holds the whole match, so no
  // overrun check fires first. MatchBeforeAnyOutputRejected covers a match
  // with no output at all.
  Bytes body;
  MatchAfterThreeLiterals(3).AppendTo(body);
  ExpectCorrupt(Container(7, body), "distance exceeds output");

  // Distance 3 reaches the first byte: the same block shape decodes.
  Bytes fits;
  MatchAfterThreeLiterals(2).AppendTo(fits);
  EXPECT_EQ(StringFromBytes(DeflateCodec().Decompress(Container(7, fits))),
            "abcabca");
}

TEST(DeflateTest, HandBuiltBlocksDecode) {
  // The builders below make valid containers; each test then breaks one.
  Bytes body;
  LiteralBlock(10).AppendTo(body);
  LzBlock(3).AppendTo(body);
  const Bytes out = DeflateCodec().Decompress(Container(26, body));
  EXPECT_EQ(StringFromBytes(out), "ababababab" "a" "aaaab" "bbbbb" "bbbbb");
}

TEST(DeflateTest, TokenCountOverPayloadBitsRejected) {
  Bytes body;
  LiteralBlock(16).AppendTo(body, 0, 17);  // 16 one-bit codes: 2 bytes
  ExpectCorrupt(Container(17, body), "token count exceeds payload bits");
}

TEST(DeflateTest, LiteralBlockLongerThanDeclaredSizeRejected) {
  // Checked once, before the block decodes a byte.
  Bytes body;
  LiteralBlock(10).AppendTo(body);
  ExpectCorrupt(Container(9, body), "output overrun");
}

TEST(DeflateTest, LiteralPastDeclaredSizeInLzBlockRejected) {
  Bytes body;
  LzBlock(1).AppendTo(body);  // 'a', a 4-byte match, 'b': 6 bytes
  ExpectCorrupt(Container(5, body), "output overrun");
}

TEST(DeflateTest, MatchPastDeclaredSizeRejected) {
  Bytes body;
  LzBlock(1).AppendTo(body);
  ExpectCorrupt(Container(4, body), "output overrun");
}

TEST(DeflateTest, LengthSymbolWithoutDistanceTableRejected) {
  HandBlock block;
  block.litlen['a'] = 1;
  block.litlen[kLength4] = 1;
  block.symbols = {'a', kLength4};  // a match, with no distance table
  Bytes body;
  block.AppendTo(body);
  ExpectCorrupt(Container(5, body), "match without distance table");
}

TEST(DeflateTest, MatchBeforeAnyOutputRejected) {
  HandBlock block;
  block.litlen['a'] = 1;
  block.litlen[kLength4] = 1;
  block.dist[kDistance1] = 1;
  block.symbols = {kLength4, 'a'};
  Bytes body;
  block.AppendTo(body);
  ExpectCorrupt(Container(5, body), "distance exceeds output");
}

TEST(DeflateTest, PayloadEndingInsideLiteralBlockRejected) {
  // 200 two-bit codes fill 50 bytes; the 45 left hold 180 codes, and bits
  // enough for the token count.
  Bytes body;
  LiteralBlock(200, 2).AppendTo(body, 5);
  ExpectCorrupt(Container(200, body), "stream exhausted");
}

TEST(DeflateTest, PayloadEndingInsideLzBlockRejected) {
  Bytes body;
  LzBlock(60).AppendTo(body, 5);  // 1 + 60 x 5 bits: 38 bytes
  ExpectCorrupt(Container(301, body), "stream exhausted");
}

TEST(DeflateTest, DeclaredSizeLargerThanTheBlocksRejected) {
  Bytes body;
  LiteralBlock(10).AppendTo(body);
  ExpectCorrupt(Container(11, body), "stream ended before payload");
}

TEST(DeflateTest, StoredBlockPastDeclaredSizeRejected) {
  Bytes body;
  PutU8(body, 0);
  PutVarint(body, 6);
  AppendBytes(body, BytesFromString("stored"));
  ExpectCorrupt(Container(5, body), "size mismatch");
}

/// The kinds of block `encoded` holds: 's' stored, 'l' literal-only, 'z'
/// LZ (a distance table).
std::set<char> BlockKinds(const Bytes& encoded) {
  std::set<char> kinds;
  ByteReader reader(encoded);
  reader.GetVarint();
  while (!reader.AtEnd()) {
    if (reader.GetU8() == 0) {
      reader.GetRaw(reader.GetVarint());
      kinds.insert('s');
      continue;
    }
    reader.GetVarint();
    reader.GetBlock();
    const auto dist =
        DeserializeCodeLengths(reader.GetBlock(), kDistAlphabet);
    reader.GetBlock();
    const bool lz =
        std::any_of(dist.begin(), dist.end(), [](auto l) { return l != 0; });
    kinds.insert(lz ? 'z' : 'l');
  }
  return kinds;
}

/// Whether the parse Compress codes `data` with has a match at a distance
/// in [low, high].
bool HasMatchAt(ByteSpan data, std::size_t low, std::size_t high) {
  const std::vector<LzToken> tokens = LzParse(data, LzParams::Default());
  return std::any_of(tokens.begin(), tokens.end(), [&](const LzToken& t) {
    return !t.IsLiteral() && t.distance >= low && t.distance <= high;
  });
}

/// Decoding `stream` throws CorruptStreamError or returns exactly the bytes
/// it declares; any other exception escapes and fails the test.
bool DecodesOrRejects(const Bytes& stream) {
  Bytes out;
  try {
    out = DeflateCodec().Decompress(stream);
  } catch (const CorruptStreamError&) {
    return true;
  }
  ByteReader reader(stream);
  return out.size() == reader.GetVarint();
}

/// Every truncation of `encoded`, and every change of one byte to each of
/// `values(original)`, decodes or is rejected.
template <typename Values>
void SweepTruncationsAndByteChanges(const Bytes& encoded, Values values) {
  for (std::size_t size = 0; size < encoded.size(); ++size) {
    const Bytes cut(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(size));
    ASSERT_TRUE(DecodesOrRejects(cut)) << "truncated to " << size;
  }
  for (std::size_t at = 0; at < encoded.size(); ++at) {
    Bytes changed = encoded;
    const std::uint8_t original = std::to_integer<std::uint8_t>(encoded[at]);
    for (const std::uint8_t value : values(original)) {
      changed[at] = std::byte{value};
      ASSERT_TRUE(DecodesOrRejects(changed))
          << "byte " << at << " set to " << unsigned{value};
    }
  }
}

/// Every other byte value.
std::vector<std::uint8_t> AllOtherValues(std::uint8_t original) {
  std::vector<std::uint8_t> values;
  for (unsigned v = 0; v < 256; ++v) {
    if (v != original) values.push_back(static_cast<std::uint8_t>(v));
  }
  return values;
}

TEST(DeflateSweepTest, EveryBlockKindDecodesOrRejectsEveryDamage) {
  Rng rng(21);
  const auto noise = [&](std::size_t n, unsigned symbols) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::byte>(rng.NextBelow(symbols));
    return out;
  };
  const DeflateCodec codec;
  // Runs of one byte: distance-1 matches.
  Bytes runs;
  for (int run = 0; run < 24; ++run) {
    AppendBytes(runs, Bytes(3 + rng.NextBelow(30), noise(1, 256)[0]));
  }
  // A period-3 pattern, and a 16-byte phrase, each with noise between.
  Bytes short_period;
  Bytes long_period;
  const Bytes phrase = noise(16, 256);
  for (int i = 0; i < 24; ++i) {
    AppendBytes(short_period, BytesFromString("abcabcabcabc"));
    AppendBytes(short_period, noise(2, 256));
    AppendBytes(long_period, phrase);
    AppendBytes(long_period, noise(2, 256));
  }
  ASSERT_TRUE(HasMatchAt(runs, 1, 1));
  ASSERT_TRUE(HasMatchAt(short_period, 2, 7));
  ASSERT_TRUE(HasMatchAt(long_period, 8, kLzWindowSize));

  const std::vector<std::pair<Bytes, std::set<char>>> containers = {
      {codec.Compress(noise(200, 256)), {'s'}},
      {DeflateCodec::CompressLiterals(noise(600, 16)), {'l'}},
      {codec.Compress(runs), {'z'}},
      {codec.Compress(short_period), {'z'}},
      {codec.Compress(long_period), {'z'}},
  };
  for (const auto& [encoded, kinds] : containers) {
    ASSERT_EQ(BlockKinds(encoded), kinds);
    SweepTruncationsAndByteChanges(encoded, AllOtherValues);
  }
}

TEST(DeflateSweepTest, MixedColumnCallDecodesOrRejectsEveryDamage) {
  // Two columns of one probe window each: a constant column codes as LZ,
  // a two-letter noise column as literals. Its container is some 2 KiB, so
  // each byte takes the eight one-bit flips, 0x00 and 0xff.
  Rng rng(22);
  Bytes data(16384, 0x40_b);
  for (int i = 0; i < 16384; ++i) {
    data.push_back(static_cast<std::byte>(rng.NextBelow(2)));
  }
  const Bytes encoded = DeflateCodec().CompressAdaptive(data, 16384);
  ASSERT_EQ(BlockKinds(encoded), (std::set<char>{'l', 'z'}));
  ASSERT_EQ(DeflateCodec().Decompress(encoded), data);
  SweepTruncationsAndByteChanges(encoded, [](std::uint8_t original) {
    std::vector<std::uint8_t> values{0x00, 0xff};
    for (unsigned bit = 0; bit < 8; ++bit) {
      values.push_back(static_cast<std::uint8_t>(original ^ (1u << bit)));
    }
    std::erase(values, original);
    return values;
  });
}

TEST(DeflateTest, EmptyInputProducesDecodableStream) {
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress({});
  EXPECT_LE(compressed.size(), 2u);
  EXPECT_TRUE(codec.Decompress(compressed).empty());
}

}  // namespace
}  // namespace primacy
