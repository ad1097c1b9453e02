#include "deflate/deflate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
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

/// One block of a container: its kind ('s' stored, 'l' literal-only, 'z'
/// LZ), where its payload lies in the container and, when its header and
/// place tell, where its bytes lie in the output. A stored or literal-only
/// header gives the block's output size and an LZ header does not, so output
/// extents are known before the first LZ block (counted from the front), the
/// first LZ block's start included, and after the last one (counted back
/// from the declared size).
struct BlockExtent {
  char kind = 's';
  std::size_t payload_begin = 0;
  std::size_t payload_end = 0;
  std::size_t out_size = 0;  // 0 for an LZ block
  std::optional<std::size_t> out_begin;
};

std::vector<BlockExtent> Layout(const Bytes& encoded) {
  std::vector<BlockExtent> blocks;
  ByteReader reader(encoded);
  const std::uint64_t declared = reader.GetVarint();
  const auto at = [&](ByteSpan span) {
    return static_cast<std::size_t>(span.data() - encoded.data());
  };
  while (!reader.AtEnd()) {
    BlockExtent block;
    if (reader.GetU8() == 0) {
      const ByteSpan raw = reader.GetRaw(reader.GetVarint());
      block.payload_begin = at(raw);
      block.payload_end = at(raw) + raw.size();
      block.out_size = raw.size();
    } else {
      const std::uint64_t tokens = reader.GetVarint();
      const auto litlen =
          DeserializeCodeLengths(reader.GetBlock(), kLitLenAlphabet);
      const auto dist =
          DeserializeCodeLengths(reader.GetBlock(), kDistAlphabet);
      const ByteSpan payload = reader.GetBlock();
      const auto any = [](auto first, auto last) {
        return std::any_of(first, last, [](auto l) { return l != 0; });
      };
      const bool lz = any(dist.begin(), dist.end()) ||
                      any(litlen.begin() + 256, litlen.end());
      block.kind = lz ? 'z' : 'l';
      block.payload_begin = at(payload);
      block.payload_end = at(payload) + payload.size();
      block.out_size = lz ? 0 : static_cast<std::size_t>(tokens);
    }
    blocks.push_back(block);
  }
  std::size_t front = 0;
  for (BlockExtent& block : blocks) {
    block.out_begin = front;
    if (block.kind == 'z') break;
    front += block.out_size;
  }
  std::size_t back = static_cast<std::size_t>(declared);
  for (auto block = blocks.rbegin();
       block != blocks.rend() && block->kind != 'z'; ++block) {
    back -= block->out_size;
    block->out_begin = back;
  }
  return blocks;
}

/// The kinds of block `encoded` holds.
std::set<char> BlockKinds(const Bytes& encoded) {
  std::set<char> kinds;
  for (const BlockExtent& block : Layout(encoded)) kinds.insert(block.kind);
  return kinds;
}

/// A read window as DecompressWindow takes it.
struct Window {
  std::size_t column = 0;
  std::size_t first = 0;
  std::size_t count = 0;

  /// Whether output byte `i` lies in [c·column + first, c·column + first +
  /// count) for some column c.
  bool Holds(std::size_t i) const {
    if (i < first) return false;
    const std::size_t offset = i - first;
    return column == 0 ? offset < count : offset % column < count;
  }
};

std::ostream& operator<<(std::ostream& os, const Window& w) {
  return os << "window(column " << w.column << ", first " << w.first
            << ", count " << w.count << ")";
}

Bytes DecodeThrough(const Bytes& stream, const Window& w) {
  return DeflateCodec().DecompressWindow(stream, w.column, w.first, w.count);
}

/// `got` has `full`'s size and matches it at every byte of `w`.
::testing::AssertionResult ExactInside(const Bytes& got, const Bytes& full,
                                       const Window& w) {
  if (got.size() != full.size()) {
    return ::testing::AssertionFailure()
           << w << ": " << got.size() << " bytes, not " << full.size();
  }
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (w.Holds(i) && got[i] != full[i]) {
      return ::testing::AssertionFailure() << w << ": byte " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The container byte ranges of the payloads a decode through `w` cannot
/// need: literal-only blocks with a known output extent that holds no byte
/// of `w` and ends at least kLzWindowSize before the next LZ block (or has
/// none after it). Literal-only blocks whose extent is unknown are left out.
std::vector<std::pair<std::size_t, std::size_t>> UnneededPayloads(
    const std::vector<BlockExtent>& blocks, const Window& w) {
  std::vector<std::pair<std::size_t, std::size_t>> payloads;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockExtent& block = blocks[b];
    if (block.kind != 'l' || !block.out_begin) continue;
    const std::size_t begin = *block.out_begin;
    const std::size_t end = begin + block.out_size;
    bool needed = false;
    for (std::size_t i = begin; i < end && !needed; ++i) needed = w.Holds(i);
    for (std::size_t next = b + 1; next < blocks.size(); ++next) {
      if (blocks[next].kind != 'z') continue;
      needed = needed || !blocks[next].out_begin ||
               *blocks[next].out_begin - end < kLzWindowSize;
      break;
    }
    if (!needed) payloads.emplace_back(block.payload_begin, block.payload_end);
  }
  return payloads;
}

/// Whether the parse Compress codes `data` with has a match at a distance
/// in [low, high].
bool HasMatchAt(ByteSpan data, std::size_t low, std::size_t high) {
  const std::vector<LzToken> tokens = LzParse(data, LzParams::Default());
  return std::any_of(tokens.begin(), tokens.end(), [&](const LzToken& t) {
    return !t.IsLiteral() && t.distance >= low && t.distance <= high;
  });
}

/// Decoding `stream`, whole or through `w`, throws CorruptStreamError or
/// returns exactly the bytes it declares; any other exception escapes and
/// fails the test.
bool DecodesOrRejects(const Bytes& stream,
                      const std::optional<Window>& w = {}) {
  Bytes out;
  try {
    out = w ? DecodeThrough(stream, *w) : DeflateCodec().Decompress(stream);
  } catch (const CorruptStreamError&) {
    return true;
  }
  ByteReader reader(stream);
  return out.size() == reader.GetVarint();
}

/// Every truncation of `encoded`, and every change of one byte to each of
/// `values(original)`, decodes or is rejected, whole and through each of
/// `windows`. A change inside the payload of a block that a window cannot
/// need leaves that window's bytes as they were.
template <typename Values>
void SweepTruncationsAndByteChanges(const Bytes& encoded, Values values,
                                    const std::vector<Window>& windows) {
  const Bytes full = DeflateCodec().Decompress(encoded);
  const std::vector<BlockExtent> blocks = Layout(encoded);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> unneeded;
  for (const Window& w : windows) {
    unneeded.push_back(UnneededPayloads(blocks, w));
  }
  const auto in_unneeded_payload = [&](std::size_t w, std::size_t at) {
    return std::any_of(unneeded[w].begin(), unneeded[w].end(),
                       [at](const auto& p) {
                         return at >= p.first && at < p.second;
                       });
  };
  for (std::size_t size = 0; size < encoded.size(); ++size) {
    const Bytes cut(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(size));
    ASSERT_TRUE(DecodesOrRejects(cut)) << "truncated to " << size;
    for (const Window& w : windows) {
      ASSERT_TRUE(DecodesOrRejects(cut, w)) << "truncated to " << size
                                            << ", " << w;
    }
  }
  for (std::size_t at = 0; at < encoded.size(); ++at) {
    Bytes changed = encoded;
    const std::uint8_t original = std::to_integer<std::uint8_t>(encoded[at]);
    for (const std::uint8_t value : values(original)) {
      changed[at] = std::byte{value};
      ASSERT_TRUE(DecodesOrRejects(changed))
          << "byte " << at << " set to " << unsigned{value};
      for (std::size_t w = 0; w < windows.size(); ++w) {
        if (!in_unneeded_payload(w, at)) {
          ASSERT_TRUE(DecodesOrRejects(changed, windows[w]))
              << "byte " << at << " set to " << unsigned{value} << ", "
              << windows[w];
          continue;
        }
        Bytes got;
        ASSERT_NO_THROW(got = DecodeThrough(changed, windows[w]))
            << "byte " << at << " set to " << unsigned{value} << ", "
            << windows[w];
        ASSERT_TRUE(ExactInside(got, full, windows[w]))
            << "byte " << at << " set to " << unsigned{value};
      }
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
  // An empty window needs no literal-only block, and the second byte
  // needs every block here.
  const std::vector<Window> windows = {{0, 0, 0}, {0, 1, 1}};
  for (const auto& [encoded, kinds] : containers) {
    ASSERT_EQ(BlockKinds(encoded), kinds);
    SweepTruncationsAndByteChanges(encoded, AllOtherValues, windows);
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
  // The LZ column alone, which leaves the literal column's block out, and
  // 16 bytes of each column, which needs both.
  const std::vector<Window> windows = {{0, 0, 16384}, {16384, 8000, 16}};
  SweepTruncationsAndByteChanges(
      encoded,
      [](std::uint8_t original) {
        std::vector<std::uint8_t> values{0x00, 0xff};
        for (unsigned bit = 0; bit < 8; ++bit) {
          values.push_back(static_cast<std::uint8_t>(original ^ (1u << bit)));
        }
        std::erase(values, original);
        return values;
      },
      windows);
}

/// Windows whose ends fall at, one byte before and one byte after every
/// position of `edges`, 1 or `length` bytes long, inside [0, limit).
std::vector<std::pair<std::size_t, std::size_t>> WindowsAround(
    const std::set<std::size_t>& edges, std::size_t length,
    std::size_t limit) {
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  for (const std::size_t edge : edges) {
    for (const std::size_t end : {edge - 1, edge, edge + 1}) {
      for (const std::size_t count : {std::size_t{1}, length}) {
        if (end <= limit && end >= count) {
          windows.emplace_back(end - count, count);  // ends at `end`
        }
        if (end + count <= limit) windows.emplace_back(end, count);
      }
    }
  }
  return windows;
}

/// Every window around every 64 KiB block edge and every column edge of
/// `data`'s `columns` columns, as one column and as `columns` columns,
/// decodes `encoded` exactly inside itself and to the declared size.
void ExpectExactAroundEveryEdge(const Bytes& encoded, const Bytes& data,
                                std::size_t columns) {
  ASSERT_EQ(DeflateCodec().Decompress(encoded), data);
  const std::size_t column = data.size() / columns;
  std::set<std::size_t> edges;
  for (std::size_t c = 0; c <= columns; ++c) {
    for (std::size_t at = c * column; at <= data.size(); at += 1u << 16) {
      edges.insert(at);
    }
  }
  for (const auto& [first, count] : WindowsAround(edges, 300, data.size())) {
    const Window w{0, first, count};
    ASSERT_TRUE(ExactInside(DecodeThrough(encoded, w), data, w));
  }
  std::set<std::size_t> in_column;
  for (const std::size_t edge : edges) {
    in_column.insert(edge % column == 0 && edge > 0 ? column : edge % column);
  }
  for (const auto& [first, count] : WindowsAround(in_column, 300, column)) {
    const Window w{column, first, count};
    ASSERT_TRUE(ExactInside(DecodeThrough(encoded, w), data, w));
  }
}

// Three columns of 65,553 bytes: block edges fall inside the columns.
constexpr std::size_t kWindowColumn = 65536 + 17;

TEST(DeflateWindowTest, StoredContainerIsExactInEveryWindow) {
  const Bytes data = AllInputGenerators()[2].make(3 * kWindowColumn, 31);
  const Bytes encoded = DeflateCodec().Compress(data);
  ASSERT_EQ(BlockKinds(encoded), std::set<char>{'s'});
  ExpectExactAroundEveryEdge(encoded, data, 3);
}

TEST(DeflateWindowTest, MultiBlockLiteralContainerIsExactInEveryWindow) {
  const Bytes data = AllInputGenerators()[3].make(3 * kWindowColumn, 32);
  const Bytes encoded = DeflateCodec::CompressLiterals(data);
  ASSERT_EQ(BlockKinds(encoded), std::set<char>{'l'});
  ASSERT_EQ(Layout(encoded).size(), 4u);
  ExpectExactAroundEveryEdge(encoded, data, 3);
}

TEST(DeflateWindowTest, LzContainerIsExactInEveryWindow) {
  // Skewed noise parses to about one token per byte, with short matches:
  // several LZ blocks.
  const Bytes data = AllInputGenerators()[3].make(3 * kWindowColumn, 33);
  const Bytes encoded = DeflateCodec().Compress(data);
  ASSERT_EQ(BlockKinds(encoded), std::set<char>{'z'});
  ASSERT_GT(Layout(encoded).size(), 1u);
  ExpectExactAroundEveryEdge(encoded, data, 3);
}

TEST(DeflateWindowTest, MixedContainerIsExactInEveryWindow) {
  // DeflateColumnTest.LzColumnMatchesReachIntoTheColumnBefore's input: a
  // literal column, then an LZ column whose matches copy from it 20 KiB
  // back. A window in the LZ column alone needs the literal block too.
  const Bytes noise = AllInputGenerators()[3].make(20000, 13);
  Bytes data = noise;
  AppendBytes(data, noise);
  const Bytes encoded = DeflateCodec().CompressAdaptive(data, noise.size());
  ASSERT_EQ(Layout(encoded).front().kind, 'l');
  ASSERT_EQ(Layout(encoded).back().kind, 'z');
  ExpectExactAroundEveryEdge(encoded, data, 2);

  // The same shape across two literal blocks: the LZ column repeats the
  // literal column's last 30,000 bytes, which straddle its block edge, and
  // then its own first 30,000.
  const Bytes wide = AllInputGenerators()[3].make(70000, 14);
  Bytes repeats = wide;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    repeats.push_back(wide[40000 + i % 30000]);
  }
  const Bytes wide_encoded =
      DeflateCodec().CompressAdaptive(repeats, wide.size());
  const std::vector<BlockExtent> blocks = Layout(wide_encoded);
  ASSERT_EQ(blocks.size(), 3u);
  ASSERT_EQ(blocks[0].kind, 'l');
  ASSERT_EQ(blocks[1].kind, 'l');
  ASSERT_EQ(blocks[2].kind, 'z');
  ExpectExactAroundEveryEdge(wide_encoded, repeats, 2);
}

TEST(DeflateWindowTest, BlocksOutsideTheWindowAreNotDecoded) {
  // The middle block declares 32 tokens, which its 32 payload bits admit,
  // but codes them in 2 bits each: decoding it runs out of bits. A window
  // that holds none of its bytes [100, 132) decodes. Columns of 91 bytes
  // put window edges at 91 and 182 as well.
  Bytes body;
  LiteralBlock(100).AppendTo(body);
  LiteralBlock(16, 2).AppendTo(body, 0, 32);
  LiteralBlock(50).AppendTo(body);
  const Bytes stream = Container(182, body);
  ExpectCorrupt(stream, "stream exhausted");
  Bytes outer;
  LiteralBlock(100).AppendTo(outer);
  LiteralBlock(32, 2).AppendTo(outer);
  LiteralBlock(50).AppendTo(outer);
  const Bytes full = DeflateCodec().Decompress(Container(182, outer));
  for (const Window w : {Window{0, 0, 100}, Window{0, 99, 1},
                         Window{0, 132, 50}, Window{0, 150, 0},
                         Window{91, 0, 9}, Window{91, 82, 9},
                         Window{100, 32, 68}, Window{0, 0, 0}}) {
    Bytes got;
    ASSERT_NO_THROW(got = DecodeThrough(stream, w)) << w;
    EXPECT_TRUE(ExactInside(got, full, w));
  }
  for (const Window w : {Window{0, 0, 101}, Window{0, 131, 1},
                         Window{0, 99, 2}, Window{0, 110, 1},
                         Window{91, 0, 10}, Window{91, 40, 1},
                         Window{100, 31, 69}, Window{0, 0, 182}}) {
    EXPECT_THROW(DecodeThrough(stream, w), CorruptStreamError) << w;
  }
}

TEST(DeflateWindowTest, LzBlockDecodesTheSkippedBlocksItCanReach) {
  // The undecodable block of BlocksOutsideTheWindowAreNotDecoded ends
  // `gap` bytes, all stored, before an LZ block ("a" then "aaaab"), and the
  // window holds only the LZ block's bytes. A match may reach 32 KiB back,
  // so that block needs the undecodable one at 32,767 bytes, not at 32,768.
  for (const std::size_t gap : {kLzWindowSize - 1, kLzWindowSize}) {
    Bytes body;
    LiteralBlock(16, 2).AppendTo(body, 0, 32);
    PutU8(body, 0);
    PutVarint(body, gap);
    AppendBytes(body, Bytes(gap, 0x5a_b));
    LzBlock(1).AppendTo(body);
    const Bytes stream = Container(32 + gap + 6, body);
    const Window w{0, 32 + gap, 6};
    if (gap < kLzWindowSize) {
      EXPECT_THROW(DecodeThrough(stream, w), CorruptStreamError);
      continue;
    }
    const Bytes got = DecodeThrough(stream, w);
    ASSERT_EQ(got.size(), 32 + gap + 6);
    EXPECT_EQ(StringFromBytes(Bytes(got.end() - 6, got.end())), "aaaaab");
  }
}

TEST(DeflateTest, EmptyInputProducesDecodableStream) {
  const DeflateCodec codec;
  const Bytes compressed = codec.Compress({});
  EXPECT_LE(compressed.size(), 2u);
  EXPECT_TRUE(codec.Decompress(compressed).empty());
}

}  // namespace
}  // namespace primacy
