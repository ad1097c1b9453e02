#include "deflate/deflate.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "bitstream/bit_io.h"
#include "bitstream/byte_io.h"
#include "huffman/huffman.h"
#include "util/error.h"

namespace primacy {
namespace {

// Deflate's standard length/distance code tables (RFC 1951 section 3.2.5).
constexpr std::size_t kNumLengthCodes = 29;
constexpr std::array<std::uint16_t, kNumLengthCodes> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, kNumLengthCodes> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

constexpr std::size_t kNumDistCodes = 30;
constexpr std::array<std::uint32_t, kNumDistCodes> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, kNumDistCodes> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Literal/length alphabet: 256 literals + 29 length codes.
constexpr std::size_t kLitLenAlphabet = 256 + kNumLengthCodes;

constexpr std::uint8_t kBlockStored = 0;
constexpr std::uint8_t kBlockHuffman = 1;

/// Tokens per Huffman block: large enough to amortize table headers, small
/// enough that statistics stay locally adaptive.
constexpr std::size_t kTokensPerBlock = 1u << 16;

std::size_t LengthCodeFor(std::size_t length) {
  PRIMACY_CHECK(length >= kLzMinMatch && length <= kLzMaxMatch);
  // Linear scan is fine: called through a small cached table below.
  for (std::size_t code = kNumLengthCodes; code-- > 0;) {
    if (length >= kLengthBase[code]) return code;
  }
  throw InternalError("deflate: unreachable length code");
}

std::size_t DistCodeFor(std::size_t distance) {
  PRIMACY_CHECK(distance >= 1 && distance <= kLzWindowSize);
  for (std::size_t code = kNumDistCodes; code-- > 0;) {
    if (distance >= kDistBase[code]) return code;
  }
  throw InternalError("deflate: unreachable distance code");
}

/// Precomputed length->code table (length in [3,258]).
const std::array<std::uint8_t, kLzMaxMatch + 1>& LengthCodeTable() {
  static const auto table = [] {
    std::array<std::uint8_t, kLzMaxMatch + 1> t{};
    for (std::size_t len = kLzMinMatch; len <= kLzMaxMatch; ++len) {
      t[len] = static_cast<std::uint8_t>(LengthCodeFor(len));
    }
    return t;
  }();
  return table;
}

/// Symbol statistics of a token run, counted as EncodeBlock codes it.
struct TokenFrequencies {
  std::vector<std::uint64_t> litlen =
      std::vector<std::uint64_t>(kLitLenAlphabet, 0);
  std::vector<std::uint64_t> dist =
      std::vector<std::uint64_t>(kNumDistCodes, 0);
  std::uint64_t extra_bits = 0;  // length and distance extra bits

  void Add(std::span<const LzToken> tokens) {
    const auto& len_code = LengthCodeTable();
    for (const LzToken& token : tokens) {
      if (token.IsLiteral()) {
        ++litlen[token.literal];
        continue;
      }
      const std::size_t lcode = len_code[token.length];
      const std::size_t dcode = DistCodeFor(token.distance);
      ++litlen[256 + lcode];
      ++dist[dcode];
      extra_bits += std::uint64_t{kLengthExtra[lcode]} + kDistExtra[dcode];
    }
  }
};

/// Appends one Huffman block: the token count, both code-length tables and
/// the bit-packed tokens. A literal-only block has an all-zero distance
/// table, which the decoder reads as "no distance code".
void PutHuffmanBlock(Bytes& out, std::size_t token_count,
                     std::span<const std::uint8_t> litlen_lengths,
                     std::span<const std::uint8_t> dist_lengths,
                     ByteSpan payload) {
  PutU8(out, kBlockHuffman);
  PutVarint(out, token_count);
  PutBlock(out, SerializeCodeLengths(litlen_lengths));
  PutBlock(out, SerializeCodeLengths(dist_lengths));
  PutBlock(out, payload);
}

void EncodeBlock(Bytes& out, std::span<const LzToken> tokens) {
  TokenFrequencies freq;
  freq.Add(tokens);
  const auto litlen_lengths = BuildCodeLengths(freq.litlen);
  const auto dist_lengths = BuildCodeLengths(freq.dist);
  const HuffmanEncoder litlen_encoder(litlen_lengths);

  BitWriter writer;
  // A distance encoder only exists when the block contains matches.
  std::optional<HuffmanEncoder> dist_encoder;
  if (std::any_of(dist_lengths.begin(), dist_lengths.end(),
                  [](std::uint8_t l) { return l != 0; })) {
    dist_encoder.emplace(dist_lengths);
  }

  const auto& len_code = LengthCodeTable();
  for (const LzToken& token : tokens) {
    if (token.IsLiteral()) {
      litlen_encoder.Encode(writer, token.literal);
      continue;
    }
    const std::size_t lcode = len_code[token.length];
    litlen_encoder.Encode(writer, 256 + lcode);
    writer.WriteBits(token.length - kLengthBase[lcode], kLengthExtra[lcode]);
    const std::size_t dcode = DistCodeFor(token.distance);
    dist_encoder->Encode(writer, dcode);
    writer.WriteBits(token.distance - kDistBase[dcode], kDistExtra[dcode]);
  }
  PutHuffmanBlock(out, tokens.size(), litlen_lengths, dist_lengths,
                  writer.Finish());
}

/// Whole-stream stored fallback: never expand beyond input + small header.
Bytes StoredIfExpanded(Bytes out, ByteSpan data) {
  if (out.size() <= data.size() + 16) return out;
  Bytes stored;
  PutVarint(stored, data.size());
  PutU8(stored, kBlockStored);
  PutVarint(stored, data.size());
  AppendBytes(stored, data);
  return stored;
}

Bytes CompressLz(ByteSpan data, const LzParams& params) {
  Bytes out;
  PutVarint(out, data.size());
  if (data.empty()) return out;

  const std::vector<LzToken> tokens = LzParse(data, params);
  for (std::size_t begin = 0; begin < tokens.size();
       begin += kTokensPerBlock) {
    const std::size_t count =
        std::min(kTokensPerBlock, tokens.size() - begin);
    EncodeBlock(out, std::span(tokens).subspan(begin, count));
  }
  return StoredIfExpanded(std::move(out), data);
}

/// Sample the LZ-or-literal probe reads: up to kProbeWindows evenly spaced
/// windows of kProbeWindow bytes, or the whole input when it fits in them.
constexpr std::size_t kProbeWindow = 16 * 1024;
constexpr std::size_t kProbeWindows = 4;

/// Payload bits of `freq`'s symbols under the Huffman code built for them.
std::uint64_t CodedBits(std::span<const std::uint64_t> freq) {
  const std::vector<std::uint8_t> lengths = BuildCodeLengths(freq);
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) bits += freq[s] * lengths[s];
  return bits;
}

/// Whether an LZ parse codes `data` in fewer payload bits than literal-only
/// Huffman, estimated on the probe sample: each window gets an
/// LzParams::Fast() parse and a byte histogram, each priced by its own
/// symbol statistics, as the encoder codes each block with its own tables.
/// The parse sees up to kLzWindowSize bytes before its window as history, so
/// it can reach every repeat the full parse can. The fast parse finds fewer
/// matches than the full one, and a tie goes to literals, the cheaper path.
bool LzPays(ByteSpan data) {
  std::uint64_t lz_bits = 0;
  std::uint64_t literal_bits = 0;
  const auto price = [&](std::size_t begin, std::size_t size) {
    std::vector<std::uint64_t> literals(256, 0);
    for (const std::byte b : data.subspan(begin, size)) {
      ++literals[std::to_integer<std::size_t>(b)];
    }
    literal_bits += CodedBits(literals);
    const std::size_t history = std::min(begin, kLzWindowSize);
    TokenFrequencies lz;
    lz.Add(LzParse(data.subspan(begin - history, history + size),
                   LzParams::Fast(), history));
    lz_bits += CodedBits(lz.litlen) + CodedBits(lz.dist) + lz.extra_bits;
  };
  if (data.size() <= kProbeWindows * kProbeWindow) {
    price(0, data.size());
  } else {
    const std::size_t stride =
        (data.size() - kProbeWindow) / (kProbeWindows - 1);
    for (std::size_t i = 0; i < kProbeWindows; ++i) {
      price(i * stride, kProbeWindow);
    }
  }
  return lz_bits < literal_bits;
}

Bytes DecompressImpl(ByteSpan data) {
  ByteReader reader(data);
  const std::uint64_t original_size = reader.GetVarint();
  Bytes out;
  out.reserve(std::min<std::uint64_t>(original_size, 1u << 26));
  std::vector<LzToken> tokens;

  while (out.size() < original_size) {
    if (reader.AtEnd()) {
      throw CorruptStreamError("deflate: stream ended before payload");
    }
    const std::uint8_t type = reader.GetU8();
    if (type == kBlockStored) {
      const std::uint64_t count = reader.GetVarint();
      const ByteSpan raw = reader.GetRaw(count);
      AppendBytes(out, raw);
      continue;
    }
    if (type != kBlockHuffman) {
      throw CorruptStreamError("deflate: unknown block type");
    }
    const std::uint64_t token_count = reader.GetVarint();
    const auto litlen_lengths =
        DeserializeCodeLengths(reader.GetBlock(), kLitLenAlphabet);
    const auto dist_lengths =
        DeserializeCodeLengths(reader.GetBlock(), kNumDistCodes);
    const ByteSpan payload = reader.GetBlock();
    // Every token costs at least one bit; a corrupt count must not drive an
    // unbounded decode loop off zero-padded peeks.
    if (token_count > 8 * payload.size()) {
      throw CorruptStreamError("deflate: token count exceeds payload bits");
    }

    const HuffmanDecoder litlen_decoder(litlen_lengths);
    const bool has_dist =
        std::any_of(dist_lengths.begin(), dist_lengths.end(),
                    [](std::uint8_t l) { return l != 0; });
    std::optional<HuffmanDecoder> dist_decoder;
    if (has_dist) dist_decoder.emplace(dist_lengths);

    BitReader bits(payload);
    for (std::uint64_t i = 0; i < token_count; ++i) {
      const std::size_t symbol = litlen_decoder.Decode(bits);
      if (symbol < 256) {
        if (out.size() >= original_size) {
          throw CorruptStreamError("deflate: output overrun");
        }
        out.push_back(static_cast<std::byte>(symbol));
        continue;
      }
      const std::size_t lcode = symbol - 256;
      if (lcode >= kNumLengthCodes) {
        throw CorruptStreamError("deflate: bad length symbol");
      }
      const std::size_t length =
          kLengthBase[lcode] + bits.ReadBits(kLengthExtra[lcode]);
      if (!dist_decoder) {
        throw CorruptStreamError("deflate: match without distance table");
      }
      const std::size_t dcode = dist_decoder->Decode(bits);
      const std::size_t distance =
          kDistBase[dcode] + bits.ReadBits(kDistExtra[dcode]);
      if (distance == 0 || distance > out.size()) {
        throw CorruptStreamError("deflate: distance exceeds output");
      }
      if (out.size() + length > original_size) {
        throw CorruptStreamError("deflate: output overrun");
      }
      const std::size_t src = out.size() - distance;
      for (std::size_t j = 0; j < length; ++j) out.push_back(out[src + j]);
    }
  }
  if (out.size() != original_size) {
    throw CorruptStreamError("deflate: size mismatch");
  }
  return out;
}

}  // namespace

Bytes DeflateCodec::Compress(ByteSpan data) const {
  return CompressLz(data, params_);
}

Bytes DeflateCodec::CompressAdaptive(ByteSpan data) const {
  return LzPays(data) ? CompressLz(data, params_) : CompressLiterals(data);
}

// zlib's Z_HUFFMAN_ONLY. The parse of LzParams{0, 3, false} is all literals,
// so each block codes kTokensPerBlock bytes; this goes from each block's
// byte histogram to code lengths to bits, with no parse and no token vector.
Bytes DeflateCodec::CompressLiterals(ByteSpan data) {
  Bytes out;
  PutVarint(out, data.size());
  const std::vector<std::uint8_t> no_distances(kNumDistCodes, 0);
  for (std::size_t begin = 0; begin < data.size(); begin += kTokensPerBlock) {
    const ByteSpan block =
        data.subspan(begin, std::min(kTokensPerBlock, data.size() - begin));
    std::vector<std::uint64_t> freq(kLitLenAlphabet, 0);
    for (const std::byte b : block) ++freq[std::to_integer<std::size_t>(b)];
    const auto lengths = BuildCodeLengths(freq);
    const HuffmanEncoder encoder(lengths);
    BitWriter writer;
    for (const std::byte b : block) {
      encoder.Encode(writer, std::to_integer<std::size_t>(b));
    }
    PutHuffmanBlock(out, block.size(), lengths, no_distances,
                    writer.Finish());
  }
  return StoredIfExpanded(std::move(out), data);
}

Bytes DeflateCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data);
}

Bytes DeflateFastCodec::Compress(ByteSpan data) const {
  return CompressLz(data, LzParams::Fast());
}

Bytes DeflateFastCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data);
}

}  // namespace primacy
