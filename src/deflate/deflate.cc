#include "deflate/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
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

/// Appends the blocks of an LZ parse of data[start, end), with
/// data[0, start) as the match history, kTokensPerBlock tokens per block.
void PutLzBlocks(Bytes& out, ByteSpan data, std::size_t start,
                 const LzParams& params) {
  const std::vector<LzToken> tokens = LzParse(data, params, start);
  for (std::size_t begin = 0; begin < tokens.size();
       begin += kTokensPerBlock) {
    const std::size_t count =
        std::min(kTokensPerBlock, tokens.size() - begin);
    EncodeBlock(out, std::span(tokens).subspan(begin, count));
  }
}

/// Appends literal-only blocks coding `data`, zlib's Z_HUFFMAN_ONLY. The
/// parse of LzParams{0, 3, false} is all literals, so each block codes
/// kTokensPerBlock bytes; this goes from each block's byte histogram to code
/// lengths to bits, with no parse and no token vector.
void PutLiteralBlocks(Bytes& out, ByteSpan data) {
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
}

Bytes CompressLz(ByteSpan data, const LzParams& params) {
  Bytes out;
  PutVarint(out, data.size());
  PutLzBlocks(out, data, 0, params);
  return StoredIfExpanded(std::move(out), data);
}

/// Sample the LZ-or-literal probe reads of a range: up to kProbeWindows
/// evenly spaced windows of kProbeWindow bytes, or the whole range when it
/// fits in them. A column gets a probe of its own only when it fills at
/// least one window.
constexpr std::size_t kProbeWindow = 16 * 1024;
constexpr std::size_t kProbeWindows = 4;

/// Payload bits of `freq`'s symbols under the Huffman code built for them.
std::uint64_t CodedBits(std::span<const std::uint64_t> freq) {
  const std::vector<std::uint8_t> lengths = BuildCodeLengths(freq);
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) bits += freq[s] * lengths[s];
  return bits;
}

/// Whether an LZ parse codes data[first, first + count) in fewer payload
/// bits than literal-only Huffman, estimated on the probe sample of that
/// range: each window gets an LzParams::Fast() parse and a byte histogram,
/// each priced by its own symbol statistics, as the encoder codes each block
/// with its own tables. The parse sees up to kLzWindowSize bytes before its
/// window as history, earlier columns included, so it can reach every repeat
/// the full parse can. The fast parse finds fewer matches than the full one,
/// and a tie goes to literals, the cheaper path.
bool LzPays(ByteSpan data, std::size_t first, std::size_t count) {
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
  if (count <= kProbeWindows * kProbeWindow) {
    price(first, count);
  } else {
    const std::size_t stride = (count - kProbeWindow) / (kProbeWindows - 1);
    for (std::size_t i = 0; i < kProbeWindows; ++i) {
      price(first + i * stride, kProbeWindow);
    }
  }
  return lz_bits < literal_bits;
}

/// Copies a match of `length` bytes from `distance` back, inside `out`'s
/// buffer of `capacity` bytes. The bytes it writes may lie past `at` by
/// less than 8 when distance and slack allow 8-byte steps.
void CopyMatch(std::byte* out, std::size_t at, std::size_t length,
               std::size_t distance, std::size_t capacity) {
  std::byte* dst = out + at;
  const std::byte* src = dst - distance;
  if (distance >= 8 && capacity - at >= length + 8) {
    // Each step reads 8 bytes that lie wholly before the ones it writes.
    for (std::byte* const end = dst + length; dst < end; dst += 8, src += 8) {
      std::memcpy(dst, src, 8);
    }
  } else if (distance == 1) {
    std::memset(dst, std::to_integer<int>(*src), length);
  } else {
    for (std::size_t j = 0; j < length; ++j) dst[j] = src[j];
  }
}

/// The output bytes a read needs: `count` bytes from `first` on in every
/// period of `column` bytes, or the one run [first, first + count) for
/// `column` 0. The default is the whole output.
struct Window {
  std::size_t column = 0;
  std::size_t first = 0;
  std::size_t count = std::numeric_limits<std::size_t>::max();

  /// Whether output bytes [begin, end) hold a byte of the window.
  bool Meets(std::size_t begin, std::size_t end) const {
    if (count == 0) return false;
    if (begin < first) return first < end;
    const std::size_t offset = begin - first;
    if (column == 0) return offset < count;
    // `begin` lies `phase` bytes past the start of a window; the next one
    // starts column - phase bytes after it.
    const std::size_t phase = offset % column;
    return phase < count || column - phase < end - begin;
  }
};

/// A literal-only block the window does not meet, left undecoded: where its
/// bytes go, its code and its payload.
struct SkippedBlock {
  std::size_t at = 0;
  std::size_t size = 0;
  HuffmanDecoder decoder;
  ByteSpan payload;
};

/// The one inflate loop: Decompress is the whole window. A literal-only
/// block's token count is its output size, so one that the window does not
/// meet passes every check but the decoding of its code words and is left
/// out, unless a later LZ block starts within kLzWindowSize of its end: a
/// match there may copy from it, so that block decodes it first. Stored and
/// LZ blocks are always processed, since an LZ block's size is known only
/// once it is decoded.
Bytes DecompressImpl(ByteSpan data, const Window& window) {
  ByteReader reader(data);
  const std::uint64_t original_size = reader.GetVarint();
  // `out` grows block by block to what each block can write; `size` counts
  // the bytes decoded, and the buffer is trimmed to it at the end.
  Bytes out;
  out.reserve(std::min<std::uint64_t>(original_size, 1u << 26));
  std::size_t size = 0;
  const auto grow_to = [&](std::size_t capacity) {
    if (out.size() < capacity) out.resize(capacity);
  };
  std::vector<SkippedBlock> skipped;
  const auto out_of_reach = [&](const SkippedBlock& block) {
    return size - (block.at + block.size) >= kLzWindowSize;
  };

  while (size < original_size) {
    if (reader.AtEnd()) {
      throw CorruptStreamError("deflate: stream ended before payload");
    }
    const std::uint8_t type = reader.GetU8();
    if (type == kBlockStored) {
      const std::uint64_t count = reader.GetVarint();
      const ByteSpan raw = reader.GetRaw(count);
      grow_to(size + raw.size());
      std::copy(raw.begin(), raw.end(), out.data() + size);
      size += raw.size();
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

    HuffmanDecoder litlen_decoder(litlen_lengths);
    const auto any_code = [](std::span<const std::uint8_t> lengths) {
      return std::any_of(lengths.begin(), lengths.end(),
                         [](std::uint8_t l) { return l != 0; });
    };
    const bool has_dist = any_code(dist_lengths);
    std::optional<HuffmanDecoder> dist_decoder;
    if (has_dist) dist_decoder.emplace(dist_lengths);
    const std::uint64_t remaining = original_size - size;
    BitReader bits(payload);

    // A block that codes no length symbol and no distance writes one byte
    // per token.
    if (!has_dist && !any_code(std::span(litlen_lengths).subspan(256))) {
      if (token_count > remaining) {
        throw CorruptStreamError("deflate: output overrun");
      }
      grow_to(size + token_count);
      if (window.Meets(size, size + token_count)) {
        litlen_decoder.DecodeBytes(bits,
                                   std::span(out).subspan(size, token_count));
      } else {
        skipped.push_back(
            {size, token_count, std::move(litlen_decoder), payload});
      }
      size += token_count;
      std::erase_if(skipped, out_of_reach);
      continue;
    }
    for (const SkippedBlock& block : skipped) {
      if (out_of_reach(block)) continue;
      BitReader block_bits(block.payload);
      block.decoder.DecodeBytes(block_bits,
                                std::span(out).subspan(block.at, block.size));
    }
    skipped.clear();

    // No token writes more than kLzMaxMatch bytes.
    const std::size_t end =
        size + std::min<std::uint64_t>(remaining, token_count * kLzMaxMatch);
    grow_to(end);
    std::byte* const base = out.data();
    for (std::uint64_t i = 0; i < token_count; ++i) {
      const std::size_t symbol = litlen_decoder.Decode(bits);
      if (symbol < 256) {
        if (size == end) throw CorruptStreamError("deflate: output overrun");
        base[size++] = static_cast<std::byte>(symbol);
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
      if (distance > size) {
        throw CorruptStreamError("deflate: distance exceeds output");
      }
      if (length > end - size) {
        throw CorruptStreamError("deflate: output overrun");
      }
      CopyMatch(base, size, length, distance, out.size());
      size += length;
    }
  }
  if (size != original_size) {
    throw CorruptStreamError("deflate: size mismatch");
  }
  out.resize(size);
  return out;
}

}  // namespace

Bytes DeflateCodec::Compress(ByteSpan data) const {
  return CompressLz(data, params_);
}

Bytes DeflateCodec::CompressAdaptive(ByteSpan data,
                                     std::size_t column_bytes) const {
  if (column_bytes != 0 && data.size() % column_bytes != 0) {
    throw InvalidArgumentError(
        "DeflateCodec: column_bytes does not divide the input");
  }
  // A column shorter than one probe window gets no decision of its own: its
  // blocks would each pay their own code-length tables, where one whole-call
  // LZ parse shares them.
  const std::size_t column =
      column_bytes < kProbeWindow ? data.size() : column_bytes;
  std::vector<bool> lz;
  for (std::size_t first = 0; first < data.size(); first += column) {
    lz.push_back(LzPays(data, first, column));
  }

  // Each run of columns that made the same choice is one parse or one block
  // run, so a call whose columns agree writes its whole-call path's bytes.
  Bytes out;
  PutVarint(out, data.size());
  for (std::size_t c = 0; c < lz.size();) {
    std::size_t end = c + 1;
    while (end < lz.size() && lz[end] == lz[c]) ++end;
    const std::size_t begin = c * column;
    const std::size_t size = (end - c) * column;
    if (lz[c]) {
      const std::size_t history = std::min(begin, kLzWindowSize);
      PutLzBlocks(out, data.subspan(begin - history, history + size), history,
                  params_);
    } else {
      PutLiteralBlocks(out, data.subspan(begin, size));
    }
    c = end;
  }
  return StoredIfExpanded(std::move(out), data);
}

Bytes DeflateCodec::CompressLiterals(ByteSpan data) {
  Bytes out;
  PutVarint(out, data.size());
  PutLiteralBlocks(out, data);
  return StoredIfExpanded(std::move(out), data);
}

Bytes DeflateCodec::Decompress(ByteSpan data) const {
  return DecompressImpl(data, {});
}

Bytes DeflateCodec::DecompressWindow(ByteSpan data, std::size_t column_bytes,
                                     std::size_t first,
                                     std::size_t count) const {
  return DecompressImpl(data, {column_bytes, first, count});
}

}  // namespace primacy
