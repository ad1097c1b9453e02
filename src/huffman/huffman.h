// Canonical, length-limited Huffman coding.
//
// Code lengths are computed with the package-merge algorithm (Larmore &
// Hirschberg), which yields optimal codes under a maximum-length constraint,
// in O(n·L) time over flat weight arrays for n symbols and a cap of L bits;
// codes are then assigned canonically (shorter codes first, ties by symbol)
// so only the length vector needs to be serialized. Encoded bits are written
// bit-reversed through the LSB-first BitWriter so the decoder can peek a
// window and index a flat table — the same layout deflate decoders use.
#pragma once

#include <cstdint>
#include <vector>

#include "bitstream/bit_io.h"
#include "util/bytes.h"
#include "util/error.h"

namespace primacy {

/// Maximum supported code length; 15 matches deflate and keeps the decoder
/// table at 2^15 entries.
inline constexpr unsigned kMaxHuffmanCodeLength = 15;

/// Computes optimal length-limited code lengths for `frequencies`.
/// Symbols with zero frequency get length 0 (no code). If only one symbol has
/// non-zero frequency it is assigned length 1. Throws InvalidArgumentError if
/// the alphabet cannot be coded within `max_length` bits.
std::vector<std::uint8_t> BuildCodeLengths(
    std::span<const std::uint64_t> frequencies,
    unsigned max_length = kMaxHuffmanCodeLength);

/// Encoder side: canonical code words (already bit-reversed for the
/// LSB-first writer) and their lengths.
class HuffmanEncoder {
 public:
  /// Builds canonical codes from a length vector (as produced by
  /// BuildCodeLengths). Throws InvalidArgumentError if the lengths
  /// oversubscribe the Kraft budget.
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  /// Writes the code for `symbol`; the symbol must have a non-zero length.
  void Encode(BitWriter& writer, std::size_t symbol) const {
    PRIMACY_CHECK(symbol < lengths_.size() && lengths_[symbol] != 0);
    writer.WriteBits(codes_[symbol], lengths_[symbol]);
  }

  unsigned length(std::size_t symbol) const { return lengths_[symbol]; }
  std::size_t alphabet_size() const { return lengths_.size(); }

 private:
  std::vector<std::uint16_t> codes_;   // bit-reversed canonical codes
  std::vector<std::uint8_t> lengths_;
};

/// Decoder side: flat table lookup over a peeked window of max-length bits.
class HuffmanDecoder {
 public:
  /// Builds the decoding table from the same length vector the encoder used.
  /// The code must be *complete* (Kraft sum exactly 1) unless it is the
  /// degenerate single-symbol code. The lengths come off the wire, so
  /// malformed ones throw CorruptStreamError.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decodes one symbol. Throws CorruptStreamError on an invalid code word.
  std::size_t Decode(BitReader& reader) const;

 private:
  struct Entry {
    std::uint16_t symbol = 0;
    std::uint8_t length = 0;  // 0 marks an invalid window
  };
  std::vector<Entry> table_;  // indexed by max_length_ peeked bits
  unsigned max_length_ = 0;
};

/// Serializes a code-length vector compactly (run-length coded, deflate
/// style: 16=repeat previous, 17/18=zero runs) for embedding in containers.
Bytes SerializeCodeLengths(std::span<const std::uint8_t> lengths);

/// Inverse of SerializeCodeLengths; `alphabet_size` must match.
std::vector<std::uint8_t> DeserializeCodeLengths(ByteSpan data,
                                                 std::size_t alphabet_size);

}  // namespace primacy
