// LSB-first bit-granular serialization used by the Huffman-coded codecs.
//
// Bit order contract: the first bit written is the least significant bit of
// the first output byte (deflate convention). WriteBits emits the low `count`
// bits of `value` LSB-first; Huffman codes are therefore stored bit-reversed
// by the encoder so the decoder can peek a machine word and index a table.
//
// The reader is the decoders' hot path, so its reads are inline: it buffers
// 56 to 63 bits from one 8-byte little-endian load while at least 8 bytes
// remain, and byte by byte near the end, and refills only when a read needs
// more bits than it holds. HuffmanDecoder's bulk decode works on the same
// buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/bytes.h"
#include "util/error.h"

namespace primacy {

class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `count` (<= 57) bits of `value`, LSB first. Inline:
  /// the Huffman encoders call it once per symbol.
  void WriteBits(std::uint64_t value, unsigned count) {
    if (count > 57) throw InvalidArgumentError("BitWriter: count > 57");
    value &= (1ULL << count) - 1;  // count <= 57, so the shift cannot overflow
    // A write that would not fit beside the pending bits first drains the
    // whole bytes, leaving fewer than 8.
    if (pending_bits_ + count > 64) FlushFullBytes();
    accumulator_ |= value << pending_bits_;
    pending_bits_ += count;
    bit_count_ += count;
    while (pending_bits_ >= 32) {
      for (unsigned i = 0; i < 4; ++i) {
        buffer_.push_back(static_cast<std::byte>(accumulator_ >> (8 * i)));
      }
      accumulator_ >>= 32;
      pending_bits_ -= 32;
    }
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Appends raw bytes; the writer must be byte-aligned.
  void WriteBytes(ByteSpan data);

  /// Number of bits written so far.
  std::uint64_t BitCount() const { return bit_count_; }

  /// Flushes any partial byte (zero-padded) and returns the buffer.
  Bytes Finish();

 private:
  /// Moves the pending whole bytes to the buffer, leaving fewer than 8 bits.
  void FlushFullBytes();

  Bytes buffer_;
  // Pending bits, LSB-first: fewer than 32 between calls, stored to the
  // buffer a 32-bit word at a time.
  std::uint64_t accumulator_ = 0;
  unsigned pending_bits_ = 0;
  std::uint64_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  /// Reads `count` (<= 57) bits, LSB first. Throws CorruptStreamError when
  /// the stream is exhausted.
  std::uint64_t ReadBits(unsigned count) {
    const std::uint64_t value = PeekBits(count);
    Consume(count, "BitReader: stream exhausted");
    return value;
  }

  /// Returns up to 57 upcoming bits without consuming them; missing bits past
  /// the end of the stream read as zero (standard deflate-style peeking).
  std::uint64_t PeekBits(unsigned count) {
    if (count > 57) throw InvalidArgumentError("BitReader: count > 57");
    if (available_bits_ < count) Refill(count);
    return accumulator_ & ((1ULL << count) - 1);
  }

  /// Consumes `count` (<= 57) bits previously observed via PeekBits.
  void SkipBits(unsigned count) {
    // Same ceiling as ReadBits: without it a count >= 64 reaches the
    // accumulator shift below, which is undefined for a 64-bit operand.
    if (count > 57) throw InvalidArgumentError("BitReader: count > 57");
    if (available_bits_ < count) Refill(count);
    Consume(count, "BitReader::SkipBits: stream exhausted");
  }

  /// Discards bits up to the next byte boundary.
  void AlignToByte();

  /// Reads raw bytes; the reader must be byte-aligned.
  Bytes ReadBytes(std::size_t count);

  /// Total bits consumed.
  std::uint64_t BitsConsumed() const {
    return 8 * static_cast<std::uint64_t>(next_byte_) - available_bits_;
  }

  /// True when every payload bit has been consumed (trailing padding bits in
  /// the final partial byte are allowed).
  bool AtEnd() const {
    return next_byte_ == data_.size() && available_bits_ < 8;
  }

 private:
  friend class HuffmanDecoder;  // its bulk decode runs on this buffer

  /// Tops the buffer up to at least `count` (<= 57) bits, or to every bit
  /// left: a word load while 8 bytes remain, then single bytes. A 57-bit
  /// read after a word load that left 56 bits takes one more byte.
  void Refill(unsigned count) {
    if (data_.size() - next_byte_ >= 8) RefillWord();
    while (available_bits_ < count && next_byte_ < data_.size()) {
      accumulator_ |= std::uint64_t{std::to_integer<std::uint8_t>(
                          data_[next_byte_++])}
                      << available_bits_;
      available_bits_ += 8;
    }
  }

  /// Loads the next 8 bytes as a little-endian word, leaving 56 to 63 bits
  /// buffered: the whole bytes that fit, plus the low bits of the next byte,
  /// which the next refill loads again. Needs 8 bytes left and at most 56
  /// bits buffered.
  void RefillWord() {
    std::uint64_t word;
    std::memcpy(&word, data_.data() + next_byte_, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    accumulator_ |= word << available_bits_;
    next_byte_ += (63 - available_bits_) >> 3;
    available_bits_ |= 56;
  }

  void Consume(unsigned count, const char* exhausted) {
    if (available_bits_ < count) throw CorruptStreamError(exhausted);
    // count <= 57 < 64, so the shift is defined.
    accumulator_ >>= count;
    available_bits_ -= count;
  }

  ByteSpan data_;
  std::size_t next_byte_ = 0;      // next byte not yet loaded in full
  // Buffered bits, LSB-first; bits above available_bits_ are zero or the
  // stream's own next bits.
  std::uint64_t accumulator_ = 0;
  unsigned available_bits_ = 0;
};

}  // namespace primacy
