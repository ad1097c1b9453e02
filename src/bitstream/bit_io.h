// LSB-first bit-granular serialization used by the Huffman-coded codecs.
//
// Bit order contract: the first bit written is the least significant bit of
// the first output byte (deflate convention). WriteBits emits the low `count`
// bits of `value` LSB-first; Huffman codes are therefore stored bit-reversed
// by the encoder so the decoder can peek a machine word and index a table.
#pragma once

#include <cstddef>
#include <cstdint>

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
  std::uint64_t ReadBits(unsigned count);

  /// Returns up to 57 upcoming bits without consuming them; missing bits past
  /// the end of the stream read as zero (standard deflate-style peeking).
  std::uint64_t PeekBits(unsigned count);

  /// Consumes `count` (<= 57) bits previously observed via PeekBits.
  void SkipBits(unsigned count);

  /// Discards bits up to the next byte boundary.
  void AlignToByte();

  /// Reads raw bytes; the reader must be byte-aligned.
  Bytes ReadBytes(std::size_t count);

  /// Total bits consumed.
  std::uint64_t BitsConsumed() const { return bits_consumed_; }

  /// True when every payload bit has been consumed (trailing padding bits in
  /// the final partial byte are allowed).
  bool AtEnd() const;

 private:
  void Refill();

  ByteSpan data_;
  std::size_t next_byte_ = 0;      // next unread byte in data_
  std::uint64_t accumulator_ = 0;  // buffered bits, LSB-first
  unsigned available_bits_ = 0;
  std::uint64_t bits_consumed_ = 0;
};

}  // namespace primacy
