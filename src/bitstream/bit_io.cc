#include "bitstream/bit_io.h"

#include "util/error.h"

namespace primacy {

void BitWriter::FlushFullBytes() {
  while (pending_bits_ >= 8) {
    buffer_.push_back(static_cast<std::byte>(accumulator_ & 0xff));
    accumulator_ >>= 8;
    pending_bits_ -= 8;
  }
}

void BitWriter::AlignToByte() {
  const unsigned remainder = pending_bits_ % 8;
  if (remainder != 0) WriteBits(0, 8 - remainder);
}

void BitWriter::WriteBytes(ByteSpan data) {
  if (pending_bits_ % 8 != 0) {
    throw InvalidArgumentError("BitWriter::WriteBytes: not byte-aligned");
  }
  FlushFullBytes();
  AppendBytes(buffer_, data);
  bit_count_ += 8 * static_cast<std::uint64_t>(data.size());
}

Bytes BitWriter::Finish() {
  AlignToByte();
  FlushFullBytes();
  return std::move(buffer_);
}

void BitReader::AlignToByte() {
  const auto remainder = static_cast<unsigned>(BitsConsumed() % 8);
  if (remainder != 0) SkipBits(8 - remainder);
}

Bytes BitReader::ReadBytes(std::size_t count) {
  if (BitsConsumed() % 8 != 0) {
    throw InvalidArgumentError("BitReader::ReadBytes: not byte-aligned");
  }
  // The accumulator may hold already-buffered whole bytes; read through it.
  Bytes out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<std::byte>(ReadBits(8)));
  }
  return out;
}

}  // namespace primacy
