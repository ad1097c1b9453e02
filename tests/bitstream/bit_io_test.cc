#include "bitstream/bit_io.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

TEST(BitIoTest, SingleBitsRoundTrip) {
  BitWriter writer;
  const std::vector<int> bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (const int b : bits) writer.WriteBits(static_cast<std::uint64_t>(b), 1);
  const Bytes data = writer.Finish();
  BitReader reader(data);
  for (const int b : bits) {
    EXPECT_EQ(reader.ReadBits(1), static_cast<std::uint64_t>(b));
  }
}

TEST(BitIoTest, LsbFirstByteLayout) {
  BitWriter writer;
  writer.WriteBits(0b1, 1);   // first bit -> LSB of byte 0
  writer.WriteBits(0b0, 1);
  writer.WriteBits(0b11, 2);  // bits 2..3
  const Bytes data = writer.Finish();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(static_cast<unsigned>(data[0]), 0b00001101u);
}

TEST(BitIoTest, MixedWidthValuesRoundTrip) {
  Rng rng(11);
  std::vector<std::pair<std::uint64_t, unsigned>> entries;
  BitWriter writer;
  for (int i = 0; i < 5000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.NextBelow(57));
    const std::uint64_t value =
        rng.NextU64() & ((width < 64) ? ((1ULL << width) - 1) : ~0ULL);
    entries.emplace_back(value, width);
    writer.WriteBits(value, width);
  }
  const Bytes data = writer.Finish();
  BitReader reader(data);
  for (const auto& [value, width] : entries) {
    EXPECT_EQ(reader.ReadBits(width), value);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitIoTest, WordBufferedWriterMatchesBitByBitPacking) {
  // The writer holds up to 31 bits between calls and stores whole 32-bit
  // words. Its bytes must equal a bit-at-a-time LSB-first packing for any
  // mix of widths (bits above a width ignored), alignments and raw bytes.
  Rng rng(12);
  for (int trial = 0; trial < 60; ++trial) {
    BitWriter writer;
    std::vector<bool> bits;
    const std::size_t ops = rng.NextBelow(400);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.NextBelow(16) == 0) {
        writer.AlignToByte();
        while (bits.size() % 8 != 0) bits.push_back(false);
        Bytes raw(rng.NextBelow(6));
        for (auto& b : raw) b = static_cast<std::byte>(rng.NextBelow(256));
        writer.WriteBytes(raw);
        for (const std::byte b : raw) {
          for (unsigned k = 0; k < 8; ++k) {
            bits.push_back(((std::to_integer<unsigned>(b) >> k) & 1) != 0);
          }
        }
        continue;
      }
      const auto width = static_cast<unsigned>(rng.NextBelow(58));
      const std::uint64_t value = rng.NextU64();
      writer.WriteBits(value, width);
      for (unsigned k = 0; k < width; ++k) {
        bits.push_back(((value >> k) & 1) != 0);
      }
    }
    EXPECT_EQ(writer.BitCount(), bits.size());
    Bytes expected((bits.size() + 7) / 8);
    for (std::size_t k = 0; k < bits.size(); ++k) {
      if (bits[k]) expected[k / 8] |= std::byte{1} << (k % 8);
    }
    EXPECT_EQ(writer.Finish(), expected) << trial;
  }
}

TEST(BitIoTest, ZeroWidthWriteAndReadAreNoops) {
  BitWriter writer;
  writer.WriteBits(0xff, 0);
  writer.WriteBits(0b101, 3);
  const Bytes data = writer.Finish();
  BitReader reader(data);
  EXPECT_EQ(reader.ReadBits(0), 0u);
  EXPECT_EQ(reader.ReadBits(3), 0b101u);
}

TEST(BitIoTest, WidthAboveLimitRejected) {
  BitWriter writer;
  EXPECT_THROW(writer.WriteBits(0, 58), InvalidArgumentError);
  const Bytes buffer(16);  // named: BitReader only views the bytes
  BitReader reader(buffer);
  EXPECT_THROW(reader.ReadBits(58), InvalidArgumentError);
  EXPECT_THROW(reader.PeekBits(58), InvalidArgumentError);
}

TEST(BitIoTest, SkipWidthAboveLimitRejected) {
  // SkipBits shares ReadBits's 57-bit ceiling: with a full accumulator a
  // skip of 64 would otherwise hit an undefined full-width shift.
  const Bytes buffer(16);  // named: BitReader only views the bytes
  BitReader reader(buffer);
  EXPECT_THROW(reader.SkipBits(58), InvalidArgumentError);
  EXPECT_THROW(reader.SkipBits(64), InvalidArgumentError);
  reader.SkipBits(57);
  EXPECT_EQ(reader.BitsConsumed(), 57u);
}

TEST(BitIoTest, ReadPastEndThrows) {
  BitWriter writer;
  writer.WriteBits(0x3, 2);
  const Bytes data = writer.Finish();  // one padded byte
  BitReader reader(data);
  reader.ReadBits(8);
  EXPECT_THROW(reader.ReadBits(8), CorruptStreamError);
}

TEST(BitIoTest, PeekDoesNotConsume) {
  BitWriter writer;
  writer.WriteBits(0b1011, 4);
  const Bytes data = writer.Finish();
  BitReader reader(data);
  EXPECT_EQ(reader.PeekBits(4), 0b1011u);
  EXPECT_EQ(reader.PeekBits(4), 0b1011u);
  EXPECT_EQ(reader.ReadBits(4), 0b1011u);
}

TEST(BitIoTest, PeekPastEndReadsZeros) {
  BitWriter writer;
  writer.WriteBits(0b1, 1);
  const Bytes data = writer.Finish();
  BitReader reader(data);
  // Peeking beyond the single byte must not throw; missing bits are zero.
  EXPECT_EQ(reader.PeekBits(16) & 0xffu, 0b00000001u);
}

TEST(BitIoTest, AlignToByteSkipsPadding) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.AlignToByte();
  writer.WriteBits(0xAB, 8);
  const Bytes data = writer.Finish();
  ASSERT_EQ(data.size(), 2u);
  BitReader reader(data);
  EXPECT_EQ(reader.ReadBits(3), 0b101u);
  reader.AlignToByte();
  EXPECT_EQ(reader.ReadBits(8), 0xABu);
}

TEST(BitIoTest, WriteBytesRequiresAlignment) {
  BitWriter writer;
  writer.WriteBits(1, 1);
  EXPECT_THROW(writer.WriteBytes(Bytes(4)), InvalidArgumentError);
}

TEST(BitIoTest, WriteAndReadRawBytes) {
  BitWriter writer;
  writer.WriteBits(0b11, 2);
  writer.AlignToByte();
  const Bytes raw = BytesFromString("payload");
  writer.WriteBytes(raw);
  const Bytes data = writer.Finish();
  BitReader reader(data);
  EXPECT_EQ(reader.ReadBits(2), 0b11u);
  reader.AlignToByte();
  EXPECT_EQ(reader.ReadBytes(raw.size()), raw);
}

TEST(BitIoTest, BitCountTracksWrites) {
  BitWriter writer;
  writer.WriteBits(0, 5);
  writer.WriteBits(0, 11);
  EXPECT_EQ(writer.BitCount(), 16u);
}

TEST(BitIoTest, EmptyStreamAtEnd) {
  BitReader reader(ByteSpan{});
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_THROW(reader.ReadBits(1), CorruptStreamError);
}

}  // namespace
}  // namespace primacy
