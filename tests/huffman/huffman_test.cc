#include "huffman/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace primacy {
namespace {

double KraftSum(std::span<const std::uint8_t> lengths) {
  double sum = 0.0;
  for (const std::uint8_t len : lengths) {
    if (len != 0) sum += std::pow(2.0, -static_cast<double>(len));
  }
  return sum;
}

TEST(BuildCodeLengthsTest, EmptyAlphabetGivesAllZeros) {
  const std::vector<std::uint64_t> freq(10, 0);
  const auto lengths = BuildCodeLengths(freq);
  for (const auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(BuildCodeLengthsTest, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freq(10, 0);
  freq[4] = 99;
  const auto lengths = BuildCodeLengths(freq);
  EXPECT_EQ(lengths[4], 1);
  EXPECT_EQ(std::accumulate(lengths.begin(), lengths.end(), 0), 1);
}

TEST(BuildCodeLengthsTest, TwoSymbolsGetOneBitEach) {
  const std::vector<std::uint64_t> freq{5, 100};
  const auto lengths = BuildCodeLengths(freq);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(BuildCodeLengthsTest, KraftEqualityHolds) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> freq(256);
    for (auto& f : freq) f = rng.NextBelow(1000);
    const auto lengths = BuildCodeLengths(freq);
    std::size_t active = 0;
    for (const auto f : freq) active += (f != 0);
    if (active < 2) continue;
    EXPECT_NEAR(KraftSum(lengths), 1.0, 1e-12);
  }
}

TEST(BuildCodeLengthsTest, RespectsMaxLength) {
  // Fibonacci-like frequencies force deep unconstrained Huffman trees.
  std::vector<std::uint64_t> freq(30);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (unsigned max_len : {5u, 8u, 15u}) {
    const auto lengths = BuildCodeLengths(freq, max_len);
    for (const auto len : lengths) EXPECT_LE(len, max_len);
    EXPECT_NEAR(KraftSum(lengths), 1.0, 1e-12);
  }
}

TEST(BuildCodeLengthsTest, MoreFrequentSymbolsGetShorterOrEqualCodes) {
  const std::vector<std::uint64_t> freq{1000, 500, 100, 10, 1};
  const auto lengths = BuildCodeLengths(freq);
  for (std::size_t i = 0; i + 1 < freq.size(); ++i) {
    EXPECT_LE(lengths[i], lengths[i + 1]);
  }
}

TEST(BuildCodeLengthsTest, CostIsWithinOneBitOfEntropy) {
  // Optimality sanity: average code length <= H + 1 (Huffman bound).
  Rng rng(2);
  std::vector<std::uint64_t> freq(256);
  Bytes sample(100000);
  for (auto& byte : sample) {
    byte = static_cast<std::byte>(rng.NextSkewed(256, 0.95));
  }
  for (const auto byte : sample) ++freq[static_cast<std::size_t>(byte)];
  const auto lengths = BuildCodeLengths(freq);
  double total_bits = 0.0;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 256; ++s) {
    total_bits += static_cast<double>(freq[s]) * lengths[s];
    total += freq[s];
  }
  const double avg_len = total_bits / static_cast<double>(total);
  const double entropy = ByteEntropyBits(sample);
  EXPECT_LE(avg_len, entropy + 1.0);
  EXPECT_GE(avg_len, entropy);  // Shannon lower bound
}

TEST(BuildCodeLengthsTest, AlphabetTooLargeForMaxLengthThrows) {
  const std::vector<std::uint64_t> freq(5, 1);  // 5 symbols, max length 2
  EXPECT_THROW(BuildCodeLengths(freq, 2), InvalidArgumentError);
  EXPECT_THROW(BuildCodeLengths(freq, 0), InvalidArgumentError);
  EXPECT_THROW(BuildCodeLengths(freq, 16), InvalidArgumentError);
}

TEST(HuffmanDecoderTest, OversizedWireAlphabetRejected) {
  // Table entries hold 12-bit symbols; a longer length vector off the wire
  // must be rejected rather than decoded with truncated symbol ids.
  std::vector<std::uint8_t> lengths(HuffmanDecoder::kMaxAlphabet + 1, 0);
  lengths[0] = 1;
  lengths[1] = 1;
  EXPECT_THROW(HuffmanDecoder{lengths}, CorruptStreamError);
}

TEST(HuffmanRoundTripTest, EncodesAndDecodesSkewedStream) {
  Rng rng(3);
  std::vector<std::uint64_t> freq(64, 0);
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(rng.NextSkewed(64, 0.8));
    ++freq[symbols.back()];
  }
  const auto lengths = BuildCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  BitWriter writer;
  for (const auto s : symbols) encoder.Encode(writer, s);
  const Bytes data = writer.Finish();

  const HuffmanDecoder decoder(lengths);
  BitReader reader(data);
  for (const auto s : symbols) EXPECT_EQ(decoder.Decode(reader), s);
}

TEST(HuffmanRoundTripTest, DegenerateSingleSymbolStream) {
  std::vector<std::uint64_t> freq(10, 0);
  freq[7] = 5;
  const auto lengths = BuildCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  BitWriter writer;
  for (int i = 0; i < 5; ++i) encoder.Encode(writer, 7);
  const Bytes data = writer.Finish();
  const HuffmanDecoder decoder(lengths);
  BitReader reader(data);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(decoder.Decode(reader), 7u);
}

TEST(HuffmanRoundTripTest, FullByteAlphabet) {
  Rng rng(4);
  std::vector<std::uint64_t> freq(256, 1);  // every symbol present
  const auto lengths = BuildCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  BitWriter writer;
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 4096; ++i) {
    symbols.push_back(rng.NextBelow(256));
    encoder.Encode(writer, symbols.back());
  }
  const Bytes data = writer.Finish();
  BitReader reader(data);
  for (const auto s : symbols) EXPECT_EQ(decoder.Decode(reader), s);
}

TEST(HuffmanDecoderTest, EmptyCodeRejected) {
  // Decoder lengths arrive off the wire, so malformed ones are stream
  // corruption, not caller error.
  const std::vector<std::uint8_t> lengths(8, 0);
  EXPECT_THROW(HuffmanDecoder decoder(lengths), CorruptStreamError);
}

TEST(HuffmanDecoderTest, OversubscribedLengthsRejected) {
  // Three symbols of length 1 oversubscribe.
  const std::vector<std::uint8_t> lengths{1, 1, 1};
  EXPECT_THROW(HuffmanDecoder decoder(lengths), CorruptStreamError);
  EXPECT_THROW(HuffmanEncoder encoder(lengths), InvalidArgumentError);
}

TEST(HuffmanDecoderTest, IncompleteCodeInvalidWindowThrows) {
  // Lengths {2, 2}: windows starting with the two missing 2-bit codes are
  // invalid and must be rejected, not silently decoded.
  const std::vector<std::uint8_t> lengths{2, 2};
  const HuffmanDecoder decoder(lengths);
  // Codes assigned canonically: symbol0 = 00, symbol1 = 01 (MSB-first).
  // An all-ones byte cannot start with either code.
  const Bytes data{0xff_b};
  BitReader reader(data);
  EXPECT_THROW(decoder.Decode(reader), CorruptStreamError);
}

TEST(HuffmanRoundTripTest, BulkDecodeMatchesDecode) {
  // DecodeBytes takes three codes per refill while 8 payload bytes remain
  // and the rest through Decode. From any bit offset, for any count, and
  // after a 57-bit peek has filled the reader's buffer, it must give
  // Decode's symbols and leave the reader where Decode would.
  Rng rng(6);
  std::vector<std::uint64_t> freq(256, 0);
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 3000; ++i) {
    symbols.push_back(rng.NextSkewed(256, 0.9));
    ++freq[symbols.back()];
  }
  const auto lengths = BuildCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);
  for (const unsigned lead : {0u, 3u, 13u}) {
    BitWriter writer;
    writer.WriteBits(0, lead);
    for (const auto s : symbols) encoder.Encode(writer, s);
    const Bytes data = writer.Finish();
    for (const bool peek : {false, true}) {
      for (const std::size_t count :
           {0u, 1u, 2u, 3u, 4u, 5u, 8u, 33u, 1000u, 2999u, 3000u}) {
        BitReader reader(data);
        if (peek) reader.PeekBits(57);
        reader.ReadBits(lead);
        Bytes out(count);
        decoder.DecodeBytes(reader, out);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(std::to_integer<std::size_t>(out[i]), symbols[i])
              << "lead " << lead << " count " << count << " at " << i;
        }
        if (count < symbols.size()) {
          EXPECT_EQ(decoder.Decode(reader), symbols[count]);
        } else {
          EXPECT_TRUE(reader.AtEnd());
        }
      }
    }
  }
}

TEST(HuffmanDecoderTest, BulkDecodeRejectsInvalidCodeWord) {
  // Lengths {2, 2}: symbol 0 is 00 and a window with its low bit set is
  // invalid. Two zero bytes decode to 8 symbols, then 0xff: in the
  // three-per-refill loop (16-byte payload) and in the tail (3 bytes). The
  // decode stops there: nothing past the 8 symbols is written.
  const std::vector<std::uint8_t> lengths{2, 2};
  const HuffmanDecoder decoder(lengths);
  for (const std::size_t size : {16u, 3u}) {
    Bytes data(size, 0_b);
    data[2] = 0xff_b;
    BitReader reader(data);
    Bytes out(4 * size, 0xab_b);
    EXPECT_THROW(decoder.DecodeBytes(reader, out), CorruptStreamError);
    EXPECT_EQ(std::count(out.begin(), out.end(), 0_b), 8) << size;
    EXPECT_EQ(out[8], 0xab_b) << size;
  }
}

TEST(HuffmanDecoderTest, BulkDecodeRejectsTruncatedPayload) {
  // 16 bytes of two-bit codes hold 64 symbols; asking for 65 runs past the
  // payload, whose zero-padded peek would otherwise decode a symbol.
  const std::vector<std::uint8_t> lengths{2, 2, 2, 2};
  const HuffmanDecoder decoder(lengths);
  const Bytes data(16, 0_b);
  BitReader reader(data);
  Bytes out(65);
  EXPECT_THROW(decoder.DecodeBytes(reader, out), CorruptStreamError);
}

TEST(CodeLengthSerializationTest, RoundTripsTypicalVectors) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freq(286, 0);
    for (int i = 0; i < 5000; ++i) ++freq[rng.NextSkewed(286, 0.9)];
    const auto lengths = BuildCodeLengths(freq);
    const Bytes serialized = SerializeCodeLengths(lengths);
    EXPECT_EQ(DeserializeCodeLengths(serialized, lengths.size()), lengths);
  }
}

TEST(CodeLengthSerializationTest, SizeMismatchThrows) {
  const std::vector<std::uint8_t> lengths{1, 1};
  const Bytes serialized = SerializeCodeLengths(lengths);
  EXPECT_THROW(DeserializeCodeLengths(serialized, 3), CorruptStreamError);
}

TEST(CodeLengthSerializationTest, CompactForRunHeavyVectors) {
  std::vector<std::uint8_t> lengths(286, 0);
  lengths[0] = 1;
  lengths[285] = 1;
  const Bytes serialized = SerializeCodeLengths(lengths);
  EXPECT_LT(serialized.size(), 20u);
}

}  // namespace
}  // namespace primacy
