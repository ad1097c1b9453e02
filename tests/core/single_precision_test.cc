// Single-precision support (paper Section IV-B: the mapping scheme
// generalizes across floating-point precisions).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "core/primacy_codec.h"
#include "datasets/datasets.h"
#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

std::vector<float> FloatDataset(const std::string& name, std::size_t n) {
  const auto doubles = GenerateDatasetByName(name, n);
  std::vector<float> out(doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    out[i] = static_cast<float>(doubles[i]);
  }
  return out;
}

PrimacyOptions SingleOptions() {
  PrimacyOptions options;
  options.precision = Precision::kSingle;
  return options;
}

TEST(FloatConversionTest, BigEndianRowsPutExponentFirst) {
  // 1.0f = 0x3F800000.
  const std::vector<float> values{1.0f};
  Bytes rows = ToBytes(AsBytes(values));
  SwapBigEndianRows(rows, 4);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], 0x3f_b);
  EXPECT_EQ(rows[1], 0x80_b);
  EXPECT_EQ(rows[2], 0x00_b);
  EXPECT_EQ(rows[3], 0x00_b);
}

TEST(FloatConversionTest, RoundTripsSpecials) {
  std::vector<float> values{0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min()};
  Bytes rows = ToBytes(AsBytes(values));
  SwapBigEndianRows(rows, 4);
  SwapBigEndianRows(rows, 4);
  const auto restored = FromBytes<float>(rows);
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(restored[i]),
              std::bit_cast<std::uint32_t>(values[i]));
  }
}

TEST(SwapBigEndianRowsTest, IsAnInvolution) {
  Rng rng(1);
  for (const std::size_t width : {4u, 8u}) {
    Bytes data(width * 100);
    for (auto& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
    Bytes swapped = data;
    SwapBigEndianRows(swapped, width);
    if constexpr (std::endian::native == std::endian::little) {
      EXPECT_NE(swapped, data) << "width=" << width;
    }
    SwapBigEndianRows(swapped, width);
    EXPECT_EQ(swapped, data) << "width=" << width;
  }
}

TEST(SinglePrecisionTest, RoundTripsFloatDatasetBitExactly) {
  const auto values = FloatDataset("gts_phi_l", 100000);
  const PrimacyCompressor compressor(SingleOptions());
  const PrimacyDecompressor decompressor(SingleOptions());
  const Bytes stream = compressor.Compress(values);
  const auto restored = decompressor.Decompress<float>(stream);
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(restored[i]),
              std::bit_cast<std::uint32_t>(values[i]));
  }
}

TEST(SinglePrecisionTest, BothLinearizationsRoundTripBitExactly) {
  // Every float element is assembled from its two ID bytes and two
  // mantissa planes, whichever way the ID bytes are laid out; specials
  // and odd chunk tails included.
  auto values = FloatDataset("num_plasma", 50001);
  values[0] = -0.0f;
  values[1] = std::numeric_limits<float>::infinity();
  values[2] = std::numeric_limits<float>::denorm_min();
  values[3] = std::bit_cast<float>(std::uint32_t{0x7fc0beef});
  for (const Linearization linearization :
       {Linearization::kColumn, Linearization::kRow}) {
    PrimacyOptions options = SingleOptions();
    options.linearization = linearization;
    options.chunk_bytes = 4099 * 4;
    const Bytes stream = PrimacyCompressor(options).Compress(values);
    const auto restored = PrimacyDecompressor(options).Decompress<float>(
        stream);
    ASSERT_EQ(restored.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(restored[i]),
                std::bit_cast<std::uint32_t>(values[i]))
          << "element " << i;
    }
  }
}

TEST(SinglePrecisionTest, CompressesFloatData) {
  // Float: the 2 high-order bytes cover sign + exponent + 7 mantissa bits —
  // half the element. The mapping should again beat the vanilla solver.
  const auto values = FloatDataset("num_plasma", 200000);
  PrimacyStats stats;
  const PrimacyCompressor compressor(SingleOptions());
  compressor.Compress(values, &stats);
  EXPECT_GT(stats.CompressionRatio(), 1.1);
  EXPECT_GT(stats.top_byte_frequency_after,
            stats.top_byte_frequency_before);
}

TEST(SinglePrecisionTest, PrecisionMismatchRejected) {
  const std::vector<double> doubles(10, 1.0);
  const std::vector<float> floats(10, 1.0f);
  const PrimacyCompressor single(SingleOptions());
  const PrimacyCompressor dbl;
  EXPECT_THROW(single.Compress(std::span<const double>(doubles)),
               InvalidArgumentError);
  EXPECT_THROW(dbl.Compress(std::span<const float>(floats)),
               InvalidArgumentError);

  // The decode side checks the stream's element width the same way; the
  // byte-level decode stays width-agnostic.
  const Bytes float_stream = single.Compress(floats);
  const Bytes double_stream = dbl.Compress(doubles);
  const PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.Decompress<double>(float_stream),
               InvalidArgumentError);
  EXPECT_THROW(decompressor.Decompress<float>(double_stream),
               InvalidArgumentError);
  EXPECT_EQ(decompressor.DecompressBytes(float_stream),
            ToBytes(AsBytes(floats)));
}

TEST(SinglePrecisionTest, WidthIsSelfDescribing) {
  // A default (double-options) decompressor reads a single-precision stream:
  // the element width comes from the stream header.
  const auto values = FloatDataset("obs_info", 20000);
  const PrimacyCompressor compressor(SingleOptions());
  const Bytes stream = compressor.Compress(values);
  const PrimacyDecompressor decompressor;  // double-default options
  const auto restored = decompressor.Decompress<float>(stream);
  EXPECT_EQ(restored, values);
}

TEST(SinglePrecisionTest, FloatTailBytesPreserved) {
  const PrimacyCompressor compressor(SingleOptions());
  const PrimacyDecompressor decompressor(SingleOptions());
  Bytes data(4 * 1000 + 3);
  Rng rng(5);
  for (auto& b : data) b = static_cast<std::byte>(rng.NextBelow(256));
  EXPECT_EQ(decompressor.DecompressBytes(compressor.CompressBytes(data)),
            data);
}

TEST(SinglePrecisionTest, ChunkingWorksAtFloatWidth) {
  PrimacyOptions options = SingleOptions();
  options.chunk_bytes = 16 * 1024;
  const auto values = FloatDataset("flash_velx", 50000);
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  EXPECT_EQ(decompressor.Decompress<float>(compressor.Compress(values)),
            values);
}

TEST(SinglePrecisionTest, BadWidthInStreamRejected) {
  const auto values = FloatDataset("obs_info", 1000);
  const PrimacyCompressor compressor(SingleOptions());
  Bytes stream = compressor.Compress(values);
  // Byte 6 is the element width (magic 4 + version 1 + linearization 1).
  ASSERT_EQ(static_cast<unsigned>(stream[6]), 4u);
  stream[6] = std::byte{5};
  const PrimacyDecompressor decompressor;
  EXPECT_THROW(decompressor.DecompressBytes(stream), CorruptStreamError);
}

}  // namespace
}  // namespace primacy
