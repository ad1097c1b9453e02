// Cross-codec property suite: every codec must losslessly roundtrip every
// input family at every size, reject corrupted streams with
// CorruptStreamError (never return garbage), and never expand pathological
// inputs unreasonably.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "bwt/bwt_codec.h"
#include "core/primacy_codec.h"
#include "codec_test_util.h"
#include "compress/codec.h"
#include "deflate/deflate.h"
#include "fpc/fpc_codec.h"
#include "fpzip_like/fpz_codec.h"
#include "lzfast/lzfast.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy::testing {

std::vector<CodecFactory> AllCodecFactories() {
  return {
      {"deflate", [] { return std::make_unique<DeflateCodec>(); }},
      {"deflate-fast",
       [] {
         return std::make_unique<DeflateCodec>(LzParams::Fast(),
                                               "deflate-fast");
       }},
      {"lzfast", [] { return std::make_unique<LzFastCodec>(); }},
      {"bwt", [] { return std::make_unique<BwtCodec>(); }},
      {"fpc", [] { return std::make_unique<FpcCodec>(); }},
      {"fpz", [] { return std::make_unique<FpzCodec>(); }},
      {"primacy", [] { return std::make_unique<PrimacyCodec>(); }},
  };
}

namespace {

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {
 protected:
  std::unique_ptr<Codec> MakeCodec() const {
    return AllCodecFactories()[static_cast<std::size_t>(
                                   std::get<0>(GetParam()))]
        .make();
  }
  Bytes MakeInput() const {
    // Copy, not reference: AllInputGenerators() returns a temporary.
    const auto generator =
        AllInputGenerators()[static_cast<std::size_t>(std::get<1>(GetParam()))];
    return generator.make(std::get<2>(GetParam()), 1234);
  }
};

TEST_P(CodecRoundTrip, DecompressInvertsCompress) {
  const auto codec = MakeCodec();
  const Bytes input = MakeInput();
  const Bytes compressed = codec->Compress(input);
  EXPECT_EQ(codec->Decompress(compressed), input);
}

TEST_P(CodecRoundTrip, NeverExpandsBeyondSmallOverhead) {
  const auto codec = MakeCodec();
  const Bytes input = MakeInput();
  const Bytes compressed = codec->Compress(input);
  EXPECT_LE(compressed.size(), input.size() + 64);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllInputs, CodecRoundTrip,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Range(0, 8),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7}, std::size_t{8},
                                         std::size_t{65},
                                         std::size_t{4096},
                                         std::size_t{100000})),
    [](const ::testing::TestParamInfo<std::tuple<int, int, std::size_t>>&
           param_info) {
      const auto codecs = AllCodecFactories();
      const auto generators = AllInputGenerators();
      const auto& param = param_info.param;
      std::string name =
          codecs[static_cast<std::size_t>(std::get<0>(param))].label + "_" +
          generators[static_cast<std::size_t>(std::get<1>(param))].label +
          "_" + std::to_string(std::get<2>(param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

class CodecCorruption : public ::testing::TestWithParam<int> {};

TEST_P(CodecCorruption, TruncationIsDetected) {
  const auto codec =
      AllCodecFactories()[static_cast<std::size_t>(GetParam())].make();
  const Bytes input = AllInputGenerators()[4].make(20000, 7);  // phrases
  Bytes compressed = codec->Compress(input);
  ASSERT_GT(compressed.size(), 8u);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(
      {
        const Bytes restored = codec->Decompress(compressed);
        // Some truncations can still parse; they must at least not
        // silently return the wrong content.
        ASSERT_NE(restored, input);
      },
      CorruptStreamError);
}

TEST_P(CodecCorruption, EmptyStreamRejected) {
  const auto codec =
      AllCodecFactories()[static_cast<std::size_t>(GetParam())].make();
  EXPECT_THROW(codec->Decompress(Bytes{}), CorruptStreamError);
}

TEST_P(CodecCorruption, RandomFlipsNeverReturnWrongData) {
  const auto codec =
      AllCodecFactories()[static_cast<std::size_t>(GetParam())].make();
  const Bytes input = AllInputGenerators()[3].make(30000, 99);  // skewed
  const Bytes compressed = codec->Compress(input);
  Rng rng(555);
  for (int trial = 0; trial < 25; ++trial) {
    Bytes corrupted = compressed;
    const std::size_t pos = rng.NextBelow(corrupted.size());
    corrupted[pos] ^= static_cast<std::byte>(1 + rng.NextBelow(255));
    try {
      const Bytes restored = codec->Decompress(corrupted);
      // A flip in entropy-coded payload bits may legitimately decode to
      // different bytes of the same length; what must never happen is a
      // crash or an out-of-contract result type. If sizes differ the codec
      // should have thrown.
      EXPECT_EQ(restored.size(), input.size());
    } catch (const Error&) {
      // Detected corruption: the expected outcome.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecCorruption, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name =
                               AllCodecFactories()
                                   [static_cast<std::size_t>(param_info.param)]
                                       .label;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(CodecMeasurementTest, RatioAndThroughputFormulas) {
  CodecMeasurement m;
  m.original_bytes = 2000000;
  m.compressed_bytes = 1000000;
  m.compress_seconds = 0.5;
  m.decompress_seconds = 0.25;
  EXPECT_DOUBLE_EQ(m.CompressionRatio(), 2.0);
  EXPECT_DOUBLE_EQ(m.CompressMBps(), 4.0);
  EXPECT_DOUBLE_EQ(m.DecompressMBps(), 8.0);
}

TEST(MeasureCodecTest, ProducesConsistentMeasurement) {
  const DeflateCodec codec;
  const Bytes input = AllInputGenerators()[4].make(100000, 3);
  const CodecMeasurement m = MeasureCodec(codec, input);
  EXPECT_EQ(m.original_bytes, input.size());
  EXPECT_GT(m.compressed_bytes, 0u);
  EXPECT_GT(m.CompressionRatio(), 1.0);  // phrases compress
  EXPECT_GE(m.compress_seconds, 0.0);
}

}  // namespace
}  // namespace primacy::testing
