// Cross-validation against the real zlib: our from-scratch deflate-class
// codec stands in for zlib throughout the reproduction, so its compression
// ratio must track zlib's on representative data (DESIGN.md substitution
// table). We require agreement within a generous band, not equality.
#include <gtest/gtest.h>
#include <zlib.h>

#include "codec_test_util.h"
#include "deflate/deflate.h"
#include "util/error.h"

namespace primacy {
namespace {

std::size_t ZlibCompressedSize(ByteSpan data, int level) {
  uLongf bound = compressBound(static_cast<uLong>(data.size()));
  std::vector<Bytef> out(bound);
  const int rc =
      compress2(out.data(), &bound, reinterpret_cast<const Bytef*>(data.data()),
                static_cast<uLong>(data.size()), level);
  if (rc != Z_OK) throw InternalError("zlib compress2 failed");
  return bound;
}

class ZlibCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(ZlibCrossCheck, RatioWithinBandOfZlib) {
  // Copy, not reference: AllInputGenerators() returns a temporary.
  const auto generator =
      testing::AllInputGenerators()[static_cast<std::size_t>(GetParam())];
  const Bytes input = generator.make(300000, 42);
  if (input.empty()) GTEST_SKIP();

  const std::size_t zlib_size = ZlibCompressedSize(input, 6);
  const DeflateCodec codec;
  const std::size_t our_size = codec.Compress(input).size();

  const double zlib_ratio = static_cast<double>(input.size()) /
                            static_cast<double>(zlib_size);
  const double our_ratio = static_cast<double>(input.size()) /
                           static_cast<double>(our_size);
  // Our codec must land within [0.7, 1.5]x of zlib's ratio: same compressor
  // class, different container overheads and parse heuristics.
  EXPECT_GT(our_ratio, 0.7 * zlib_ratio)
      << "input=" << generator.label << " zlib=" << zlib_size
      << " ours=" << our_size;
  EXPECT_LT(our_ratio, 1.5 * zlib_ratio + 0.5)
      << "input=" << generator.label;
}

INSTANTIATE_TEST_SUITE_P(AllInputs, ZlibCrossCheck, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return testing::AllInputGenerators()
                               [static_cast<std::size_t>(param_info.param)]
                                   .label;
                         });

}  // namespace
}  // namespace primacy
