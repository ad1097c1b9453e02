// Golden compatibility corpus: committed streams of every supported format
// version must keep decoding bit-identically to their committed inputs.
// A failure here means a format change broke old checkpoints — that needs a
// new format version and a reader for the old one, not a corpus update.
// (Regenerate with make_golden only when intentionally adding entries.)
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "golden/golden_files.h"
#include "kernels/kernels.h"
#include "store/checkpoint_store.h"
#include "util/error.h"

namespace primacy {
namespace {

struct GoldenStream {
  const char* file;
  const char* input;
  std::uint8_t version;
  bool stored;
};

/// Full decode and, where the stream has a directory, a range read (8 whole
/// elements in from the front, spanning a chunk boundary at 256) both
/// reproduce the committed input.
void ExpectDecodesToInput(const GoldenStream& golden, const Bytes& stream,
                          const Bytes& input) {
  EXPECT_EQ(PrimacyDecompressor().DecompressBytes(stream), input)
      << golden.file;
  if (!golden.stored && golden.version >= internal::kFormatVersion2) {
    EXPECT_EQ(PrimacyDecompressor().DecompressBytesRange(stream, 250, 12),
              Bytes(input.begin() + 250 * 8, input.begin() + 262 * 8))
        << golden.file;
  }
}

void ExpectCheckpointRestores() {
  const Bytes checkpoint = ReadGolden("checkpoint.bin");
  const Bytes input = ReadGolden("input.bin");
  const Bytes noise = ReadGolden("noise.bin");
  ASSERT_FALSE(checkpoint.empty());
  const CheckpointReader reader(checkpoint);
  ASSERT_EQ(reader.variables().size(), 2u);

  const auto phi = reader.ReadDoubles("phi");
  EXPECT_EQ(ToBytes(AsBytes(std::span(phi))),
            Bytes(input.begin(), input.end() - 1));
  const auto restored_noise = reader.ReadDoubles("noise");
  EXPECT_EQ(ToBytes(AsBytes(std::span(restored_noise))), noise);

  for (const auto& result : reader.VerifyAll()) {
    EXPECT_TRUE(result.stream.ok) << result.name << ": "
                                  << result.stream.error;
  }
}

class GoldenCorpusTest : public ::testing::TestWithParam<GoldenStream> {};

TEST_P(GoldenCorpusTest, DecodesBitIdenticallyToCommittedInput) {
  const GoldenStream& golden = GetParam();
  const Bytes stream = ReadGolden(golden.file);
  const Bytes input = ReadGolden(golden.input);
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(input.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(stream[4]), golden.version);

  ExpectDecodesToInput(golden, stream, input);

  // The verifier agrees the committed stream is healthy.
  const StreamVerifyResult verdict = VerifyStream(stream);
  EXPECT_TRUE(verdict.ok) << golden.file << ": " << verdict.error;
  EXPECT_EQ(verdict.version, golden.version);
  EXPECT_EQ(verdict.has_checksums,
            golden.version >= internal::kFormatVersion3);
}

TEST_P(GoldenCorpusTest, DecodesUnderEveryKernelIsa) {
  // Left alone, the dispatcher picks AVX2 exactly where build and CPU offer
  // it. Every table it could pick must decode the corpus bit-identically.
  using kernels::Isa;
  const Isa dispatched = kernels::ActiveIsa();
  EXPECT_EQ(dispatched == Isa::kAvx2,
            kernels::TableFor(Isa::kAvx2) != nullptr);

  const GoldenStream& golden = GetParam();
  const Bytes stream = ReadGolden(golden.file);
  const Bytes input = ReadGolden(golden.input);
  ASSERT_FALSE(stream.empty());
  ASSERT_FALSE(input.empty());
  for (const Isa isa : kernels::kAllIsas) {
    if (kernels::TableFor(isa) == nullptr) continue;  // not on this build/CPU
    SCOPED_TRACE(kernels::IsaName(isa));
    EXPECT_TRUE(kernels::ForceIsa(isa));
    ExpectDecodesToInput(golden, stream, input);
    ExpectCheckpointRestores();
  }
  EXPECT_TRUE(kernels::ForceIsa(dispatched));
}

TEST_P(GoldenCorpusTest, CachedDecodeMatchesUncachedByteForByte) {
  // Cache-ON decode of the committed corpus must stay byte-identical to the
  // seed's uncached decode: v3 directory streams decode through the cache
  // (second pass all hits), v1, v2 and stored streams bypass it entirely.
  const GoldenStream& golden = GetParam();
  const Bytes stream = ReadGolden(golden.file);
  const Bytes input = ReadGolden(golden.input);
  ASSERT_FALSE(stream.empty());

  PrimacyOptions options;
  options.block_cache = std::make_shared<DecodedBlockCache>(4 * 1024 * 1024);
  const PrimacyDecompressor cached(options);

  PrimacyDecodeStats cold;
  EXPECT_EQ(cached.DecompressBytes(stream, &cold), input) << golden.file;
  PrimacyDecodeStats warm;
  EXPECT_EQ(cached.DecompressBytes(stream, &warm), input) << golden.file;

  const bool cacheable =
      !golden.stored && golden.version >= internal::kFormatVersion3;
  if (cacheable) {
    EXPECT_GT(warm.cache_hits, 0u);
    EXPECT_EQ(warm.chunks_decoded, 0u);
    // Warm range reads agree with the seed's uncached range reads.
    PrimacyDecodeStats range_stats;
    const Bytes slice =
        cached.DecompressBytesRange(stream, 250, 12, &range_stats);
    EXPECT_EQ(slice,
              Bytes(input.begin() + 250 * 8, input.begin() + 262 * 8));
    EXPECT_EQ(range_stats.chunks_decoded, 0u);
    EXPECT_GT(range_stats.cache_hits, 0u);
  } else {
    // v1, v2 and stored streams are never cached.
    EXPECT_EQ(cold.cache_misses, 0u);
    EXPECT_EQ(warm.cache_hits, 0u);
    EXPECT_EQ(cached.cache()->Stats().entries, 0u);
  }
}

// GoogleTest prints a GoldenStream as its raw bytes, pointers included, and
// the listed test names carry that print: append new entries at the end so
// the earlier entries' string literals, and so their names, stay put.
INSTANTIATE_TEST_SUITE_P(
    AllVersions, GoldenCorpusTest,
    ::testing::Values(
        GoldenStream{"stream_v1.bin", "input.bin", 1, false},
        GoldenStream{"stream_v1_streamed.bin", "input.bin", 1, false},
        GoldenStream{"stream_v2.bin", "input.bin", 2, false},
        GoldenStream{"stream_v3.bin", "input.bin", 3, false},
        GoldenStream{"stream_v3_streamed.bin", "input.bin", 3, false},
        GoldenStream{"stream_v3_literal.bin", "literal_input.bin", 3, false},
        GoldenStream{"stored_v3.bin", "noise.bin", 3, true},
        GoldenStream{"stream_v3_mixed.bin", "mixed_input.bin", 3, false}),
    [](const ::testing::TestParamInfo<GoldenStream>& param_info) {
      std::string name = param_info.param.file;
      name.resize(name.size() - 4);  // drop ".bin"
      return name;
    });

TEST(GoldenCheckpointTest, CommittedCheckpointRestores) {
  ExpectCheckpointRestores();
}

}  // namespace
}  // namespace primacy
