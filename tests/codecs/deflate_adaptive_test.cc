// The deflate codecs' two compress paths. Compress is the vanilla codec,
// the comparator of Table III and Figure 4, so its bytes are pinned to
// digests recorded before CompressAdaptive existed. CompressAdaptive, which
// PRIMACY's solver calls use, picks LZ or literal-only Huffman per call;
// both write the one container Decompress reads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "codec_test_util.h"
#include "core/chunk_pipeline.h"
#include "datasets/datasets.h"
#include "deflate/deflate.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace primacy {
namespace {

using testing::AllInputGenerators;

struct PinnedInput {
  std::string label;
  Bytes bytes;
};

/// Raw doubles of four Table III datasets, then every input generator at a
/// few sizes.
std::vector<PinnedInput> PinnedInputs() {
  std::vector<PinnedInput> inputs;
  for (const char* name : {"msg_sppm", "obs_temp", "num_plasma", "num_brain"}) {
    const std::vector<double> values = GenerateDatasetByName(name, 1u << 15);
    inputs.push_back({name, ToBytes(AsBytes(values))});
  }
  for (const auto& generator : AllInputGenerators()) {
    for (const std::size_t size : {1u, 100u, 4096u, 100000u}) {
      inputs.push_back({generator.label + "_" + std::to_string(size),
                        generator.make(size, 77)});
    }
  }
  return inputs;
}

struct PinnedDigests {
  const char* label;
  std::uint64_t input;
  std::uint64_t deflate;
  std::uint64_t deflate_fast;
};

// XXH64 of each input and of DeflateCodec{}.Compress and
// DeflateFastCodec{}.Compress of it, recorded before the adaptive path, the
// lazy-lookahead memo, the input-sized chain table and the weights-only
// package-merge existed: none of them may move these bytes.
constexpr PinnedDigests kPinned[] = {
    {"msg_sppm", 0xa737366751bf6425ull, 0x8f65334ea3b057d5ull,
     0xcdde621885fd3676ull},
    {"obs_temp", 0x001b4b8b26379b4cull, 0x0d79b26952c27de2ull,
     0xefe705ffec604f67ull},
    {"num_plasma", 0xe61f534c3e1f9e6bull, 0x793822522c56bd9dull,
     0xc92171a35042fa6cull},
    {"num_brain", 0xd463523e153e648cull, 0x07663fec8cdfd4f0ull,
     0x67b194a09606e21dull},
    {"zeros_1", 0xe934a84adb052768ull, 0x26b575b254507defull,
     0x26b575b254507defull},
    {"zeros_100", 0x17bb1103c92c502full, 0x1713076ebb3f8278ull,
     0x1713076ebb3f8278ull},
    {"zeros_4096", 0xac869b6f32d8bbdbull, 0x50b4862da3943a8dull,
     0x50b4862da3943a8dull},
    {"zeros_100000", 0x2c9fd5b2f34e23dbull, 0x0b73f8ad5a537278ull,
     0x0b73f8ad5a537278ull},
    {"constant_aa_1", 0x96e795b76cd8da89ull, 0x08d64af0bfeb76e0ull,
     0x08d64af0bfeb76e0ull},
    {"constant_aa_100", 0x36c6ab6f97a827b9ull, 0xec598120ef31ecaeull,
     0xec598120ef31ecaeull},
    {"constant_aa_4096", 0xe35ac2d66625ceaaull, 0x7f8b0bc1be2ab077ull,
     0x7f8b0bc1be2ab077ull},
    {"constant_aa_100000", 0xa77294e727f24e5bull, 0x25c0f8263636ca26ull,
     0x25c0f8263636ca26ull},
    {"random_1", 0xf5ee3ce1a06552efull, 0x39d6ec1b91b42fb4ull,
     0x39d6ec1b91b42fb4ull},
    {"random_100", 0x01775f14e30ff24bull, 0xd448de3cbadb3985ull,
     0xd448de3cbadb3985ull},
    {"random_4096", 0xd59fdb3d2041b7f5ull, 0xc679f59a9c90cf5bull,
     0xc679f59a9c90cf5bull},
    {"random_100000", 0x3477996a3acd1c61ull, 0x5db238c3d3fce0c9ull,
     0x5db238c3d3fce0c9ull},
    {"skewed_bytes_1", 0x1f25c8d0bc1f4bb6ull, 0xbb5513f3d7a2c68dull,
     0xbb5513f3d7a2c68dull},
    {"skewed_bytes_100", 0xca4e212bc7e70147ull, 0xa99637d0c1194cf2ull,
     0xa99637d0c1194cf2ull},
    {"skewed_bytes_4096", 0x8f363d029f49cd98ull, 0x7a732345d7c3fa84ull,
     0x1ac0f346e89b81d2ull},
    {"skewed_bytes_100000", 0xb2297df7f0704f64ull, 0x22ed7014f4a562a0ull,
     0xbe3ca2a1da85a3b8ull},
    {"repeated_phrases_1", 0x7a08a8f914cc241dull, 0x99d9d434088428bfull,
     0x99d9d434088428bfull},
    {"repeated_phrases_100", 0x318382cfaf0dc1d0ull, 0xeeb6882786258accull,
     0xeeb6882786258accull},
    {"repeated_phrases_4096", 0x9ffdcdafdb00839cull, 0xe030f61a7fae4ec3ull,
     0xf6e805b5ee40312dull},
    {"repeated_phrases_100000", 0xfe4221781b394a8full, 0xd6e8d9b0e77701ffull,
     0x67832c725b26f231ull},
    {"smooth_doubles_1", 0x2c3f836a5df75b04ull, 0x5031f3c39ce4dadeull,
     0x5031f3c39ce4dadeull},
    {"smooth_doubles_100", 0x6fcdb45f44548bf3ull, 0x555a50ffc19011c1ull,
     0x555a50ffc19011c1ull},
    {"smooth_doubles_4096", 0xec08cbed0678fd8aull, 0xa76911ecab905852ull,
     0xd542770dfbaa88ffull},
    {"smooth_doubles_100000", 0xfa5217bb0f99ad0cull, 0xc57f6f68418e4abdull,
     0x74dc9af8c06537f4ull},
    {"noisy_doubles_1", 0xac5dd49694422f3aull, 0x90a5286286af944aull,
     0x90a5286286af944aull},
    {"noisy_doubles_100", 0x5d067c7295151b6bull, 0x2ea241ea32611863ull,
     0x2ea241ea32611863ull},
    {"noisy_doubles_4096", 0x203b9e5ed3ed26fbull, 0xe6fa3bac90721b37ull,
     0xe6fa3bac90721b37ull},
    {"noisy_doubles_100000", 0x10b46d0c318e86a9ull, 0xdc8f9f4ccaa9b508ull,
     0x24e90e25ac23a9c3ull},
    {"ascending_bytes_1", 0xe934a84adb052768ull, 0x26b575b254507defull,
     0x26b575b254507defull},
    {"ascending_bytes_100", 0x6ac1e58032166597ull, 0xf1ae334c7c6a7fcdull,
     0xf1ae334c7c6a7fcdull},
    {"ascending_bytes_4096", 0x0f6e64be186af6a4ull, 0x7893b47e266a9e4aull,
     0x7893b47e266a9e4aull},
    {"ascending_bytes_100000", 0xf7a005162637d2faull, 0x6a94b0e290eb31acull,
     0x6a94b0e290eb31acull},
};

TEST(DeflatePinTest, CompressBytesAreThePinnedVanillaCodec) {
  std::map<std::string, PinnedDigests> pinned;
  for (const PinnedDigests& digests : kPinned) {
    pinned.emplace(digests.label, digests);
  }
  const std::vector<PinnedInput> inputs = PinnedInputs();
  ASSERT_EQ(inputs.size(), pinned.size());
  for (const PinnedInput& input : inputs) {
    const PinnedDigests& pin = pinned.at(input.label);
    ASSERT_EQ(Xxh64(input.bytes), pin.input)
        << input.label << ": the input generator changed, not the codec";
    EXPECT_EQ(Xxh64(DeflateCodec{}.Compress(input.bytes)), pin.deflate)
        << input.label;
    EXPECT_EQ(Xxh64(DeflateFastCodec{}.Compress(input.bytes)),
              pin.deflate_fast)
        << input.label;
  }
}

/// The literal-only reference: an LZ "parse" that never probes a chain.
Bytes LiteralReference(ByteSpan data) {
  return DeflateCodec(LzParams{0, 3, false}).Compress(data);
}

TEST(DeflateLiteralTest, MatchesTheProbelessParseAtBlockEdges) {
  // 2^16 bytes fill exactly one block; one byte more opens a second.
  const auto skewed = AllInputGenerators()[3];
  for (const std::size_t size : {0u, 1u, 2u, 65535u, 65536u, 65537u}) {
    const Bytes input = skewed.make(size, 11);
    const Bytes literal = DeflateCodec::CompressLiterals(input);
    EXPECT_EQ(literal, LiteralReference(input)) << size;
    EXPECT_EQ(DeflateCodec{}.Decompress(literal), input) << size;
  }
}

TEST(DeflateLiteralTest, SingleSymbolInputUsesOneBitCodes) {
  const Bytes input(5000, std::byte{0x41});
  const Bytes literal = DeflateCodec::CompressLiterals(input);
  EXPECT_EQ(literal, LiteralReference(input));
  EXPECT_EQ(DeflateCodec{}.Decompress(literal), input);
}

TEST(DeflateLiteralTest, IncompressibleInputFallsBackToStored) {
  const Bytes input = AllInputGenerators()[2].make(100000, 12);
  const Bytes literal = DeflateCodec::CompressLiterals(input);
  EXPECT_EQ(literal, LiteralReference(input));
  EXPECT_LE(literal.size(), input.size() + 16);
}

/// Records the inputs of PRIMACY's solver calls: the ID bytes, then the
/// compressible mantissa columns, of each chunk.
class RecordingSolver final : public Codec {
 public:
  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override { return inner_.Compress(data); }
  Bytes CompressAdaptive(ByteSpan data) const override {
    calls_.push_back(ToBytes(data));
    return inner_.CompressAdaptive(data);
  }
  Bytes Decompress(ByteSpan data) const override {
    return inner_.Decompress(data);
  }
  const std::vector<Bytes>& calls() const { return calls_; }

 private:
  DeflateCodec inner_;
  mutable std::vector<Bytes> calls_;
};

/// {ID bytes, mantissa columns} of one 64 Ki-element chunk of `dataset`.
std::vector<Bytes> SolverCalls(const std::string& dataset) {
  const std::vector<double> values = GenerateDatasetByName(dataset, 1u << 16);
  RecordingSolver solver;
  ChunkEncoder encoder(PrimacyOptions{}, solver);
  Bytes record;
  encoder.EncodeChunk(AsBytes(values), record);
  return solver.calls();
}

enum class Parse { kLz, kLiteral };

/// Which parse CompressAdaptive took on `input`, checking that its output
/// is exactly that path's and round-trips.
Parse ChosenParse(ByteSpan input) {
  const DeflateCodec codec;
  const Bytes adaptive = codec.CompressAdaptive(input);
  EXPECT_EQ(codec.Decompress(adaptive), ToBytes(input));
  const Bytes lz = codec.Compress(input);
  const Bytes literal = DeflateCodec::CompressLiterals(input);
  EXPECT_NE(lz, literal);
  EXPECT_TRUE(adaptive == lz || adaptive == literal);
  // The probe's pick is the smaller output on these inputs.
  EXPECT_EQ(adaptive.size(), std::min(lz.size(), literal.size()));
  return adaptive == lz ? Parse::kLz : Parse::kLiteral;
}

TEST(DeflateChoiceTest, NoisyMantissaColumnsGoLiteralIdBytesKeepLz) {
  const std::vector<Bytes> calls = SolverCalls("num_plasma");
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(ChosenParse(calls[0]), Parse::kLz);
  EXPECT_EQ(ChosenParse(calls[1]), Parse::kLiteral);
}

TEST(DeflateChoiceTest, RepetitiveColumnsKeepLz) {
  const std::vector<Bytes> calls = SolverCalls("num_brain");
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(ChosenParse(calls[0]), Parse::kLz);
  EXPECT_EQ(ChosenParse(calls[1]), Parse::kLz);
}

TEST(DeflateChoiceTest, RepeatsBeyondAProbeWindowKeepLz) {
  // A random 20 KiB block repeated 16 times: every repeat is farther back
  // than a 16 KiB probe window but inside the 32 KiB match window, so only
  // a probe that sees the preceding input finds that LZ pays. Literal-only
  // would fall back to stored, 16 times the size.
  Rng rng(41);
  Bytes block(20 * 1024);
  for (auto& b : block) b = static_cast<std::byte>(rng.NextBelow(256));
  Bytes input;
  for (int i = 0; i < 16; ++i) AppendBytes(input, block);
  const DeflateCodec codec;
  const Bytes adaptive = codec.CompressAdaptive(input);
  EXPECT_EQ(adaptive, codec.Compress(input));
  EXPECT_LT(adaptive.size(), 2 * block.size());
  EXPECT_EQ(codec.Decompress(adaptive), input);
}

TEST(DeflateChoiceTest, EveryGeneratorRoundTrips) {
  // Sizes on both sides of the whole-input probe (4 x 16 KiB) and of a
  // 2^16-token block.
  const DeflateCodec codec;
  for (const auto& generator : AllInputGenerators()) {
    for (const std::size_t size :
         {0u, 1u, 7u, 4096u, 65536u, 65537u, 300000u}) {
      const Bytes input = generator.make(size, 5);
      EXPECT_EQ(codec.Decompress(codec.CompressAdaptive(input)), input)
          << generator.label << " " << size;
    }
  }
}

}  // namespace
}  // namespace primacy
