// Deterministic corruption harness: a structured mutation engine (bit
// flips, byte stomps, swaps, truncations, insertions, deletions, and
// length-field / footer tampering, all seeded from util::Rng) drives every
// decode surface with 10k mutated streams. The contract under test: a
// mutated stream either decodes cleanly or fails with a *typed* error
// (CorruptStreamError / InvalidArgumentError, or an allocation failure from
// a hostile size field) — never a crash, hang, or undefined behavior. And
// for v3 (checksummed) streams, "decodes cleanly" additionally implies the
// output is bit-identical to the original payload.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/rng.h"

namespace primacy {
namespace {

// ---------------------------------------------------------------------------
// Mutation engine

enum class Mutation {
  kBitFlip,
  kByteStomp,
  kByteSwap,
  kTruncate,
  kAppendGarbage,
  kInsertWindow,
  kDeleteWindow,
  kZeroWindow,
  kLengthFieldTamper,  // overwrite a run with 0xFF: varints balloon
  kFooterTamper,       // mutate within the trailing 32 bytes
  kCount,
};

Bytes Mutate(const Bytes& base, Rng& rng) {
  Bytes out = base;
  const auto kind = static_cast<Mutation>(
      rng.NextBelow(static_cast<std::uint64_t>(Mutation::kCount)));
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.NextBelow(size));
  };
  switch (kind) {
    case Mutation::kBitFlip:
      out[pos(out.size())] ^=
          static_cast<std::byte>(1u << rng.NextBelow(8));
      break;
    case Mutation::kByteStomp:
      out[pos(out.size())] = static_cast<std::byte>(rng.NextU64() & 0xff);
      break;
    case Mutation::kByteSwap: {
      const std::size_t a = pos(out.size());
      const std::size_t b = pos(out.size());
      std::swap(out[a], out[b]);
      break;
    }
    case Mutation::kTruncate:
      out.resize(pos(out.size()));
      break;
    case Mutation::kAppendGarbage: {
      const std::size_t n = 1 + pos(64);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(static_cast<std::byte>(rng.NextU64() & 0xff));
      }
      break;
    }
    case Mutation::kInsertWindow: {
      const std::size_t n = 1 + pos(16);
      Bytes window(n);
      for (auto& b : window) {
        b = static_cast<std::byte>(rng.NextU64() & 0xff);
      }
      const std::size_t at = pos(out.size() + 1);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                 window.begin(), window.end());
      break;
    }
    case Mutation::kDeleteWindow: {
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(16, out.size() - at));
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                out.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case Mutation::kZeroWindow: {
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(32, out.size() - at));
      std::memset(out.data() + at, 0, n);
      break;
    }
    case Mutation::kLengthFieldTamper: {
      // 0xFF runs read back as maximal varint groups — the classic
      // "length field claims more than the buffer holds" shape.
      const std::size_t at = pos(out.size());
      const std::size_t n = 1 + pos(std::min<std::size_t>(9, out.size() - at));
      std::memset(out.data() + at, 0xff, n);
      break;
    }
    case Mutation::kFooterTamper: {
      const std::size_t window = std::min<std::size_t>(32, out.size());
      const std::size_t at = out.size() - window + pos(window);
      out[at] ^= static_cast<std::byte>(1 + (rng.NextU64() & 0xfe));
      break;
    }
    case Mutation::kCount:
      break;  // unreachable
  }
  return out;
}

// Runs `fn` and classifies the outcome. Anything but a clean return or a
// typed decode error (or an allocation failure provoked by a hostile size
// field) fails the test.
template <typename Fn>
bool DecodesCleanly(Fn&& fn, const std::string& context) {
  try {
    fn();
    return true;
  } catch (const CorruptStreamError&) {
  } catch (const InvalidArgumentError&) {
  } catch (const std::bad_alloc&) {
  } catch (const std::length_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": unexpected exception type: " << e.what();
  }
  return false;
}

struct Corpus {
  std::string name;
  Bytes stream;
  Bytes payload;  // the exact bytes a clean decode must reproduce
  bool checksummed = false;
};

std::vector<double> SpecialValues(std::size_t n, Rng& rng) {
  std::vector<double> values = GenerateDatasetByName("num_plasma", n);
  // Sprinkle in the adversarial doubles a checkpoint can legally hold.
  const double specials[] = {0.0, -0.0, 1e308, -1e308, 5e-324,
                             std::bit_cast<double>(0x7ff0000000000000ull),
                             std::bit_cast<double>(0xfff0000000000000ull),
                             std::bit_cast<double>(0x7ff8000000000001ull)};
  for (std::size_t i = 0; i < n / 16; ++i) {
    values[rng.NextBelow(n)] = specials[rng.NextBelow(8)];
  }
  return values;
}

// Hand-assembled v1 (see stream_v2_test.cc): header + records + tail. The
// streamed shape the pre-v3 PrimacyStreamWriter emitted carries the
// kStreamingTotal sentinel instead, ends its records with a 0 count and
// follows the tail block with the real total.
Bytes MakeV1(std::span<const double> values, const PrimacyOptions& options,
             bool streamed = false) {
  Bytes out;
  internal::WriteStreamHeader(out, options,
                              streamed ? kStreamingTotal : values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion1);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const ByteSpan body = AsBytes(values);
  const std::size_t chunk_elements = options.chunk_bytes / 8;
  for (std::size_t first = 0; first < values.size();
       first += chunk_elements) {
    const std::size_t count = std::min(chunk_elements, values.size() - first);
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), out);
  }
  if (streamed) PutVarint(out, 0);
  PutBlock(out, ByteSpan{});
  if (streamed) PutVarint(out, values.size() * 8);
  return out;
}

Bytes MakeV2(std::span<const double> values, const PrimacyOptions& options) {
  Bytes out;
  internal::WriteStreamHeader(out, options, values.size() * 8,
                              /*stored=*/false, internal::kFormatVersion2);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const ByteSpan body = AsBytes(values);
  const std::size_t chunk_elements = options.chunk_bytes / 8;
  internal::ChunkDirectory directory;
  for (std::size_t first = 0; first < values.size();
       first += chunk_elements) {
    const std::size_t count = std::min(chunk_elements, values.size() - first);
    internal::ChunkDirectoryEntry entry;
    entry.offset = out.size();
    entry.elements = count;
    entry.index_flag = 1;
    encoder.EncodeChunk(body.subspan(first * 8, count * 8), out);
    directory.chunks.push_back(entry);
  }
  directory.tail_offset = out.size();
  PutBlock(out, ByteSpan{});
  internal::AppendChunkDirectory(out, directory, internal::kFormatVersion2);
  return out;
}

class CorruptionFuzzTest : public ::testing::Test {
 protected:
  static PrimacyOptions Options() {
    PrimacyOptions options;
    options.chunk_bytes = 4096;  // several chunks from a small payload
    return options;
  }

  static Bytes PayloadOf(std::span<const double> values) {
    return ToBytes(AsBytes(values));
  }
};

// One-shot streams of every version, the stored fallback and streamed
// streams (v3 from the writer, v1 as older writers emitted them): 10200
// seeded mutations through DecompressBytes or, for the streamed corpora,
// PrimacyStreamReader (and, sampled, DecompressRange and VerifyStream).
TEST_F(CorruptionFuzzTest, MutatedStreamsFailCleanlyAcrossVersions) {
  Rng seed_rng(0x5eed);
  const auto values = SpecialValues(1536, seed_rng);

  std::vector<Corpus> corpora;
  corpora.push_back({"v1", MakeV1(values, Options()),
                     PayloadOf(values), false});
  corpora.push_back({"v2", MakeV2(values, Options()),
                     PayloadOf(values), false});
  corpora.push_back({"v3", PrimacyCompressor(Options()).Compress(values),
                     PayloadOf(values), true});
  {
    // Incompressible input: the stored fallback (v3 with a trailing
    // whole-stream checksum).
    Rng rng(3);
    std::vector<double> noise(1024);
    for (auto& v : noise) {
      v = std::bit_cast<double>(rng.NextU64() & 0x7fefffffffffffffull);
    }
    corpora.push_back({"stored", PrimacyCompressor().Compress(noise),
                       PayloadOf(noise), true});
  }
  {
    // Streamed v3: a kStreamingTotal header, totals from the directory.
    Bytes collected;
    PrimacyStreamWriter writer(
        [&](ByteSpan data) { AppendBytes(collected, data); }, Options());
    writer.Append(std::span(values));
    writer.Finish();
    corpora.push_back({"streamed", std::move(collected),
                       PayloadOf(values), true});
  }
  corpora.push_back({"streamed_v1",
                     MakeV1(values, Options(), /*streamed=*/true),
                     PayloadOf(values), false});

  const PrimacyDecompressor decompressor(Options());
  constexpr std::size_t kMutationsPerCorpus = 1700;  // x6 corpora = 10200
  for (const Corpus& corpus : corpora) {
    Rng rng(Xxh64(BytesFromString(corpus.name), 2026));
    for (std::size_t i = 0; i < kMutationsPerCorpus; ++i) {
      const Bytes mutated = Mutate(corpus.stream, rng);
      const std::string context =
          corpus.name + " mutation " + std::to_string(i);
      Bytes decoded;
      const bool clean = DecodesCleanly(
          [&] {
            if (corpus.name.starts_with("streamed")) {
              PrimacyStreamReader reader(mutated);
              while (reader.NextChunk(decoded)) {
              }
            } else {
              decoded = decompressor.DecompressBytes(mutated);
            }
          },
          context);
      if (clean && corpus.checksummed) {
        // The acceptance bar for v3: damage is either detected or the
        // mutation was semantically a no-op — silent wrong output is not an
        // outcome. (Non-payload bytes like the version-independent footer
        // fields can absorb some mutations; the payload must survive.)
        EXPECT_EQ(decoded, corpus.payload) << context;
      }
      // Sampled extra surfaces: range reads and the never-throwing verifier.
      if (i % 5 == 0) {
        const std::uint64_t first = rng.NextBelow(2048);
        const std::uint64_t count = rng.NextBelow(512);
        Bytes slice;
        const bool range_clean = DecodesCleanly(
            [&] {
              slice = decompressor.DecompressBytesRange(mutated, first, count);
            },
            context + " (range)");
        if (range_clean && corpus.checksummed) {
          // Same bar as full decodes: a checksummed range read is either
          // rejected or exact.
          const ByteSpan expected = ByteSpan(corpus.payload).subspan(
              static_cast<std::size_t>(first * 8),
              static_cast<std::size_t>(count * 8));
          EXPECT_EQ(slice, ToBytes(expected)) << context << " (range)";
        }
        const StreamVerifyResult verdict = VerifyStream(mutated);
        if (!verdict.ok) {
          EXPECT_FALSE(verdict.error.empty()) << context;
        }
      }
    }
  }
}

// Checkpoint containers: 1500 seeded mutations through the footer parser,
// bulk restore, and VerifyAll (which must never throw).
TEST_F(CorruptionFuzzTest, MutatedCheckpointsFailCleanly) {
  Rng seed_rng(0xc0ffee);
  CheckpointWriter writer(Options());
  const std::vector<double> temperature = SpecialValues(800, seed_rng);
  const std::vector<double> pressure = SpecialValues(500, seed_rng);
  writer.Add("temperature", std::span(temperature));
  writer.Add("pressure", std::span(pressure));
  const Bytes checkpoint = writer.Finish();

  Rng rng(0xdecaf);
  for (std::size_t i = 0; i < 1500; ++i) {
    const Bytes mutated = Mutate(checkpoint, rng);
    const std::string context = "checkpoint mutation " + std::to_string(i);
    DecodesCleanly(
        [&] {
          const CheckpointReader reader(mutated, Options());
          reader.ReadAllRaw();
          for (const auto& result : reader.VerifyAll()) {
            if (!result.stream.ok) {
              EXPECT_FALSE(result.stream.error.empty()) << context;
            }
          }
        },
        context);
  }
}

// The engine itself is deterministic: the same seed must produce the same
// mutation sequence, or "10k seeded mutations" is not a reproducible claim.
TEST_F(CorruptionFuzzTest, MutationEngineIsDeterministic) {
  const auto values = GenerateDatasetByName("obs_temp", 512);
  const Bytes stream = PrimacyCompressor(Options()).Compress(values);
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Mutate(stream, a), Mutate(stream, b)) << "iteration " << i;
  }
}

}  // namespace
}  // namespace primacy
