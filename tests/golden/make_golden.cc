// Regenerates the golden compatibility corpus in tests/golden/data/.
//
//   ./make_golden <output-dir>
//
// The corpus pins the on-disk shape of every supported stream version so
// future format work cannot silently break old checkpoints: the committed
// inputs are the source of truth, and golden_corpus_test.cc asserts each
// committed stream still decodes bit-identically to them. Regenerate (and
// re-commit) only when intentionally adding corpus entries — never rewrite
// history for an existing version.
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bitstream/byte_io.h"
#include "core/chunk_pipeline.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "core/streaming.h"
#include "datasets/datasets.h"
#include "store/checkpoint_store.h"
#include "util/rng.h"

namespace {

using namespace primacy;

PrimacyOptions GoldenOptions() {
  PrimacyOptions options;
  options.chunk_bytes = 2048;  // 256 doubles per chunk -> several chunks
  return options;
}

// Deterministic input: a smooth dataset with adversarial doubles mixed in
// and a dangling byte so the tail block is exercised.
Bytes GoldenInput() {
  std::vector<double> values = GenerateDatasetByName("num_plasma", 600);
  Rng rng(0x601d);
  const double specials[] = {0.0, -0.0, 5e-324, 1.7976931348623157e308,
                             std::bit_cast<double>(0x7ff0000000000000ull),
                             std::bit_cast<double>(0xfff0000000000000ull),
                             std::bit_cast<double>(0x7ff8000000000001ull)};
  for (int i = 0; i < 40; ++i) {
    values[rng.NextBelow(values.size())] = specials[rng.NextBelow(7)];
  }
  Bytes input = ToBytes(AsBytes(values));
  input.push_back(std::byte{0x42});  // partial trailing element
  return input;
}

// 4,096 num_plasma doubles in one chunk: at this size the solver call on
// the noisy mantissa columns already takes the literal-only path, so the
// stream carries a Huffman block with no distance code.
Bytes GoldenLiteralInput() {
  return ToBytes(AsBytes(GenerateDatasetByName("num_plasma", 4096)));
}

// 16,384 num_plasma doubles in one chunk, the fewest whose two ID columns
// each fill one 16 KiB probe window: the near-constant high ID column takes
// the LZ parse and the rank column literal-only Huffman, so the ID call's
// blocks switch between the two at the column boundary.
Bytes GoldenMixedInput() {
  return ToBytes(AsBytes(GenerateDatasetByName("num_plasma", 16384)));
}

// Every option the literal and mixed streams' bytes depend on, set
// explicitly so a change of a library default cannot move the files.
PrimacyOptions GoldenOneChunkOptions() {
  PrimacyOptions options;
  options.chunk_bytes = 3 * 1024 * 1024;  // each input is one chunk
  options.solver = "deflate";
  options.linearization = Linearization::kColumn;
  options.index_mode = IndexMode::kPerChunk;
  options.precision = Precision::kDouble;
  options.isobar.entropy_threshold_bits = 7.8;
  options.isobar.top_frequency_threshold = 0.02;
  return options;
}

Bytes GoldenNoise() {
  Rng rng(0xbad5eed);
  std::vector<double> noise(512);
  for (auto& v : noise) {
    v = std::bit_cast<double>(rng.NextU64() & 0x7fefffffffffffffull);
  }
  return ToBytes(AsBytes(noise));
}

// A v1 header carrying `header_total`, then the chunk records.
Bytes V1Records(ByteSpan input, const PrimacyOptions& options,
                std::uint64_t header_total) {
  Bytes out;
  internal::WriteStreamHeader(out, options, header_total, /*stored=*/false,
                              internal::kFormatVersion1);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const std::size_t tail = input.size() % 8;
  const std::size_t chunk_bytes = options.chunk_bytes;
  for (std::size_t first = 0; first + 8 <= input.size() - tail;
       first += chunk_bytes) {
    const std::size_t count =
        std::min(chunk_bytes, input.size() - tail - first);
    encoder.EncodeChunk(input.subspan(first, count), out);
  }
  return out;
}

Bytes MakeV1(ByteSpan input, const PrimacyOptions& options) {
  Bytes out = V1Records(input, options, input.size());
  PutBlock(out, input.last(input.size() % 8));
  return out;
}

// The v1 streamed shape PrimacyStreamWriter emitted before it wrote v3: the
// kStreamingTotal sentinel in the header, the records, a 0 count, the tail
// block and then the real total.
Bytes MakeV1Streamed(ByteSpan input, const PrimacyOptions& options) {
  Bytes out = V1Records(input, options, kStreamingTotal);
  PutVarint(out, 0);
  PutBlock(out, input.last(input.size() % 8));
  PutVarint(out, input.size());
  return out;
}

Bytes MakeV3Streamed(ByteSpan input, const PrimacyOptions& options) {
  Bytes out;
  PrimacyStreamWriter writer(
      [&out](ByteSpan data) { AppendBytes(out, data); }, options);
  writer.AppendBytes(input);
  writer.Finish();
  return out;
}

Bytes MakeV2(ByteSpan input, const PrimacyOptions& options) {
  Bytes out;
  internal::WriteStreamHeader(out, options, input.size(), /*stored=*/false,
                              internal::kFormatVersion2);
  const auto solver = internal::ResolveSolver(options.solver);
  ChunkEncoder encoder(options, *solver);
  const std::size_t tail = input.size() % 8;
  const std::size_t chunk_bytes = options.chunk_bytes;
  internal::ChunkDirectory directory;
  for (std::size_t first = 0; first + 8 <= input.size() - tail;
       first += chunk_bytes) {
    const std::size_t count =
        std::min(chunk_bytes, input.size() - tail - first);
    internal::ChunkDirectoryEntry entry;
    entry.offset = out.size();
    entry.elements = count / 8;
    entry.index_flag = 1;
    encoder.EncodeChunk(input.subspan(first, count), out);
    directory.chunks.push_back(entry);
  }
  directory.tail_offset = out.size();
  PutBlock(out, input.last(tail));
  internal::AppendChunkDirectory(out, directory, internal::kFormatVersion2);
  return out;
}

void WriteFile(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) {
    std::fprintf(stderr, "make_golden: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), data.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  const PrimacyOptions options = GoldenOptions();

  const Bytes input = GoldenInput();
  WriteFile(dir + "/input.bin", input);
  WriteFile(dir + "/stream_v1.bin", MakeV1(input, options));
  WriteFile(dir + "/stream_v1_streamed.bin", MakeV1Streamed(input, options));
  WriteFile(dir + "/stream_v2.bin", MakeV2(input, options));
  WriteFile(dir + "/stream_v3.bin",
            PrimacyCompressor(options).CompressBytes(input));
  WriteFile(dir + "/stream_v3_streamed.bin", MakeV3Streamed(input, options));

  const Bytes literal_input = GoldenLiteralInput();
  WriteFile(dir + "/literal_input.bin", literal_input);
  WriteFile(dir + "/stream_v3_literal.bin",
            PrimacyCompressor(GoldenOneChunkOptions())
                .CompressBytes(literal_input));

  const Bytes mixed_input = GoldenMixedInput();
  WriteFile(dir + "/mixed_input.bin", mixed_input);
  WriteFile(dir + "/stream_v3_mixed.bin",
            PrimacyCompressor(GoldenOneChunkOptions())
                .CompressBytes(mixed_input));

  const Bytes noise = GoldenNoise();
  WriteFile(dir + "/noise.bin", noise);
  WriteFile(dir + "/stored_v3.bin",
            PrimacyCompressor(options).CompressBytes(noise));

  CheckpointWriter writer(options);
  const std::vector<double> doubles =
      FromBytes<double>(ByteSpan(input).first(input.size() - 1));
  writer.Add("phi", std::span(doubles));
  const std::vector<double> noise_doubles = FromBytes<double>(noise);
  writer.Add("noise", std::span(noise_doubles));
  WriteFile(dir + "/checkpoint.bin", writer.Finish());
  return 0;
}
