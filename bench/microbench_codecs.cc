// google-benchmark microbenchmarks: raw Compress/Decompress throughput for
// every codec in the registry over a representative hard-to-compress dataset
// buffer. These are the Tcomp/Tdecomp numbers the performance model consumes.
// The solver cases decode PRIMACY's solver calls on one 3 MiB chunk, beside
// system zlib's inflate of the same columns where the build finds zlib.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "compress/registry.h"
#include "core/builtin_codecs.h"
#include "core/chunk_pipeline.h"
#include "deflate/deflate.h"
#include "util/error.h"

#ifdef PRIMACY_BENCH_ZLIB
#include <zlib.h>
#endif

namespace {

using namespace primacy;

const char* kCodecs[] = {"deflate", "deflate-fast", "lzfast",
                         "bwt",     "fpc",          "fpz",
                         "primacy"};

void BM_Compress(benchmark::State& state) {
  RegisterBuiltinCodecs();
  const std::string codec_name = kCodecs[state.range(0)];
  const auto codec = CreateCodec(codec_name);
  const ByteSpan raw = bench::DatasetBytes("obs_info");
  std::size_t compressed_size = 0;
  for (auto _ : state) {
    const Bytes compressed = codec->Compress(raw);
    compressed_size = compressed.size();
    benchmark::DoNotOptimize(compressed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(raw.size()) *
                          state.iterations());
  state.counters["ratio"] = static_cast<double>(raw.size()) /
                            static_cast<double>(compressed_size);
  state.SetLabel(codec_name);
}

void BM_Decompress(benchmark::State& state) {
  RegisterBuiltinCodecs();
  const std::string codec_name = kCodecs[state.range(0)];
  const auto codec = CreateCodec(codec_name);
  const ByteSpan raw = bench::DatasetBytes("obs_info");
  const Bytes compressed = codec->Compress(raw);
  for (auto _ : state) {
    const Bytes restored = codec->Decompress(compressed);
    benchmark::DoNotOptimize(restored.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(raw.size()) *
                          state.iterations());
  state.SetLabel(codec_name);
}

// v2 read path: thread-pool parallel decompression of one PRIMACY stream
// (64 KiB chunks so the directory has plenty of independent decode groups).
// Arg = worker threads (1 = serial baseline).
void BM_PrimacyParallelDecompress(benchmark::State& state) {
  RegisterBuiltinCodecs();
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  const std::vector<double>& values = bench::DatasetValues("obs_info");
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  options.threads = static_cast<std::size_t>(state.range(0));
  const PrimacyDecompressor decompressor(options);
  PrimacyDecodeStats stats;
  for (auto _ : state) {
    const auto restored = decompressor.Decompress(stream, &stats);
    benchmark::DoNotOptimize(restored.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(values.size() * 8 * state.iterations()));
  state.counters["chunks"] = static_cast<double>(stats.chunks_decoded);
  state.counters["threads_used"] = static_cast<double>(stats.threads_used);
}

// Random-access range read through the chunk directory: 1024 elements from
// the middle of the stream, against full-stream decode cost above.
void BM_PrimacyRangeRead(benchmark::State& state) {
  RegisterBuiltinCodecs();
  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  const std::vector<double>& values = bench::DatasetValues("obs_info");
  const Bytes stream = PrimacyCompressor(options).Compress(values);
  const PrimacyDecompressor decompressor(options);
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const std::size_t first = values.size() / 2 - count / 2;
  PrimacyDecodeStats stats;
  for (auto _ : state) {
    const auto range =
        decompressor.DecompressRange(stream, first, count, &stats);
    benchmark::DoNotOptimize(range.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(count * 8 * state.iterations()));
  state.counters["chunks_touched"] = static_cast<double>(stats.chunks_decoded);
}

/// One solver call as ChunkEncoder makes it: the call's bytes, its column
/// length and DeflateCodec's adaptive encoding of them.
struct SolverCall {
  Bytes data;
  std::size_t column_bytes = 0;
  Bytes encoded;
};

/// Records the solver calls of one chunk and encodes them as DeflateCodec.
class RecordingSolver final : public Codec {
 public:
  std::string_view name() const override { return "deflate"; }
  Bytes Compress(ByteSpan data) const override { return inner_.Compress(data); }
  Bytes CompressAdaptive(ByteSpan data,
                         std::size_t column_bytes) const override {
    Bytes encoded = inner_.CompressAdaptive(data, column_bytes);
    calls_.push_back({ToBytes(data), column_bytes, encoded});
    return encoded;
  }
  Bytes Decompress(ByteSpan data) const override {
    return inner_.Decompress(data);
  }
  std::vector<SolverCall>& calls() const { return calls_; }

 private:
  DeflateCodec inner_;
  mutable std::vector<SolverCall> calls_;
};

/// Call `index` (0: the ID bytes, 1: ISOBAR's compressible columns) of one
/// 3 MiB chunk (393,216 doubles) of `dataset`, at the default options.
const SolverCall& ChunkSolverCall(const std::string& dataset,
                                  std::size_t index) {
  static std::vector<std::pair<std::string, std::vector<SolverCall>>> cache;
  for (const auto& [name, calls] : cache) {
    if (name == dataset) return calls.at(index);
  }
  const std::vector<double> values = GenerateDatasetByName(dataset, 393216);
  const RecordingSolver solver;
  ChunkEncoder encoder(PrimacyOptions{}, solver);
  Bytes record;
  encoder.EncodeChunk(AsBytes(values), record);
  cache.emplace_back(dataset, std::move(solver.calls()));
  return cache.back().second.at(index);
}

/// Names the path a solver call's blocks take and its ratio, and counts the
/// call's whole input as the bytes each iteration processes.
void ReportSolverCall(benchmark::State& state, const SolverCall& call) {
  state.SetBytesProcessed(static_cast<std::int64_t>(call.data.size()) *
                          state.iterations());
  const bool literal =
      call.encoded == DeflateCodec::CompressLiterals(call.data);
  const bool lz = call.encoded == DeflateCodec().Compress(call.data);
  state.SetLabel(literal ? "literal" : lz ? "lz" : "mixed");
  state.counters["ratio"] = static_cast<double>(call.data.size()) /
                            static_cast<double>(call.encoded.size());
}

/// The decoder's single-thread speed on one solver call. The label says
/// which path the call's blocks take: literal-only, LZ, or mixed per column.
void BM_SolverDecode(benchmark::State& state, const char* dataset,
                     std::size_t index) {
  const SolverCall& call = ChunkSolverCall(dataset, index);
  const DeflateCodec codec;
  if (codec.Decompress(call.encoded) != call.data) {
    state.SkipWithError("solver call does not round-trip");
    return;
  }
  for (auto _ : state) {
    const Bytes restored = codec.Decompress(call.encoded);
    benchmark::DoNotOptimize(restored.data());
  }
  ReportSolverCall(state, call);
}

/// The same call inflated for a 1,024-element window in the middle of each
/// column, as ChunkDecoder asks for it on an uncached range read. The bytes
/// processed are still the whole call's, so the rate compares with
/// BM_SolverDecode's.
void BM_SolverDecodeWindow(benchmark::State& state, const char* dataset,
                           std::size_t index) {
  constexpr std::size_t kWindow = 1024;
  const SolverCall& call = ChunkSolverCall(dataset, index);
  const DeflateCodec codec;
  const std::size_t column =
      call.column_bytes == 0 ? call.data.size() : call.column_bytes;
  const std::size_t first = column / 2 - kWindow / 2;
  const Bytes window =
      codec.DecompressWindow(call.encoded, call.column_bytes, first, kWindow);
  for (std::size_t at = first; at < call.data.size(); at += column) {
    if (window.size() != call.data.size() ||
        std::memcmp(window.data() + at, call.data.data() + at, kWindow) != 0) {
      state.SkipWithError("solver call window does not round-trip");
      return;
    }
  }
  for (auto _ : state) {
    const Bytes restored =
        codec.DecompressWindow(call.encoded, call.column_bytes, first, kWindow);
    benchmark::DoNotOptimize(restored.data());
  }
  ReportSolverCall(state, call);
}

#ifdef PRIMACY_BENCH_ZLIB
/// `data` as one zlib stream: Z_HUFFMAN_ONLY, or level 6 with matches.
std::vector<Bytef> ZlibDeflate(ByteSpan data, bool literals) {
  z_stream stream{};
  if (deflateInit2(&stream, 6, Z_DEFLATED, 15, 8,
                   literals ? Z_HUFFMAN_ONLY : Z_DEFAULT_STRATEGY) != Z_OK) {
    throw InternalError("zlib deflateInit2 failed");
  }
  std::vector<Bytef> out(deflateBound(&stream, data.size()));
  std::vector<Bytef> in(data.size());
  std::memcpy(in.data(), data.data(), data.size());
  stream.next_in = in.data();
  stream.avail_in = static_cast<uInt>(in.size());
  stream.next_out = out.data();
  stream.avail_out = static_cast<uInt>(out.size());
  const int rc = deflate(&stream, Z_FINISH);
  deflateEnd(&stream);
  if (rc != Z_STREAM_END) throw InternalError("zlib deflate failed");
  out.resize(stream.total_out);
  return out;
}

/// zlib's inflate of the same call: one stream per run of columns that the
/// solver codes the same way, Z_HUFFMAN_ONLY for literal columns and level
/// 6 for LZ columns. A column is literal when DeflateCodec codes it alone
/// as CompressLiterals does.
void BM_SolverDecodeZlib(benchmark::State& state, const char* dataset,
                         std::size_t index) {
  const SolverCall& call = ChunkSolverCall(dataset, index);
  const DeflateCodec codec;
  const std::size_t column =
      call.column_bytes == 0 ? call.data.size() : call.column_bytes;
  std::vector<std::pair<std::size_t, bool>> runs;  // (bytes, literal)
  for (std::size_t first = 0; first < call.data.size(); first += column) {
    const ByteSpan bytes = ByteSpan(call.data).subspan(first, column);
    const bool literal = codec.CompressAdaptive(bytes, 0) ==
                         DeflateCodec::CompressLiterals(bytes);
    if (!runs.empty() && runs.back().second == literal) {
      runs.back().first += column;
    } else {
      runs.emplace_back(column, literal);
    }
  }
  std::vector<std::vector<Bytef>> streams;
  std::size_t encoded_bytes = 0;
  std::size_t first = 0;
  for (const auto& [bytes, literal] : runs) {
    streams.push_back(
        ZlibDeflate(ByteSpan(call.data).subspan(first, bytes), literal));
    encoded_bytes += streams.back().size();
    first += bytes;
  }
  std::vector<Bytef> restored(call.data.size());
  for (auto _ : state) {
    Bytef* out = restored.data();
    for (std::size_t r = 0; r < streams.size(); ++r) {
      uLongf size = static_cast<uLongf>(runs[r].first);
      if (uncompress(out, &size, streams[r].data(),
                     static_cast<uLong>(streams[r].size())) != Z_OK) {
        state.SkipWithError("zlib inflate failed");
        return;
      }
      out += size;
    }
    benchmark::DoNotOptimize(restored.data());
    benchmark::ClobberMemory();
  }
  if (std::memcmp(restored.data(), call.data.data(), restored.size()) != 0) {
    state.SkipWithError("zlib inflate does not round-trip");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(call.data.size()) *
                          state.iterations());
  std::string label;
  for (const auto& run : runs) {
    label += label.empty() ? "" : "+";
    label += run.second ? "huffman_only" : "level6";
  }
  state.SetLabel(label);
  state.counters["ratio"] = static_cast<double>(call.data.size()) /
                            static_cast<double>(encoded_bytes);
}
#endif

}  // namespace

BENCHMARK(BM_Compress)->DenseRange(0, 6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decompress)->DenseRange(0, 6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrimacyParallelDecompress)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrimacyRangeRead)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);
// The decode side of ROADMAP's "inflate at zlib speed": num_plasma's ISOBAR
// call is literal-only and its ID call mixes LZ (high column) with literal
// (rank column) blocks; both num_brain calls are LZ. Each case's window
// twin decodes only what a 1,024-element range read needs.
BENCHMARK_CAPTURE(BM_SolverDecode, num_plasma_isobar, "num_plasma", 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeWindow, num_plasma_isobar, "num_plasma", 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecode, num_plasma_ids, "num_plasma", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeWindow, num_plasma_ids, "num_plasma", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecode, num_brain_ids, "num_brain", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeWindow, num_brain_ids, "num_brain", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecode, num_brain_isobar, "num_brain", 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeWindow, num_brain_isobar, "num_brain", 1)
    ->Unit(benchmark::kMillisecond);
#ifdef PRIMACY_BENCH_ZLIB
BENCHMARK_CAPTURE(BM_SolverDecodeZlib, num_plasma_isobar, "num_plasma", 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeZlib, num_plasma_ids, "num_plasma", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeZlib, num_brain_ids, "num_brain", 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolverDecodeZlib, num_brain_isobar, "num_brain", 1)
    ->Unit(benchmark::kMillisecond);
#endif
