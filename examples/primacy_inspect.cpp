// primacy_inspect: dump the structure of a PRIMACY stream — header fields
// and, per chunk, the element count, index mode (full / reuse / delta),
// index size, compressed ID size, and ISOBAR mantissa stream size. Useful
// for understanding where the bytes went.
//
//   ./primacy_inspect <file>          inspect a stream written by pfile/
//                                     checkpoint tools
//   ./primacy_inspect --verify <file> validate stream integrity (v3:
//                                     checksums; v1/v2: structural decode);
//                                     exit 0 = valid, 1 = corrupt
//   ./primacy_inspect --demo [name]   generate a dataset, compress it, and
//                                     inspect the in-memory stream
//   ./primacy_inspect --metrics [file] decode the stream (or, with no file,
//                                     roundtrip a demo dataset) and dump the
//                                     telemetry registry in Prometheus text
//                                     format
//   ./primacy_inspect [--no-cache] --cache-stats [file]
//                                     decode the stream (or a demo stream)
//                                     twice through the decoded-block cache
//                                     and report per-pass hit/miss counts,
//                                     the cache snapshot, and the
//                                     primacy_cache_* metric series;
//                                     --no-cache disables the cache to show
//                                     the passthrough baseline
//   ./primacy_inspect --serve [port]  run a demo roundtrip workload in a
//                                     loop while serving the observability
//                                     endpoints (/metrics, /healthz,
//                                     /readyz, /statusz, /profilez) on
//                                     127.0.0.1:<port> (0 or omitted =
//                                     ephemeral, printed on stdout); GET
//                                     /quitquitquit stops the process —
//                                     the target CI scrapes live
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bitstream/byte_io.h"
#include "core/primacy_codec.h"
#include "core/stream_format.h"
#include "datasets/datasets.h"
#include "telemetry/exporter/observability_hub.h"
#include "telemetry/metrics.h"
#include "transport/shutdown_signal.h"
#include "util/error.h"

namespace {

primacy::Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw primacy::Error("cannot open " + path);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return primacy::BytesFromString(raw);
}

void Inspect(primacy::ByteSpan stream) {
  using namespace primacy;
  ByteReader reader(stream);
  const internal::StreamHeader header = internal::ReadStreamHeader(reader);
  const std::size_t chunks_begin = reader.Offset();

  std::printf("stream: %zu bytes\n", stream.size());
  std::printf("  format        : v%u%s\n", header.version,
              header.version >= internal::kFormatVersion2 ? " (seekable)"
                                                          : "");
  std::printf("  solver        : %s\n", header.solver_name.c_str());
  std::printf("  element width : %zu (%s precision)\n", header.width,
              header.width == 8 ? "double" : "single");
  std::printf("  linearization : %s\n",
              header.linearization == Linearization::kColumn ? "column"
                                                             : "row");
  if (header.stored) {
    std::printf("  stored fallback stream: %llu raw payload bytes\n",
                static_cast<unsigned long long>(header.total_bytes));
    return;
  }
  const bool streamed = header.total_bytes == kStreamingTotal;
  if (streamed) {
    std::printf("  total bytes   : (streamed; %s)\n",
                header.version >= internal::kFormatVersion2
                    ? "taken from the directory"
                    : "recorded in trailer");
  } else {
    std::printf("  total bytes   : %llu\n",
                static_cast<unsigned long long>(header.total_bytes));
  }
  // v2/v3 list the records their directory counts; v1 scans them until the
  // header total (one-shot) or the 0-count sentinel (streamed).
  std::optional<internal::ChunkDirectory> directory;
  if (header.version >= internal::kFormatVersion2) {
    directory =
        internal::ReadChunkDirectory(stream, chunks_begin, header.version);
  }

  std::printf("\n%6s %12s %8s %10s %12s %12s\n", "chunk", "elements", "index",
              "idx(B)", "IDs(B)", "mantissa(B)");
  const std::uint64_t total_elements = header.total_bytes / header.width;
  std::uint64_t decoded = 0;
  for (std::size_t chunk_no = 0;; ++chunk_no) {
    if (directory ? chunk_no == directory->chunks.size()
                  : !streamed && decoded >= total_elements) {
      break;
    }
    const std::uint64_t count = reader.GetVarint();
    if (count == 0 && !directory) break;  // streamed v1 end of chunks
    const std::uint8_t flag = reader.GetU8();
    std::size_t index_bytes = 0;
    const char* mode = "reuse";
    if (flag == 1) {
      index_bytes = reader.GetBlock().size();
      mode = "full";
    } else if (flag == 2) {
      index_bytes = reader.GetBlock().size();
      mode = "delta";
    } else if (flag != 0) {
      throw CorruptStreamError("inspect: bad index flag");
    }
    const std::size_t id_bytes = reader.GetBlock().size();
    const std::size_t mantissa_bytes = reader.GetBlock().size();
    std::printf("%6zu %12llu %8s %10zu %12zu %12zu\n", chunk_no,
                static_cast<unsigned long long>(count), mode, index_bytes,
                id_bytes, mantissa_bytes);
    decoded += count;
  }
  const ByteSpan tail = reader.GetBlock();
  std::printf("\ntail bytes: %zu\n", tail.size());
  if (streamed && !directory) {
    std::printf("trailer total: %llu bytes\n",
                static_cast<unsigned long long>(reader.GetVarint()));
  }
  if (directory) {
    std::printf("directory: %zu entries, %zu bytes incl. footer (seekable%s)\n",
                directory->chunks.size(),
                stream.size() -
                    static_cast<std::size_t>(directory->directory_offset),
                directory->has_checksums ? ", checksummed" : "");
  }
}

int Verify(primacy::ByteSpan stream) {
  const primacy::StreamVerifyResult result = primacy::VerifyStream(stream);
  std::printf("version        : v%u\n", result.version);
  std::printf("verification   : %s\n", result.has_checksums
                                           ? "checksums (hash-only)"
                                           : "structural decode");
  std::printf("chunks checked : %zu\n", result.chunks_checked);
  if (result.ok) {
    std::printf("result         : OK\n");
    return 0;
  }
  std::printf("result         : CORRUPT (%s)\n", result.error.c_str());
  return 1;
}

/// Exercises the pipeline so the registry has data to show, then dumps it.
/// With a file: a full decode of that stream. Without: a demo roundtrip.
int Metrics(const char* path) {
  using namespace primacy;
  // threads = 2 engages the process-wide SharedThreadPool so the
  // primacy_pool_* series (labeled pool="shared") show up in the dump.
  PrimacyOptions options;
  options.threads = 2;
  if (path != nullptr) {
    PrimacyDecompressor(options).DecompressBytes(ReadFile(path));
  } else {
    options.chunk_bytes = 256 * 1024;  // several chunks -> parallel paths
    const auto values = GenerateDatasetByName("num_plasma", 1u << 18);
    const Bytes stream = PrimacyCompressor(options).Compress(values);
    PrimacyDecompressor(options).Decompress(stream);
  }
  std::fputs(telemetry::MetricsRegistry::Global().RenderPrometheus().c_str(),
             stdout);
  return 0;
}

/// Decodes the stream twice through a cache-enabled decompressor (unless
/// use_cache is false — the passthrough baseline) and reports what the
/// cache did: per-pass hit/miss/decode counts, the shard-summed snapshot,
/// and the primacy_cache_* series from the telemetry registry.
int CacheStats(const char* path, bool use_cache) {
  using namespace primacy;
  PrimacyOptions options;
  options.cache.enabled = use_cache;
  Bytes stream;
  if (path != nullptr) {
    stream = ReadFile(path);
  } else {
    PrimacyOptions demo;
    demo.chunk_bytes = 256 * 1024;  // several chunks -> several cache keys
    const auto values = GenerateDatasetByName("num_plasma", 1u << 18);
    stream = PrimacyCompressor(demo).Compress(values);
    std::printf("demo stream: dataset 'num_plasma', %u doubles\n", 1u << 18);
  }

  const PrimacyDecompressor decompressor(options);
  std::printf("cache          : %s\n",
              decompressor.cache() != nullptr ? "enabled" : "disabled");
  const char* pass_names[2] = {"cold", "warm"};
  for (const char* pass : pass_names) {
    PrimacyDecodeStats stats;
    decompressor.DecompressBytes(stream, &stats);
    std::printf("%s pass      : %zu chunks decoded, %zu cache hits, "
                "%zu cache misses\n",
                pass, stats.chunks_decoded, stats.cache_hits,
                stats.cache_misses);
  }

  const auto& cache = decompressor.cache();
  if (cache == nullptr) {
    std::printf("no cache snapshot (decode ran uncached)\n");
    return 0;
  }
  const CacheStatsSnapshot snapshot = cache->Stats();
  if (snapshot.hits + snapshot.misses == 0) {
    std::printf("stream not cacheable (v1 or stored fallback: no chunk "
                "directory to key against)\n");
    return 0;
  }
  std::printf("cache snapshot : %zu entries, %zu bytes resident\n",
              snapshot.entries, snapshot.bytes);
  std::printf("  hits %zu, misses %zu (ratio %.2f), insertions %zu, "
              "evictions %zu, rejected %zu\n",
              snapshot.hits, snapshot.misses, snapshot.HitRatio(),
              snapshot.insertions, snapshot.evictions, snapshot.rejected);

  std::printf("\n");
  std::istringstream render(
      telemetry::MetricsRegistry::Global().RenderPrometheus());
  for (std::string line; std::getline(render, line);) {
    if (line.find("primacy_cache_") != std::string::npos) {
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

/// Serves the observability endpoints over a continuously-running demo
/// roundtrip workload, so a scrape (or a person with curl) sees live
/// counters, stage histograms, and profiler samples. Stops on
/// GET /quitquitquit, SIGINT, or SIGTERM — all three run the same
/// finish-the-round-then-stop drain path.
int Serve(int port) {
  using namespace primacy;
  auto& shutdown_signal = transport::ShutdownSignal::Instance();
  std::string signal_error;
  if (!shutdown_signal.Install(&signal_error)) {
    std::fprintf(stderr, "error: signal handler install failed: %s\n",
                 signal_error.c_str());
    return 1;
  }
  telemetry::ObservabilityHubOptions hub_options;
  hub_options.http_port = port;
  hub_options.enable_quit_endpoint = true;
  hub_options.profile_interval_ns = 1'000'000;  // 1 kHz stage sampling
  if (const char* dir = std::getenv("PRIMACY_TRACE_DIR")) {
    hub_options.trace_dir = dir;  // also rotate trace segments while serving
  }
  telemetry::ObservabilityHub hub(std::move(hub_options));
  hub.Start();
  if (hub.HttpPort() < 0) {
    std::fprintf(stderr, "error: cannot bind 127.0.0.1:%d\n", port);
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d — GET /metrics /healthz /readyz "
              "/statusz /profilez; GET /quitquitquit stops\n",
              hub.HttpPort());
  std::fflush(stdout);

  PrimacyOptions options;
  options.chunk_bytes = 64 * 1024;
  const auto values = GenerateDatasetByName("num_plasma", 1u << 16);
  const PrimacyCompressor compressor(options);
  const PrimacyDecompressor decompressor(options);
  std::uint64_t rounds = 0;
  while (!hub.ShutdownRequested() && !shutdown_signal.Requested()) {
    const Bytes stream = compressor.Compress(values);
    decompressor.Decompress(stream);
    ++rounds;
  }
  hub.Stop();
  std::printf("shutdown requested (%s) after %llu roundtrips\n",
              shutdown_signal.Requested() ? "signal" : "/quitquitquit",
              static_cast<unsigned long long>(rounds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // --no-cache is a modifier for --cache-stats; strip it first.
    bool use_cache = true;
    if (argc >= 2 && std::string(argv[1]) == "--no-cache") {
      use_cache = false;
      --argc;
      ++argv;
    }
    if ((argc == 2 || argc == 3) && std::string(argv[1]) == "--cache-stats") {
      return CacheStats(argc == 3 ? argv[2] : nullptr, use_cache);
    }
    if (!use_cache) {
      std::fprintf(stderr, "error: --no-cache only applies to --cache-stats\n");
      return 2;
    }
    if (argc >= 2 && std::string(argv[1]) == "--demo") {
      const std::string dataset = argc > 2 ? argv[2] : "num_plasma";
      const auto values = primacy::GenerateDatasetByName(dataset, 1u << 19);
      primacy::PrimacyOptions options;
      options.index_mode = primacy::IndexMode::kReuseWhenCorrelated;
      options.chunk_bytes = 512 * 1024;
      const primacy::Bytes stream =
          primacy::PrimacyCompressor(options).Compress(values);
      std::printf("demo: dataset '%s', %u doubles\n\n", dataset.c_str(),
                  1u << 19);
      Inspect(stream);
      return 0;
    }
    if (argc == 3 && std::string(argv[1]) == "--verify") {
      return Verify(ReadFile(argv[2]));
    }
    if ((argc == 2 || argc == 3) && std::string(argv[1]) == "--metrics") {
      return Metrics(argc == 3 ? argv[2] : nullptr);
    }
    if ((argc == 2 || argc == 3) && std::string(argv[1]) == "--serve") {
      return Serve(argc == 3 ? std::atoi(argv[2]) : 0);
    }
    if (argc == 2) {
      const primacy::Bytes stream = ReadFile(argv[1]);
      Inspect(stream);
      return 0;
    }
    std::fprintf(stderr,
                 "usage: primacy_inspect <file> | --verify <file> | "
                 "--demo [dataset] | --metrics [file] | "
                 "[--no-cache] --cache-stats [file] | --serve [port]\n");
    return 2;
  } catch (const primacy::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
