// Section II-B ablation: chunk-size sweep. The paper picks 3 MB chunks,
// citing studies that compressor efficiency levels off around that size
// while small chunks pay per-chunk index overhead.
#include <array>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace primacy;
  bench::Init(argc, argv);
  bench::PrintHeader("Ablation: chunk size sweep",
                     "Shah et al., CLUSTER 2012, Section II-B");
  const std::array<std::size_t, 6> chunk_sizes = {
      64 * 1024,   256 * 1024,      1024 * 1024,
      3 * 1024 * 1024, 6 * 1024 * 1024, 12 * 1024 * 1024};

  bench::BenchReport report("ablation_chunk_size");
  for (const char* name : {"gts_chkp_zeon", "num_plasma", "obs_temp"}) {
    const auto& values = bench::DatasetValues(name);
    std::printf("[%s]\n", name);
    std::printf("%12s %10s %12s %12s %12s\n", "chunk", "CR", "CTP(MB/s)",
                "DTP(MB/s)", "index(KB)");
    for (const std::size_t chunk : chunk_sizes) {
      PrimacyOptions options;
      options.chunk_bytes = chunk;
      const auto m = bench::MeasurePrimacy(values, options);
      std::printf("%9zuKB %10.3f %12.1f %12.1f %12.2f\n", chunk / 1024,
                  m.CompressionRatio(), m.CompressMBps(), m.DecompressMBps(),
                  static_cast<double>(m.stats.index_bytes) / 1e3);
      report.AddEntry(name)
          .Set("chunk_bytes", chunk)
          .Set("ratio", m.CompressionRatio())
          .Set("compress_mbps", m.CompressMBps())
          .Set("decompress_mbps", m.DecompressMBps())
          .Set("index_bytes", m.stats.index_bytes);
    }
    std::printf("\n");
  }
  bench::PrintRule();
  std::printf(
      "Paper shape: ratio/throughput level off by ~3MB; tiny chunks pay\n"
      "index overhead, huge chunks stop helping (and hurt in-situ memory).\n");
  return 0;
}
