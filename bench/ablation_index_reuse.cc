// Section II-F ablation: per-chunk indexing (the paper's implementation) vs
// the correlation-gated delta-index reuse the paper sketches as future work.
// Reuse should cut index metadata substantially while preserving almost all
// of the compression ratio.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace primacy;
  bench::Init(argc, argv);
  bench::PrintHeader(
      "Ablation: per-chunk index vs correlation-gated delta reuse",
      "Shah et al., CLUSTER 2012, Section II-F (future-work design)");
  std::printf("%-15s | %7s %9s %9s | %7s %9s %9s %7s | %9s\n", "dataset",
              "CR", "idx(KB)", "CTP", "CR", "idx(KB)", "CTP", "#delta",
              "CR loss%");
  std::printf("%-15s | %25s | %35s |\n", "", "per-chunk", "reuse-when-correlated");
  bench::PrintRule();

  PrimacyOptions per_chunk;
  per_chunk.chunk_bytes = 256 * 1024;  // many chunks at bench sizes
  PrimacyOptions reuse = per_chunk;
  reuse.index_mode = IndexMode::kReuseWhenCorrelated;

  bench::BenchReport report("ablation_index_reuse");
  double metadata_saving_sum = 0.0;
  double cr_loss_sum = 0.0;
  for (const DatasetSpec& spec : AllDatasets()) {
    const auto& values = bench::DatasetValues(spec.name);
    const auto a = bench::MeasurePrimacy(values, per_chunk);
    const auto b = bench::MeasurePrimacy(values, reuse);
    const double cr_loss =
        100.0 * (1.0 - b.CompressionRatio() / a.CompressionRatio());
    cr_loss_sum += cr_loss;
    if (a.stats.index_bytes > 0) {
      metadata_saving_sum +=
          100.0 * (1.0 - static_cast<double>(b.stats.index_bytes) /
                             static_cast<double>(a.stats.index_bytes));
    }
    std::printf("%-15s | %7.3f %9.2f %9.1f | %7.3f %9.2f %9.1f %7zu | %9.2f\n",
                spec.name.c_str(), a.CompressionRatio(),
                static_cast<double>(a.stats.index_bytes) / 1e3,
                a.CompressMBps(), b.CompressionRatio(),
                static_cast<double>(b.stats.index_bytes) / 1e3,
                b.CompressMBps(), b.stats.delta_indexes, cr_loss);
    report.AddEntry(spec.name)
        .Set("per_chunk_ratio", a.CompressionRatio())
        .Set("per_chunk_index_bytes", a.stats.index_bytes)
        .Set("per_chunk_compress_mbps", a.CompressMBps())
        .Set("reuse_ratio", b.CompressionRatio())
        .Set("reuse_index_bytes", b.stats.index_bytes)
        .Set("reuse_compress_mbps", b.CompressMBps())
        .Set("delta_indexes", b.stats.delta_indexes)
        .Set("cr_loss_pct", cr_loss);
  }

  bench::PrintRule();
  std::printf("mean index metadata saving: %.1f%%\n", metadata_saving_sum / 20.0);
  std::printf("mean CR loss              : %.2f%% (goal: preserve most of CR)\n",
              cr_loss_sum / 20.0);
  return 0;
}
