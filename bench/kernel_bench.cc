// Kernel-layer bench: per-kernel GB/s for the scalar reference vs the AVX2
// table where this machine can run it, plus the end-to-end per-stage encode
// breakdown (StageTimer) with kernels forced to scalar vs dispatched.
// Emits BENCH_kernels.json.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/frequency.h"
#include "core/id_mapper.h"
#include "kernels/kernels.h"
#include "util/byte_matrix.h"
#include "util/error.h"
#include "util/timer.h"

namespace primacy::bench {
namespace {

using kernels::Isa;
using kernels::KernelTable;

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas;
  for (Isa isa : kernels::kAllIsas) {
    if (kernels::TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

Isa BestIsa() { return AvailableIsas().back(); }

/// One benched kernel: `run` invokes it once through the given table;
/// `bytes` is the payload processed per invocation (input side), the
/// denominator for GB/s.
struct KernelCase {
  std::string name;
  std::size_t bytes;
  std::function<void(const KernelTable&)> run;
};

double MeasureGBps(const KernelCase& kc, const KernelTable& table) {
  // Size repetitions for a stable measurement (~128 MiB of traffic, 8 MiB
  // under --quick), then take the best of 3 passes to shed scheduler noise.
  const std::size_t target = Quick() ? (8u << 20) : (128u << 20);
  const std::size_t reps = std::max<std::size_t>(1, target / kc.bytes);
  kc.run(table);  // warmup (faults in buffers, primes caches)
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r) kc.run(table);
    const double secs = timer.Seconds();
    const double gbps = secs > 0.0
                            ? static_cast<double>(kc.bytes * reps) / secs / 1e9
                            : 0.0;
    if (gbps > best) best = gbps;
  }
  return best;
}

void RunKernelSection(BenchReport& report) {
  // Realistic payload: big-endian rows of a Table III dataset, so the high
  // bytes have the skewed exponent distribution the run-detection paths in
  // count_pairs are built for.
  const std::vector<double>& values = DatasetValues("num_plasma");
  const std::size_t n = values.size();
  const Bytes rows = DoublesToBigEndianRows(values);
  const SplitBytes split = SplitHighLow(rows, 8, 2);
  const IdIndex index =
      IdIndex::FromFrequency(AnalyzePairFrequency(split.high));
  const Bytes id_bytes = MapToIds(split.high, index, Linearization::kRow);

  // Second payload for count_pairs: num_brain's high bytes are long runs of
  // one exponent pair (the skew Fig. 1 of the paper is about), which is both
  // the run-detection fast path's target and scalar's worst case (a serial
  // read-modify-write chain on a single counter). num_plasma's high bytes
  // average ~11 distinct pairs per 16, so it shows the mixed-data floor.
  const std::vector<double>& brain = DatasetValues("num_brain");
  const std::size_t brain_n = std::min(brain.size(), n);
  const SplitBytes brain_split =
      SplitHighLow(DoublesToBigEndianRows(
                       std::vector<double>(brain.begin(),
                                           brain.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   brain_n))),
                   8, 2);

  Bytes high_buf(n * 2), low_buf(n * 6), wide_buf(n * 8), pair_buf(n * 2);
  std::vector<std::uint32_t> counts(65536, 0);
  std::vector<std::uint64_t> hist(256, 0);
  const auto table_size = static_cast<std::uint32_t>(index.size());

  const std::vector<KernelCase> cases = {
      {"split_w8_h2", n * 8,
       [&](const KernelTable& k) {
         k.split_w8_h2(rows.data(), n, high_buf.data(), low_buf.data());
       }},
      {"merge_w8_h2", n * 8,
       [&](const KernelTable& k) {
         k.merge_w8_h2(split.high.data(), split.low.data(), n,
                       wide_buf.data());
       }},
      {"row_to_col_w2", n * 2,
       [&](const KernelTable& k) {
         k.row_to_col_w2(id_bytes.data(), n, pair_buf.data());
       }},
      {"col_to_row_w2", n * 2,
       [&](const KernelTable& k) {
         k.col_to_row_w2(id_bytes.data(), n, pair_buf.data());
       }},
      {"row_to_col_w8", n * 8,
       [&](const KernelTable& k) {
         k.row_to_col_w8(rows.data(), n, wide_buf.data());
       }},
      {"col_to_row_w8", n * 8,
       [&](const KernelTable& k) {
         k.col_to_row_w8(rows.data(), n, wide_buf.data());
       }},
      {"count_pairs", brain_n * 2,
       [&](const KernelTable& k) {
         k.count_pairs(brain_split.high.data(), brain_n, counts.data());
       }},
      {"count_pairs_mixed", n * 2,
       [&](const KernelTable& k) {
         k.count_pairs(split.high.data(), n, counts.data());
       }},
      {"map_ids16", n * 2,
       [&](const KernelTable& k) {
         if (!k.map_ids16(split.high.data(), n, index.ids_table(),
                          pair_buf.data())) {
           throw InternalError("kernel_bench: map failed");
         }
       }},
      {"unmap_ids16", n * 2,
       [&](const KernelTable& k) {
         if (!k.unmap_ids16(id_bytes.data(), n, index.sequences_u32().data(),
                            table_size, pair_buf.data())) {
           throw InternalError("kernel_bench: unmap failed");
         }
       }},
      {"histogram_stride_w8", n,
       [&](const KernelTable& k) {
         k.histogram_stride(rows.data(), n, 8, hist.data());
       }},
  };

  const std::vector<Isa> isas = AvailableIsas();
  std::printf("%-22s %10s", "kernel", "MiB/call");
  for (const Isa isa : isas) std::printf(" %12s", kernels::IsaName(isa));
  std::printf(" %10s\n", "speedup");
  PrintRule();

  for (const KernelCase& kc : cases) {
    BenchReport::Entry& entry = report.AddEntry(kc.name);
    entry.Set("bytes_per_call", kc.bytes);
    double scalar_gbps = 0.0, dispatched_gbps = 0.0;
    std::printf("%-22s %10.2f", kc.name.c_str(),
                static_cast<double>(kc.bytes) / (1u << 20));
    for (const Isa isa : isas) {
      const double gbps = MeasureGBps(kc, *kernels::TableFor(isa));
      entry.Set(std::string("gbps_") + kernels::IsaName(isa), gbps);
      if (isa == Isa::kScalar) scalar_gbps = gbps;
      if (isa == BestIsa()) dispatched_gbps = gbps;
      std::printf(" %12.3f", gbps);
    }
    const double speedup =
        scalar_gbps > 0.0 ? dispatched_gbps / scalar_gbps : 0.0;
    entry.Set("dispatched_isa", kernels::IsaName(BestIsa()));
    entry.Set("speedup_dispatched_vs_scalar", speedup);
    std::printf(" %9.2fx\n", speedup);
  }
}

void RunStageSection(BenchReport& report) {
  // End-to-end encode with the same options the paper benches use; the
  // StageTimer breakdown inside the chunk pipeline attributes the win to
  // the stages the kernels rewired (split, frequency, id_map, isobar).
  const std::vector<double>& values = DatasetValues("num_plasma");

  if (!kernels::ForceIsa(Isa::kScalar)) {
    throw InternalError("kernel_bench: cannot force scalar");
  }
  const PrimacyMeasurement before = MeasurePrimacy(values);
  if (!kernels::ForceIsa(BestIsa())) {
    throw InternalError("kernel_bench: cannot force best ISA");
  }
  const PrimacyMeasurement after = MeasurePrimacy(values);

  std::printf("\n%-22s %14s %14s %10s   (encode stages, %s vs scalar)\n",
              "stage", "scalar ms", "dispatched ms", "speedup",
              kernels::IsaName(BestIsa()));
  PrintRule();
  // Encode laps every stage but checksum and merge, which run on decode.
  using telemetry::Stage;
  for (const Stage stage : {Stage::kSplit, Stage::kFrequency, Stage::kIdMap,
                            Stage::kSolver, Stage::kIsobar,
                            Stage::kSerialize}) {
    const double b = before.stats.stage.Seconds(stage);
    const double a = after.stats.stage.Seconds(stage);
    BenchReport::Entry& entry =
        report.AddEntry(std::string("stage_") +
                        std::string(telemetry::StageName(stage)));
    entry.Set("scalar_seconds", b);
    entry.Set("dispatched_seconds", a);
    entry.Set("speedup", a > 0.0 ? b / a : 0.0);
    std::printf("%-22s %14.3f %14.3f %9.2fx\n",
                std::string(telemetry::StageName(stage)).c_str(), b * 1e3,
                a * 1e3, a > 0.0 ? b / a : 0.0);
  }

  BenchReport::Entry& totals = report.AddEntry("end_to_end");
  totals.Set("scalar_compress_mbps", before.CompressMBps());
  totals.Set("dispatched_compress_mbps", after.CompressMBps());
  totals.Set("scalar_decompress_mbps", before.DecompressMBps());
  totals.Set("dispatched_decompress_mbps", after.DecompressMBps());
  totals.Set("dispatched_isa", kernels::IsaName(BestIsa()));
  std::printf("\nend-to-end compress  %8.1f -> %8.1f MB/s\n",
              before.CompressMBps(), after.CompressMBps());
  std::printf("end-to-end decompress %7.1f -> %8.1f MB/s\n",
              before.DecompressMBps(), after.DecompressMBps());
}

int Main(int argc, char** argv) {
  Init(argc, argv);
  PrintHeader("Kernel layer: scalar vs dispatched SIMD",
              "runtime-dispatched byte-matrix kernels (src/kernels)");
  std::printf("active ISA at startup: %s\n\n",
              kernels::IsaName(kernels::ActiveIsa()));
  BenchReport report("kernels");
  RunKernelSection(report);
  RunStageSection(report);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace primacy::bench

int main(int argc, char** argv) { return primacy::bench::Main(argc, argv); }
