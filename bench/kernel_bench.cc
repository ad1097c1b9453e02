// Kernel-layer bench: per-kernel GB/s for the scalar reference vs the AVX2
// table where this machine can run it, plus the end-to-end per-stage encode
// and decode breakdown (StageTimer) with kernels forced to scalar vs
// dispatched, as the median and range of repeated passes in alternating
// order.
// Emits BENCH_kernels.json.
#include <algorithm>
#include <array>
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
  const SplitBytes split = SplitHighLow(rows, 8);
  const IdIndex index =
      IdIndex::FromFrequency(AnalyzePairFrequency(split.high));
  const Bytes id_bytes = MapToIds(split.high, index, Linearization::kRow);
  // The decoder's view of the same chunk: column-linearized ID planes and
  // the six mantissa planes (the first two serve the width-4 kernel).
  const Bytes id_planes = MapToIds(split.high, index, Linearization::kColumn);
  Bytes low_planes(n * 6);
  std::array<const std::byte*, 6> low_ptrs{};
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      low_planes[c * n + i] = split.low[i * 6 + c];
    }
    low_ptrs[c] = low_planes.data() + c * n;
  }

  // Second payload for count_pairs: num_brain's high bytes are long runs of
  // one exponent pair (the skew Fig. 1 of the paper is about), which is both
  // the run-detection fast path's target and scalar's worst case (a serial
  // read-modify-write chain on a single counter). num_plasma's high bytes
  // average ~11 distinct pairs per 16, so it shows the mixed-data floor.
  const std::vector<double>& brain = DatasetValues("num_brain");
  const std::size_t brain_n = std::min(brain.size(), n);
  const SplitBytes brain_split = SplitHighLow(
      DoublesToBigEndianRows(std::span<const double>(brain).first(brain_n)),
      8);

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
      {"assemble_w8", n * 8,
       [&](const KernelTable& k) {
         if (!k.assemble_w8(id_planes.data(), id_planes.data() + n, 1,
                            low_ptrs.data(), n, index.sequences_u32().data(),
                            table_size, wide_buf.data())) {
           throw InternalError("kernel_bench: assemble failed");
         }
       }},
      {"assemble_w4", n * 4,
       [&](const KernelTable& k) {
         if (!k.assemble_w4(id_planes.data(), id_planes.data() + n, 1,
                            low_ptrs.data(), n, index.sequences_u32().data(),
                            table_size, wide_buf.data())) {
           throw InternalError("kernel_bench: assemble failed");
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

/// Median and range of one quantity over repeated passes.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  const double median = samples.size() % 2 == 1
                            ? samples[mid]
                            : (samples[mid - 1] + samples[mid]) / 2.0;
  return {median, samples.front(), samples.back()};
}

/// `field` of every pass, as a Spread.
Spread Over(const std::vector<PrimacyMeasurement>& passes,
            const std::function<double(const PrimacyMeasurement&)>& field) {
  std::vector<double> samples;
  for (const PrimacyMeasurement& m : passes) samples.push_back(field(m));
  return SpreadOf(std::move(samples));
}

/// Sets `key` to the median and `key`_min / `key`_max to the range.
void SetSpread(BenchReport::Entry& entry, const std::string& key,
               const Spread& spread) {
  entry.Set(key, spread.median);
  entry.Set(key + "_min", spread.min);
  entry.Set(key + "_max", spread.max);
}

void RunStageSection(BenchReport& report) {
  // End-to-end encode and decode with the same options the paper benches
  // use; the StageTimer breakdown inside the chunk pipeline attributes the
  // win to the stages the kernels rewired (split, frequency, id_map and
  // isobar on encode, merge on decode).
  // Passes alternate the order (scalar, dispatched, dispatched, scalar,
  // ...) so a slow stretch of the host falls on both sides, and each
  // figure is the median over the passes with its min-max: one slow run
  // must not read as an ISA effect.
  const std::vector<double>& values = DatasetValues("num_plasma");
  const int passes = Quick() ? 2 : 5;
  std::vector<PrimacyMeasurement> scalar;
  std::vector<PrimacyMeasurement> dispatched;
  const auto measure = [&values](Isa isa,
                                 std::vector<PrimacyMeasurement>& into) {
    if (!kernels::ForceIsa(isa)) {
      throw InternalError("kernel_bench: cannot force an ISA");
    }
    into.push_back(MeasurePrimacy(values));
  };
  for (int pass = 0; pass < passes; ++pass) {
    if (pass % 2 == 0) {
      measure(Isa::kScalar, scalar);
      measure(BestIsa(), dispatched);
    } else {
      measure(BestIsa(), dispatched);
      measure(Isa::kScalar, scalar);
    }
  }

  // Encode laps every stage but checksum and merge, which run on decode;
  // decode laps checksum (record verification), frequency (index restore),
  // solver, isobar and merge.
  using telemetry::Stage;
  const auto report_stages = [&](const char* pipeline,
                                 const std::string& entry_prefix,
                                 std::initializer_list<Stage> stages,
                                 const auto& breakdown) {
    std::printf("\n%-12s %24s %24s %9s   (%s stages, %s vs scalar, "
                "median [min-max] of %d passes)\n",
                "stage", "scalar ms", "dispatched ms", "speedup", pipeline,
                kernels::IsaName(BestIsa()), passes);
    PrintRule();
    for (const Stage stage : stages) {
      const auto seconds = [&breakdown, stage](const PrimacyMeasurement& m) {
        return breakdown(m).Seconds(stage);
      };
      const Spread b = Over(scalar, seconds);
      const Spread a = Over(dispatched, seconds);
      BenchReport::Entry& entry = report.AddEntry(
          entry_prefix + std::string(telemetry::StageName(stage)));
      SetSpread(entry, "scalar_seconds", b);
      SetSpread(entry, "dispatched_seconds", a);
      entry.Set("speedup", a.median > 0.0 ? b.median / a.median : 0.0);
      entry.Set("passes", passes);
      std::printf("%-12s %8.3f [%6.3f-%6.3f] %8.3f [%6.3f-%6.3f] %8.2fx\n",
                  std::string(telemetry::StageName(stage)).c_str(),
                  b.median * 1e3, b.min * 1e3, b.max * 1e3, a.median * 1e3,
                  a.min * 1e3, a.max * 1e3,
                  a.median > 0.0 ? b.median / a.median : 0.0);
    }
  };
  report_stages("encode", "stage_",
                {Stage::kSplit, Stage::kFrequency, Stage::kIdMap,
                 Stage::kSolver, Stage::kIsobar, Stage::kSerialize},
                [](const PrimacyMeasurement& m) -> const auto& {
                  return m.stats.stage;
                });
  report_stages("decode", "decode_stage_",
                {Stage::kChecksum, Stage::kFrequency, Stage::kSolver,
                 Stage::kIsobar, Stage::kMerge},
                [](const PrimacyMeasurement& m) -> const auto& {
                  return m.decode_stats.stage;
                });

  const auto compress = [](const PrimacyMeasurement& m) {
    return m.CompressMBps();
  };
  const auto decompress = [](const PrimacyMeasurement& m) {
    return m.DecompressMBps();
  };
  const Spread scalar_c = Over(scalar, compress);
  const Spread dispatched_c = Over(dispatched, compress);
  const Spread scalar_d = Over(scalar, decompress);
  const Spread dispatched_d = Over(dispatched, decompress);
  BenchReport::Entry& totals = report.AddEntry("end_to_end");
  SetSpread(totals, "scalar_compress_mbps", scalar_c);
  SetSpread(totals, "dispatched_compress_mbps", dispatched_c);
  SetSpread(totals, "scalar_decompress_mbps", scalar_d);
  SetSpread(totals, "dispatched_decompress_mbps", dispatched_d);
  totals.Set("dispatched_isa", kernels::IsaName(BestIsa()));
  totals.Set("passes", passes);
  std::printf("\nend-to-end compress   %8.1f -> %8.1f MB/s (medians)\n",
              scalar_c.median, dispatched_c.median);
  std::printf("end-to-end decompress %8.1f -> %8.1f MB/s (medians)\n",
              scalar_d.median, dispatched_d.median);
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
