// Model validation: close the loop between the Section III performance
// model and the instrumented pipeline. The telemetry stage breakdown gives
// real per-stage throughputs (preconditioner = split + frequency + id_map +
// serialize, solver passes = solver + isobar; read-path analogues per
// src/telemetry/stage.h). Those rates are calibrated on one dataset, fed
// into the model as Tprec/Tcomp/Tdecomp/Tpost, and the model's predicted
// pipeline throughput is compared against the measured wall-clock value on
// held-out datasets — per-stage relative error included.
//
// The network and disk rates are set astronomically high so the comparison
// isolates the compute terms the telemetry can actually check (Eqs. 7-10 and
// their read-path mirrors); the transfer/IO terms are exercised against the
// event simulator in fig4_end_to_end and model_sweep.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "bench_util.h"
#include "model/perf_model.h"
#include "telemetry/stage.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace primacy;
using telemetry::Stage;
using telemetry::StageBreakdown;

struct PathMeasurement {
  PrimacyStats stats;
  PrimacyDecodeStats dstats;
  std::size_t compressed_bytes = 0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
};

PathMeasurement Measure(std::span<const double> values) {
  const PrimacyOptions options;  // paper defaults: 3 MB chunks, serial
  PathMeasurement m;
  WallTimer timer;
  const Bytes stream = PrimacyCompressor(options).Compress(values, &m.stats);
  m.compress_seconds = timer.Seconds();
  m.compressed_bytes = stream.size();

  timer.Reset();
  const std::vector<double> restored =
      PrimacyDecompressor(options).Decompress(stream, &m.dstats);
  m.decompress_seconds = timer.Seconds();
  if (restored.size() != values.size() ||
      !std::equal(restored.begin(), restored.end(), values.begin())) {
    throw InternalError("model_validation: roundtrip mismatch");
  }
  return m;
}

// Stage groups matching the model's terms (see src/telemetry/stage.h).
double EncodePrecSeconds(const StageBreakdown& s) {
  return s.Seconds(Stage::kSplit) + s.Seconds(Stage::kFrequency) +
         s.Seconds(Stage::kIdMap) + s.Seconds(Stage::kSerialize);
}
double EncodeCompSeconds(const StageBreakdown& s) {
  return s.Seconds(Stage::kSolver) + s.Seconds(Stage::kIsobar);
}
double DecodeDecompSeconds(const StageBreakdown& s) {
  return s.Seconds(Stage::kSolver) + s.Seconds(Stage::kIsobar);
}
double DecodePostSeconds(const StageBreakdown& s) {
  return s.Seconds(Stage::kFrequency) + s.Seconds(Stage::kMerge) +
         s.Seconds(Stage::kChecksum);
}

/// Inverts the model's stage-time formulas: given the bytes the model says a
/// stage processes and the measured seconds, return the implied rate. A zero
/// measurement means "free" — an effectively infinite rate keeps the model
/// valid (Validate rejects non-positive rates).
double ImpliedRate(double work_bytes, double seconds) {
  if (!(seconds > 0.0) || work_bytes <= 0.0) return 1e15;
  return work_bytes / seconds;
}

double RelativeErrorPct(double predicted, double measured) {
  if (!(measured > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * (predicted - measured) / measured;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  bench::PrintHeader(
      "Model validation: telemetry-calibrated model vs measured pipeline",
      "Shah et al., CLUSTER 2012, Section III (Eqs. 3-13) closed-loop check");

  // -- Calibrate on half of num_plasma (held out from validation below). --
  const auto& cal_values = bench::DatasetValues("num_plasma");
  const std::span<const double> cal_half(cal_values.data(),
                                         cal_values.size() / 2);
  const PathMeasurement cal = Measure(cal_half);

  const double cal_bytes = static_cast<double>(cal.stats.input_bytes);
  const double cal_alpha1 = 0.25;  // 2 of 8 bytes are high-order
  const double cal_alpha2 = cal.stats.mean_compressible_fraction;
  // Model stage work per Eqs. 7-10: t_prec1 + t_prec2 = (2 - a1) C / Tprec,
  // t_comp1 + t_comp2 = (a1 + a2 (1 - a1)) C / Tcomp; read path mirrors.
  const double prec_work = (2.0 - cal_alpha1) * cal_bytes;
  const double comp_work =
      (cal_alpha1 + cal_alpha2 * (1.0 - cal_alpha1)) * cal_bytes;

  const double precondition_bps =
      ImpliedRate(prec_work, EncodePrecSeconds(cal.stats.stage));
  const double compress_bps =
      ImpliedRate(comp_work, EncodeCompSeconds(cal.stats.stage));
  const double decompress_bps =
      ImpliedRate(comp_work, DecodeDecompSeconds(cal.dstats.stage));
  const double postcondition_bps =
      ImpliedRate(prec_work, DecodePostSeconds(cal.dstats.stage));

  std::printf("calibration (num_plasma, %zu elements): Tprec %.0f MB/s, "
              "Tcomp %.0f MB/s, Tdecomp %.0f MB/s, Tpost %.0f MB/s\n\n",
              cal_half.size(), precondition_bps / 1e6, compress_bps / 1e6,
              decompress_bps / 1e6, postcondition_bps / 1e6);

  bench::BenchReport report("model_validation");
  report.AddEntry("calibration")
      .Set("dataset", "num_plasma")
      .Set("elements", cal_half.size())
      .Set("byte_entropy_bits", ByteEntropyBits(bench::DatasetBytes("num_plasma")))
      .Set("precondition_bps", precondition_bps)
      .Set("compress_bps", compress_bps)
      .Set("decompress_bps", decompress_bps)
      .Set("postcondition_bps", postcondition_bps);

  std::printf("%-14s | %9s %9s %7s | %9s %9s %7s | %8s %8s\n", "dataset",
              "predW", "measW", "errW%", "predR", "measR", "errR%",
              "precErr%", "compErr%");
  bench::PrintRule();

  const std::array<const char*, 3> datasets = {"flash_velx", "obs_temp",
                                               "gts_chkp_zeon"};
  double max_abs_err = 0.0;
  for (const char* name : datasets) {
    const auto& values = bench::DatasetValues(name);
    const PathMeasurement m = Measure(values);
    const double input = static_cast<double>(m.stats.input_bytes);

    ModelInputs in;
    in.chunk_bytes = input;
    in.rho = 1.0;
    in.network_bps = 1e15;  // isolate the compute terms (see header comment)
    in.disk_write_bps = 1e15;
    in.disk_read_bps = 1e15;
    in = CalibrateFromMeasurements(in, m.stats, precondition_bps,
                                   compress_bps, decompress_bps,
                                   postcondition_bps);
    const ModelBreakdown w = PrimacyWrite(in);
    const ModelBreakdown r = PrimacyRead(in);

    const double meas_write = ThroughputMBps(m.stats.input_bytes,
                                             m.compress_seconds);
    const double meas_read = ThroughputMBps(m.stats.input_bytes,
                                            m.decompress_seconds);
    const double err_write = RelativeErrorPct(w.ThroughputMBps(), meas_write);
    const double err_read = RelativeErrorPct(r.ThroughputMBps(), meas_read);

    // Per-stage comparison: model stage seconds vs telemetry stage seconds.
    const double prec_err = RelativeErrorPct(w.t_prec1 + w.t_prec2,
                                             EncodePrecSeconds(m.stats.stage));
    const double comp_err = RelativeErrorPct(
        w.t_compress1 + w.t_compress2, EncodeCompSeconds(m.stats.stage));
    const double decomp_err = RelativeErrorPct(
        r.t_compress1 + r.t_compress2, DecodeDecompSeconds(m.dstats.stage));
    const double post_err = RelativeErrorPct(r.t_prec1 + r.t_prec2,
                                             DecodePostSeconds(m.dstats.stage));
    for (const double e : {err_write, err_read}) {
      if (std::isfinite(e)) max_abs_err = std::max(max_abs_err, std::abs(e));
    }

    std::printf("%-14s | %9.1f %9.1f %+6.1f%% | %9.1f %9.1f %+6.1f%% | "
                "%+7.1f%% %+7.1f%%\n",
                name, w.ThroughputMBps(), meas_write, err_write,
                r.ThroughputMBps(), meas_read, err_read, prec_err, comp_err);

    report.AddEntry(name)
        .Set("predicted_write_mbps", w.ThroughputMBps())
        .Set("measured_write_mbps", meas_write)
        .Set("write_error_pct", err_write)
        .Set("predicted_read_mbps", r.ThroughputMBps())
        .Set("measured_read_mbps", meas_read)
        .Set("read_error_pct", err_read)
        .Set("precondition_error_pct", prec_err)
        .Set("compress_error_pct", comp_err)
        .Set("decompress_error_pct", decomp_err)
        .Set("postcondition_error_pct", post_err)
        // Shannon entropy of the raw dataset bytes: the data-dependence the
        // model ignores, recorded so error outliers can be read against it.
        .Set("byte_entropy_bits", ByteEntropyBits(bench::DatasetBytes(name)))
        .Set("alpha2", in.alpha2)
        .Set("sigma_ho", in.sigma_ho)
        .Set("sigma_lo", in.sigma_lo);
  }

  bench::PrintRule();
  std::printf(
      "max |end-to-end error| %.1f%%. Errors reflect how well per-stage\n"
      "rates transfer across datasets (the model assumes rates are data-\n"
      "independent; entropy differences bend the solver term).\n",
      max_abs_err);
  return 0;
}
