// The four primacy_bench workloads. Each is prepared once from the seed
// (untimed input generation), then run as one pass: repeated set-up, an
// untimed warm-up, and a measured window. The untraced pass reports the
// end-to-end metrics; a traced pass over the same inputs reports the
// per-layer ones. Every reply is verified outside the timed intervals.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.h"

namespace primacy::bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced pass, in this order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by every traced pass, in this order; a layer the workload does
/// not reach reads 0 with n=0.
const std::vector<MetricDef>& PerLayerMetrics();

struct PassConfig {
  double warmup_s = 3.0;
  double window_s = 15.0;
  std::size_t setup_repeats = 11;
  /// Set on the traced pass only.
  Tracer* tracer = nullptr;
};

/// Metric name -> (value, samples) before it is laid out in table order.
using MetricValues = std::map<std::string, std::pair<double, std::size_t>>;

struct PassResult {
  MetricValues values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (and expected outputs) from the seed. Untimed.
  virtual void Prepare(std::uint64_t seed) = 0;
  virtual PassResult Run(const PassConfig& config) = 0;
};

const std::vector<std::string>& WorkloadNames();
/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Lays `values` out in `defs` order (missing entries read 0, n=0).
std::vector<Metric> Tabulate(const std::vector<MetricDef>& defs,
                             const MetricValues& values);

}  // namespace primacy::bench
