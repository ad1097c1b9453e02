// Process-wide metrics registry: monotonic counters, gauges, and
// fixed-bucket histograms, exported as Prometheus text.
//
// Hot-path discipline: instrument sites resolve their metric once (a mutex
// is taken only at registration) and then update through relaxed atomics —
// no locks, no allocation. Metric objects are never destroyed or moved, so
// cached pointers stay valid for the life of the process.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace primacy::telemetry {

/// Point-in-time copy of a Histogram's state. Plain data, so benches and
/// the exporter can compute per-window percentiles without touching live
/// atomics twice.
struct HistogramSnapshot {
  std::vector<double> bounds;  // ascending finite upper bounds
  /// Cumulative counts; bounds.size() + 1 entries, the last is the +Inf
  /// bucket and equals `count`.
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Bucket-interpolated quantile (same estimate as PromQL's
  /// histogram_quantile): q in [0, 1]; observations beyond the last finite
  /// bound clamp to it; 0 when the snapshot is empty.
  double Quantile(double q) const {
    if (count == 0 || cumulative.empty()) return 0.0;
    const double rank =
        std::min(std::max(q, 0.0), 1.0) * static_cast<double>(count);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const std::uint64_t cum = cumulative[i];
      if (static_cast<double>(cum) >= rank) {
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        const double in_bucket = static_cast<double>(cum - below);
        if (in_bucket <= 0.0) return bounds[i];
        const double fraction = (rank - static_cast<double>(below)) / in_bucket;
        return lower + (bounds[i] - lower) * fraction;
      }
      below = cum;
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }

  /// This snapshot minus an `earlier` one of the same histogram: the
  /// distribution of observations made between the two (per-mode and
  /// per-scrape-window percentiles).
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const {
    HistogramSnapshot delta = *this;
    if (earlier.cumulative.size() == cumulative.size()) {
      for (std::size_t i = 0; i < cumulative.size(); ++i) {
        delta.cumulative[i] -= earlier.cumulative[i];
      }
      delta.count -= earlier.count;
      delta.sum -= earlier.sum;
    }
    return delta;
  }
};

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (queue depth, worker count, ...).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram (cumulative, Prometheus-style: bucket i counts
/// observations <= bounds[i], plus an implicit +Inf bucket).
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void Observe(double value);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  /// Copy for rendering and percentile math. Its count is the bucket total,
  /// so cumulative counts never decrease and count is the +Inf bucket; reads
  /// are relaxed, so a snapshot taken mid-Observe may miss the in-flight
  /// observation.
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::vector<double> bounds_;                       // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns every metric; resolve with Get*(), render with RenderPrometheus().
/// `labels` is a pre-rendered Prometheus label body without braces, e.g.
/// `stage="split"` — metrics with the same name but different labels are
/// distinct series under one family.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, std::string_view labels = {});
  Gauge& GetGauge(std::string_view name, std::string_view labels = {});
  Histogram& GetHistogram(std::string_view name,
                          std::span<const double> bounds,
                          std::string_view labels = {});

  /// Prometheus text exposition format, series sorted by (name, labels).
  std::string RenderPrometheus() const;

  /// Zeroes every registered metric (registrations — and therefore cached
  /// pointers — survive). Test isolation only.
  void ResetAllForTest();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace primacy::telemetry
