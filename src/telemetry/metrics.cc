#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::telemetry {
namespace {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// %g with enough digits for counters; integral values render without a
/// decimal point, which keeps the output friendly to strict parsers.
std::string FormatNumber(double value) {
  char buffer[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value < 1e15 && value > -1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  }
  return buffer;
}

void AppendSeries(std::string& out, const std::string& name,
                  const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += FormatNumber(value);
  out += '\n';
}

/// Label body with one extra pair appended (histogram `le`).
std::string WithLabel(const std::string& labels, const std::string& extra) {
  return labels.empty() ? extra : labels + "," + extra;
}

}  // namespace

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(new std::atomic<std::uint64_t>[bounds.size() + 1]) {
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    if (!(bounds_[i] < bounds_[i + 1])) {
      bounds_.clear();  // degenerate spec: fall back to a single +Inf bucket
      break;
    }
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.cumulative.resize(bounds_.size() + 1);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    snapshot.cumulative[i] = running;
  }
  // The +Inf cumulative IS the count by construction; read the atomics in
  // that order so count never exceeds the buckets' total.
  snapshot.count = snapshot.cumulative.back();
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

struct MetricsRegistry::Impl {
  struct Entry {
    std::string name;
    std::string labels;
    MetricKind kind = MetricKind::kCounter;
    // Stable addresses: entries are never erased, values never move.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Registry lock. Leaf in every lock order: Get*/Render never call out
  /// while holding it, so it can safely be taken under the hub's mutex.
  mutable primacy::Mutex mutex;
  // Keyed by name + '\xff' + labels; \xff cannot appear in a metric name.
  std::map<std::string, Entry> entries PRIMACY_GUARDED_BY(mutex);

  Entry& Resolve(std::string_view name, std::string_view labels,
                 MetricKind kind) PRIMACY_REQUIRES(mutex) {
    std::string key;
    key.reserve(name.size() + labels.size() + 1);
    key.append(name);
    key.push_back('\xff');
    key.append(labels);
    const auto it = entries.find(key);
    if (it != entries.end()) return it->second;
    Entry& entry = entries[key];
    entry.name.assign(name);
    entry.labels.assign(labels);
    entry.kind = kind;
    return entry;
  }
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // Leaked deliberately: instrument sites cache metric pointers and may
  // outlive any static-destruction order we could arrange.
  static Impl* impl = new Impl();
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view labels) {
  Impl& state = impl();
  primacy::MutexLock lock(state.mutex);
  Impl::Entry& entry = state.Resolve(name, labels, MetricKind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view labels) {
  Impl& state = impl();
  primacy::MutexLock lock(state.mutex);
  Impl::Entry& entry = state.Resolve(name, labels, MetricKind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::span<const double> bounds,
                                         std::string_view labels) {
  Impl& state = impl();
  primacy::MutexLock lock(state.mutex);
  Impl::Entry& entry = state.Resolve(name, labels, MetricKind::kHistogram);
  if (!entry.histogram) entry.histogram = std::make_unique<Histogram>(bounds);
  return *entry.histogram;
}

std::string MetricsRegistry::RenderPrometheus() const {
  Impl& state = impl();
  primacy::MutexLock lock(state.mutex);
  std::string out;
  // The map iterates in key order, i.e. grouped by name then labels; emit
  // one # TYPE line per family.
  std::string last_family;
  for (const auto& [key, entry] : state.entries) {
    if (entry.name != last_family) {
      out += "# TYPE " + entry.name + " " + KindName(entry.kind) + "\n";
      last_family = entry.name;
    }
    if (entry.counter) {
      AppendSeries(out, entry.name, entry.labels,
                   static_cast<double>(entry.counter->Value()));
    } else if (entry.gauge) {
      AppendSeries(out, entry.name, entry.labels,
                   static_cast<double>(entry.gauge->Value()));
    } else if (entry.histogram) {
      // One snapshot per series, so the buckets never decrease and _count
      // is the +Inf bucket even while other threads Observe.
      const HistogramSnapshot h = entry.histogram->Snapshot();
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        AppendSeries(out, entry.name + "_bucket",
                     WithLabel(entry.labels,
                               "le=\"" + FormatNumber(h.bounds[i]) + "\""),
                     static_cast<double>(h.cumulative[i]));
      }
      AppendSeries(out, entry.name + "_bucket",
                   WithLabel(entry.labels, "le=\"+Inf\""),
                   static_cast<double>(h.count));
      AppendSeries(out, entry.name + "_sum", entry.labels, h.sum);
      AppendSeries(out, entry.name + "_count", entry.labels,
                   static_cast<double>(h.count));
    }
  }
  return out;
}

void MetricsRegistry::ResetAllForTest() {
  Impl& state = impl();
  primacy::MutexLock lock(state.mutex);
  for (auto& [key, entry] : state.entries) {
    if (entry.counter) entry.counter->Reset();
    if (entry.gauge) entry.gauge->Reset();
    if (entry.histogram) entry.histogram->Reset();
  }
}

}  // namespace primacy::telemetry
