// Measurement plumbing for primacy_bench: sample sets, the metric list a
// pass reports, process memory readings, registry snapshots taken through
// the public Prometheus rendering, and the in-memory span recorder behind
// the traced pass. Nothing here calls into the codec; workloads.cc does.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace primacy::bench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64 finalizer: a seed-derivation function, not a generator.
std::uint64_t SplitMix64(std::uint64_t x);

/// A set of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// One reported metric, in the order a table lists them.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Sleeps until the NowNs() clock reads `deadline_ns` (returns at once if it
/// has passed).
void SleepUntilNs(std::uint64_t deadline_ns);

/// Resident-memory growth over a measured window. Reset() remembers the
/// resident size at the start of a pass, once its inputs exist. Start() then
/// samples the window on its own thread: at each 1 s slice boundary it reads
/// the kernel's peak-RSS mark and restarts it. MedianGrowthMiB() is the
/// median over slices of (slice peak - baseline). Unlike the peak of the
/// whole pass, a median of slice peaks does not hinge on one allocator spike.
class RssSampler {
 public:
  RssSampler() = default;
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler();

  void Reset();
  /// Samples [start_ns, start_ns + window_s); start_ns may lie ahead.
  void Start(std::uint64_t start_ns, double window_s);
  /// Waits for the last slice; call before reading the result.
  void Join();
  double MedianGrowthMiB() const { return growth_mib_.Median(); }
  std::size_t slices() const { return growth_mib_.size(); }

 private:
  double baseline_kib_ = 0.0;
  Samples growth_mib_;  // written by thread_ only, read after Join()
  std::thread thread_;
};

/// Point-in-time copy of every registry series, keyed by the rendered
/// series name (`name{labels}`), parsed from the public Prometheus text.
/// Counters and histogram _sum/_count series subtract exactly, so a delta
/// over a measured window isolates that window's work.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Capture();
  /// Sum over every series of `family` whose labels contain `label_filter`
  /// (empty = all series of the family).
  double Sum(const std::string& family,
             const std::string& label_filter = {}) const;
  /// Series-wise `this - earlier`.
  RegistrySnapshot DeltaSince(const RegistrySnapshot& earlier) const;

 private:
  std::map<std::string, double> series_;
};

/// In-memory spans for the traced pass. Each load thread owns one Lane
/// (no locking on the record path); the layer of a span is its name up to
/// the first '.', e.g. "store.add" belongs to `store`.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // static string
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = 0;  // 1-based index in the lane; 0 = root
    std::uint64_t request = 0;
  };

  class Lane {
   public:
    explicit Lane(std::string name) : name_(std::move(name)) {}
    /// Opens a span under the innermost open one; returns its handle.
    std::uint32_t Begin(const char* name, std::uint64_t request);
    void End(std::uint32_t handle);
    const std::string& name() const { return name_; }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    std::string name_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
  };

  /// A new lane; the reference stays valid for the tracer's lifetime.
  Lane& NewLane(const std::string& name);

  /// Self time per layer (span duration minus its direct children), summed
  /// over the spans under a root named `root_name`, in ns.
  std::map<std::string, std::uint64_t> SelfTimeNs(const char* root_name) const;
  std::size_t SpanCount() const;

  /// chrome://tracing JSON of every lane; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable primacy::Mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_ PRIMACY_GUARDED_BY(mu_);
};

/// RAII span on an optional lane (no-op when the pass is untraced).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane* lane, const char* name, std::uint64_t request = 0)
      : lane_(lane), handle_(lane ? lane->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Lane* lane_;
  std::uint32_t handle_;
};

}  // namespace primacy::bench
