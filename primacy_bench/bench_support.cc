#include "bench_support.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>
#include <thread>

#include "telemetry/metrics.h"

namespace primacy::bench {
namespace {

/// A `/proc/self/status` field in KiB (VmRSS, VmHWM); 0 when unreadable.
double ProcStatusKiB(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

std::string_view LayerOf(const char* span_name) {
  const std::string_view name(span_name);
  return name.substr(0, name.find('.'));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

void SleepUntilNs(std::uint64_t deadline_ns) {
  const std::uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

RssSampler::~RssSampler() { Join(); }

void RssSampler::Reset() {
  // Free heap pages go back to the kernel first, so the baseline is live
  // memory and pages an earlier pass left in the allocator cannot hide this
  // pass's growth.
  malloc_trim(0);
  baseline_kib_ = ProcStatusKiB("VmRSS");
}

void RssSampler::Start(std::uint64_t start_ns, double window_s) {
  Join();
  growth_mib_ = Samples();
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(window_s)));
  const double slice_ns = window_s * 1e9 / static_cast<double>(slices);
  thread_ = std::thread([this, start_ns, slices, slice_ns] {
    // "5" restarts the peak-RSS mark (proc(5), clear_refs); if the kernel
    // refused, every slice would read the peak of the pass so far.
    const auto restart_peak = [] {
      std::ofstream("/proc/self/clear_refs") << "5";
    };
    SleepUntilNs(start_ns);
    restart_peak();
    for (std::size_t i = 1; i <= slices; ++i) {
      SleepUntilNs(start_ns +
                   static_cast<std::uint64_t>(slice_ns * static_cast<double>(i)));
      growth_mib_.Add(
          std::max(0.0, ProcStatusKiB("VmHWM") - baseline_kib_) / 1024.0);
      restart_peak();
    }
  });
}

void RssSampler::Join() {
  if (thread_.joinable()) thread_.join();
}

RegistrySnapshot RegistrySnapshot::Capture() {
  RegistrySnapshot snapshot;
  std::istringstream text(
      telemetry::MetricsRegistry::Global().RenderPrometheus());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snapshot;
}

double RegistrySnapshot::Sum(const std::string& family,
                             const std::string& label_filter) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    const bool exact = key.size() == family.size() || key[family.size()] == '{';
    if (!exact) continue;
    if (!label_filter.empty() && key.find(label_filter) == std::string::npos) {
      continue;
    }
    total += it->second;
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::DeltaSince(
    const RegistrySnapshot& earlier) const {
  RegistrySnapshot delta = *this;
  for (const auto& [key, value] : earlier.series_) delta.series_[key] -= value;
  return delta;
}

std::uint32_t Tracer::Lane::Begin(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? 0 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::Lane::End(std::uint32_t handle) {
  spans_[handle - 1].end_ns = NowNs();
  open_.erase(std::find(open_.begin(), open_.end(), handle));
}

Tracer::Lane& Tracer::NewLane(const std::string& name) {
  primacy::MutexLock lock(mu_);
  lanes_.push_back(std::make_unique<Lane>(name));
  return *lanes_.back();
}

std::map<std::string, std::uint64_t> Tracer::SelfTimeNs(
    const char* root_name) const {
  primacy::MutexLock lock(mu_);
  std::map<std::string, std::uint64_t> self;
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent != 0) {
        child_ns[span.parent - 1] += span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::size_t root = i;
      while (spans[root].parent != 0) root = spans[root].parent - 1;
      if (std::string_view(spans[root].name) != root_name) continue;
      const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      self[std::string(LayerOf(spans[i].name))] +=
          dur - std::min(dur, child_ns[i]);
    }
  }
  return self;
}

std::size_t Tracer::SpanCount() const {
  primacy::MutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& lane : lanes_) count += lane->spans().size();
  return count;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  primacy::MutexLock lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& lane : lanes_) {
    for (const Span& span : lane->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    const Lane& lane = *lanes_[tid];
    out << (first ? "" : ",\n")
        << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << tid << ", \"args\": {\"name\": \"" << lane.name() << "\"}}";
    first = false;
    const std::vector<Span>& spans = lane.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      char buffer[384];
      std::snprintf(buffer, sizeof(buffer),
                    ",\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"id\": %zu, \"parent\": %u, \"request\": "
                    "%llu}}",
                    span.name, static_cast<int>(LayerOf(span.name).size()),
                    LayerOf(span.name).data(), tid,
                    static_cast<double>(span.start_ns - origin) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                    i + 1, span.parent,
                    static_cast<unsigned long long>(span.request));
      out << buffer;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace primacy::bench
