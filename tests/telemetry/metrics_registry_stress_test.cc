// TSan-targeted stress over MetricsRegistry's concurrency contract:
// registration (Get*) takes a mutex and may race with other registrations,
// updates go through relaxed atomics, and RenderPrometheus snapshots the
// registry while both are in flight. Run under PRIMACY_SANITIZE=thread this
// catches lock-order and iterator-invalidation bugs the functional metrics
// tests cannot see; every render taken mid-update must still be a
// consistent exposition.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace primacy::telemetry {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kIters = 400;

/// First histogram inconsistency in a RenderPrometheus text, or "" if none:
/// within a series the cumulative buckets never decrease, and _count equals
/// the le="+Inf" bucket.
std::string HistogramInconsistency(const std::string& text) {
  std::map<std::string, double> last_bucket;  // series -> latest bucket
  std::map<std::string, double> inf_bucket;   // series -> le="+Inf" bucket
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    const double value = std::stod(line.substr(space + 1));
    const std::size_t brace = line.find('{');
    const std::string name = line.substr(0, std::min(brace, space));
    std::string labels = brace < space ? line.substr(brace, space - brace) : "";
    if (name.ends_with("_bucket")) {
      // le is rendered last; drop it so the key matches the _count line's.
      const std::size_t le = labels.rfind("le=\"");
      const bool inf = labels.compare(le, 10, "le=\"+Inf\"}") == 0;
      labels = le == 1 ? "" : labels.substr(0, le - 1) + "}";
      const std::string series = name.substr(0, name.size() - 7) + labels;
      const auto last = last_bucket.find(series);
      if (last != last_bucket.end() && value < last->second) {
        return "bucket decreased: " + line;
      }
      last_bucket[series] = value;
      if (inf) inf_bucket[series] = value;
    } else if (name.ends_with("_count")) {
      const auto inf =
          inf_bucket.find(name.substr(0, name.size() - 6) + labels);
      if (inf != inf_bucket.end() && value != inf->second) {
        return "_count differs from le=\"+Inf\": " + line;
      }
    }
  }
  return "";
}

TEST(MetricsRegistryStressTest, ConcurrentRegistrationUpdatesAndRender) {
  auto& registry = MetricsRegistry::Global();
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};

  // Until the workers finish, two observers update one histogram through a
  // cached reference, as instrument sites do (no registry lock), and two
  // renderers check every render taken while it changes.
  Histogram& hot = registry.GetHistogram("stress_hot_seconds", bounds);
  std::atomic<bool> workers_done{false};
  std::atomic<std::uint64_t> hot_observed{0};
  std::atomic<std::size_t> renders{0};
  std::atomic<std::size_t> bad_renders{0};
  std::mutex first_bad_mutex;
  std::string first_bad;
  std::vector<std::thread> background;
  for (int o = 0; o < 2; ++o) {
    background.emplace_back([&] {
      std::uint64_t observed = 0;
      do {
        hot.Observe(static_cast<double>(observed++ % 128));
      } while (!workers_done.load());
      hot_observed.fetch_add(observed);
    });
  }
  for (int r = 0; r < 2; ++r) {
    background.emplace_back([&] {
      do {
        const std::string problem =
            HistogramInconsistency(registry.RenderPrometheus());
        renders.fetch_add(1);
        if (!problem.empty() && bad_renders.fetch_add(1) == 0) {
          const std::lock_guard<std::mutex> lock(first_bad_mutex);
          first_bad = problem;
        }
      } while (!workers_done.load());
    });
  }

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &bounds, t] {
      const std::string label = "worker=\"" + std::to_string(t) + "\"";
      for (std::size_t i = 0; i < kIters; ++i) {
        // Same series from every thread: registration races on first touch,
        // relaxed increments thereafter.
        registry.GetCounter("stress_shared_total").Increment();
        // Distinct series per thread under one family: concurrent inserts
        // into the registry map.
        registry.GetCounter("stress_labeled_total", label).Increment();
        registry.GetGauge("stress_depth", label).Add(t % 2 == 0 ? 1 : -1);
        registry
            .GetHistogram("stress_latency_seconds", bounds, label)
            .Observe(static_cast<double>(i % 128));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  workers_done.store(true);
  for (auto& thread : background) thread.join();

  EXPECT_EQ(bad_renders.load(), 0u)
      << "of " << renders.load() << " renders; first: " << first_bad;
  EXPECT_EQ(hot.Count(), hot_observed.load());
  EXPECT_GE(registry.GetCounter("stress_shared_total").Value(),
            kThreads * kIters);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string label = "worker=\"" + std::to_string(t) + "\"";
    EXPECT_GE(registry.GetCounter("stress_labeled_total", label).Value(),
              kIters);
    EXPECT_EQ(
        registry.GetHistogram("stress_latency_seconds", bounds, label)
            .Count(),
        kIters);
  }
}

TEST(MetricsRegistryStressTest, ConcurrentResolveReturnsOneInstance) {
  auto& registry = MetricsRegistry::Global();
  std::vector<Counter*> resolved(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &resolved, t] {
      resolved[t] =
          &registry.GetCounter("stress_resolve_total", "shard=\"x\"");
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(resolved[t], resolved[0])
        << "racing registrations must converge on one metric object";
  }
}

}  // namespace
}  // namespace primacy::telemetry
