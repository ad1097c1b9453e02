#include "telemetry/metrics.h"

#include <array>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace primacy::telemetry {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetAllForTest(); }
};

TEST_F(MetricsTest, CounterStartsAtZeroAndIncrements) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kIncrements);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);  // gauges may go negative
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreInclusive) {
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram histogram{std::span<const double>(bounds)};
  // Prometheus semantics: bucket i counts observations <= bounds[i].
  histogram.Observe(1.0);    // lands in le=1
  histogram.Observe(1.5);    // le=10
  histogram.Observe(10.0);   // le=10 (boundary inclusive)
  histogram.Observe(100.5);  // +Inf only
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 113.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.cumulative[0], 1u);  // <= 1
  EXPECT_EQ(snapshot.cumulative[1], 3u);  // <= 10
  EXPECT_EQ(snapshot.cumulative[2], 3u);  // <= 100
  EXPECT_EQ(snapshot.cumulative[3], 4u);  // +Inf
}

TEST_F(MetricsTest, ConcurrentHistogramObservationsCountExactly) {
  const std::array<double, 2> bounds = {10.0, 1000.0};
  Histogram histogram{std::span<const double>(bounds)};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kObservations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (std::uint64_t i = 0; i < kObservations; ++i) {
        histogram.Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.Count(), kThreads * kObservations);
  EXPECT_EQ(histogram.Snapshot().cumulative[2], kThreads * kObservations);
}

TEST_F(MetricsTest, RegistryReturnsStableSeriesIdentity) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("metrics_test_series", "stage=\"x\"");
  Counter& b = registry.GetCounter("metrics_test_series", "stage=\"x\"");
  Counter& c = registry.GetCounter("metrics_test_series", "stage=\"y\"");
  EXPECT_EQ(&a, &b);   // same name + labels: one series
  EXPECT_NE(&a, &c);   // different labels: distinct series
  a.Increment(5);
  EXPECT_EQ(b.Value(), 5u);
  EXPECT_EQ(c.Value(), 0u);
}

TEST_F(MetricsTest, RenderPrometheusEmitsAllSeries) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("metrics_test_render_total", "stage=\"split\"")
      .Increment(3);
  registry.GetGauge("metrics_test_render_gauge").Set(-7);
  const std::array<double, 2> bounds = {1.0, 2.0};
  Histogram& histogram = registry.GetHistogram(
      "metrics_test_render_hist", std::span<const double>(bounds));
  histogram.Observe(1.5);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE metrics_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_total{stage=\"split\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_gauge -7"), std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_hist_count 1"), std::string::npos);
}

TEST_F(MetricsTest, ResetAllForTestZeroesButKeepsRegistrations) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("metrics_test_reset_total");
  counter.Increment(9);
  registry.ResetAllForTest();
  EXPECT_EQ(counter.Value(), 0u);
  // The cached reference is still the live series.
  counter.Increment();
  EXPECT_EQ(registry.GetCounter("metrics_test_reset_total").Value(), 1u);
}

}  // namespace
}  // namespace primacy::telemetry
