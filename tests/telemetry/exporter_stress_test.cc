// Exporter under contention, for the sanitizer matrix (TSan in
// particular): producer threads hammer the trace rings and stage stacks
// while scraper threads call every endpoint and the main thread advances a
// VirtualClock through flush and sample deadlines. No wall-clock sleeps;
// everything is bounded iteration counts, so the test is fast in every
// sanitizer mode.
#include "telemetry/exporter/observability_hub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "telemetry/trace.h"

namespace primacy::telemetry {
namespace {

TEST(ExporterStressTest, ConcurrentProducersScrapersAndClockAdvances) {
  MetricsRegistry::Global().ResetAllForTest();
  ClearTraceBuffers();

  service::VirtualClock clock;
  ObservabilityHubOptions options;
  options.clock = &clock;
  options.trace_dir = ::testing::TempDir() + "exporter_stress";
  options.trace_segment_bytes = 4096;
  options.trace_max_segments = 3;
  options.trace_flush_interval_ns = 1'000'000;
  options.profile_interval_ns = 500'000;
  ObservabilityHub hub(options);
  hub.AddStatusSource("stress", [] { return std::string("{\"on\": true}"); });
  hub.Start();

  constexpr int kProducers = 4;
  constexpr int kScrapers = 2;
  constexpr int kProducerIters = 2000;
  constexpr int kScraperIters = 150;
  constexpr int kClockSteps = 200;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kScrapers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([p] {
      for (int i = 0; i < kProducerIters; ++i) {
        const std::size_t stage = static_cast<std::size_t>(i) % kStageCount;
        StageTimer timer(Pipeline::kEncode, static_cast<Stage>(stage),
                         "stress.producer", "p", static_cast<std::uint64_t>(p));
        timer.Lap(static_cast<Stage>((stage + 1) % kStageCount));
        timer.Commit();
      }
    });
  }
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([&hub, &failed] {
      const char* paths[] = {"/metrics", "/statusz", "/profilez", "/healthz",
                             "/readyz"};
      for (int i = 0; i < kScraperIters; ++i) {
        const HttpResponse response = hub.HandleRequest(paths[i % 5]);
        if (response.status != 200) failed.store(true);
      }
    });
  }
  for (int i = 0; i < kClockSteps; ++i) {
    clock.Advance(500'000);
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());

  // One deterministic final pass so the post-conditions don't depend on
  // how the racing advances interleaved with the exporter thread.
  const std::uint64_t ticks_so_far = hub.GetStats().ticks;
  clock.Advance(2'000'000);
  hub.WaitForTicks(ticks_so_far + 1);

  const ObservabilityHubStats stats = hub.GetStats();
  EXPECT_GE(stats.ticks, 1u);
  EXPECT_GE(stats.trace_flushes, 1u);
  hub.Stop();
  // The rings are sized for this volume: the stress run must not have
  // dropped spans (the same invariant the nominal suite pins).
  EXPECT_EQ(TraceDroppedSpans(), 0u);
}

}  // namespace
}  // namespace primacy::telemetry
