// ObservabilityHub: the continuous observability pipeline. Every periodic
// behavior (trace flush, segment rotation, profiler sampling) is driven
// through a VirtualClock, so this suite runs with zero wall-clock sleeps —
// a test Advances time and waits on the hub's tick counter. Endpoint
// dispatch is exercised socket-free through HandleRequest; one test opens
// the real HTTP socket to prove a live scrape works end to end.
#include "telemetry/exporter/observability_hub.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "service/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "telemetry/trace.h"

namespace primacy::telemetry {
namespace {

class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAllForTest();
    ClearTraceBuffers();
  }

  static std::string TraceDir(const std::string& name) {
    return ::testing::TempDir() + "exporter_test_" + name;
  }

  static std::string ReadFileOrEmpty(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static bool FileExists(const std::string& path) {
    return std::ifstream(path).good();
  }
};

TEST_F(ExporterTest, TicksAreDrivenByTheVirtualClockOnly) {
  service::VirtualClock clock;
  ObservabilityHubOptions options;
  options.clock = &clock;
  options.trace_dir = TraceDir("ticks");
  options.trace_flush_interval_ns = 1'000'000;
  ObservabilityHub hub(options);
  hub.Start();
  EXPECT_EQ(hub.GetStats().ticks, 0u);  // no advance, no ticks

  // Advance-then-wait per period: the next deadline is recomputed from the
  // clock at pass time, so two un-waited Advances would coalesce into one
  // pass. This lock-step is the determinism contract the suite relies on.
  clock.Advance(1'000'000);
  hub.WaitForTicks(1);
  clock.Advance(1'000'000);
  hub.WaitForTicks(2);
  clock.Advance(1'000'000);
  hub.WaitForTicks(3);
  const ObservabilityHubStats stats = hub.GetStats();
  EXPECT_EQ(stats.ticks, 3u);  // exactly one pass per crossed deadline
  EXPECT_EQ(stats.trace_flushes, 3u);
  hub.Stop();
}

TEST_F(ExporterTest, TraceFlushWritesRotatingSegments) {
  service::VirtualClock clock;
  ObservabilityHubOptions options;
  options.clock = &clock;
  options.trace_dir = TraceDir("rotate");
  options.trace_basename = "seg";
  options.trace_segment_bytes = 512;  // force rotation every flush
  options.trace_max_segments = 2;
  options.trace_flush_interval_ns = 1'000'000;
  ObservabilityHub hub(options);
  hub.Start();

  // Three flush rounds, each with enough spans to exceed the segment cap.
  for (std::uint64_t round = 1; round <= 3; ++round) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      TraceSpan span("exporter_test.rotate", "round", round);
    }
    clock.Advance(1'000'000);
    hub.WaitForTicks(round);
  }

  const ObservabilityHubStats stats = hub.GetStats();
  EXPECT_EQ(stats.trace_flushes, 3u);
  EXPECT_EQ(stats.trace_events_written, 48u);
  EXPECT_EQ(stats.trace_segments_opened, 3u);
  // Segment 0 was pruned (trace_max_segments = 2); 1 and 2 remain, each a
  // complete chrome://tracing JSON document.
  const std::string dir = TraceDir("rotate");
  EXPECT_FALSE(FileExists(dir + "/seg.0.json"));
  for (int i = 1; i <= 2; ++i) {
    const std::string body =
        ReadFileOrEmpty(dir + "/seg." + std::to_string(i) + ".json");
    ASSERT_FALSE(body.empty()) << "segment " << i;
    EXPECT_EQ(body.front(), '{');
    EXPECT_NE(body.find("exporter_test.rotate"), std::string::npos);
    EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  }
  // Satellite invariant: the nominal pipeline never drops spans.
  EXPECT_EQ(TraceDroppedSpans(), 0u);
  hub.Stop();
}

TEST_F(ExporterTest, StopFlushesBufferedSpansWithoutAnAdvance) {
  service::VirtualClock clock;
  ObservabilityHubOptions options;
  options.clock = &clock;
  options.trace_dir = TraceDir("final_flush");
  options.trace_flush_interval_ns = 1'000'000'000;  // never due in-test
  ObservabilityHub hub(options);
  hub.Start();
  { TraceSpan span("exporter_test.final"); }
  hub.Stop();  // the shutdown flush must capture the buffered span
  const std::string body =
      ReadFileOrEmpty(TraceDir("final_flush") + "/primacy_trace.0.json");
  EXPECT_NE(body.find("exporter_test.final"), std::string::npos);
}

TEST_F(ExporterTest, ProfilerAttributesSamplesToLiveStageStacks) {
  service::VirtualClock clock;
  ObservabilityHubOptions options;
  options.clock = &clock;
  options.profile_interval_ns = 1'000'000;
  ObservabilityHub hub(options);
  hub.Start();

  // A worker parks inside solver (under a split timer) while the clock
  // advances through five sampling deadlines.
  std::mutex mu;
  std::condition_variable cv;
  bool scoped = false;
  bool done = false;
  std::thread worker([&] {
    StageTimer outer(Pipeline::kEncode, Stage::kSplit, "exporter_test.outer");
    StageTimer inner(Pipeline::kEncode, Stage::kSolver, "exporter_test.inner");
    std::unique_lock<std::mutex> lock(mu);
    scoped = true;
    cv.notify_all();
    cv.wait(lock, [&] { return done; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return scoped; });
  }
  for (std::uint64_t i = 1; i <= 5; ++i) {
    clock.Advance(1'000'000);
    hub.WaitForTicks(i);
  }

  const ObservabilityHubStats stats = hub.GetStats();
  EXPECT_EQ(stats.profile_passes, 5u);
  EXPECT_GE(stats.profile_samples, 5u);  // worker sampled on every pass
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("primacy_profile_samples_total",
                            "stage=\"solver\"")
                .Value(),
            5u);
  // The collapsed dump attributes the worker's samples to the full stack.
  EXPECT_NE(hub.RenderCollapsedStacks().find("split;solver 5"),
            std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  worker.join();
  hub.Stop();
}

TEST_F(ExporterTest, HandleRequestDispatchesEveryEndpoint) {
  MetricsRegistry::Global().GetCounter("primacy_exporter_probe_total")
      .Increment();
  ObservabilityHub hub;
  hub.Start();

  const HttpResponse metrics = hub.HandleRequest("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("primacy_exporter_probe_total 1"),
            std::string::npos);

  EXPECT_EQ(hub.HandleRequest("/healthz").body, "ok\n");
  EXPECT_EQ(hub.HandleRequest("/readyz").status, 200);
  EXPECT_EQ(hub.HandleRequest("/profilez").status, 200);
  EXPECT_EQ(hub.HandleRequest("/nope").status, 404);

  const HttpResponse statusz = hub.HandleRequest("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.content_type, "application/json");
  EXPECT_NE(statusz.body.find("\"hub\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"trace_dropped_spans\": 0"),
            std::string::npos);
  hub.Stop();
}

TEST_F(ExporterTest, ReadyCheckGatesReadyz) {
  ObservabilityHub hub;
  bool ready = false;
  hub.SetReadyCheck([&ready] { return ready; });
  hub.Start();
  EXPECT_EQ(hub.HandleRequest("/readyz").status, 503);
  ready = true;
  EXPECT_EQ(hub.HandleRequest("/readyz").status, 200);
  hub.Stop();
}

TEST_F(ExporterTest, StatusSourcesRenderUnderTheirNames) {
  ObservabilityHub hub;
  hub.AddStatusSource("service", [] { return std::string("{\"depth\": 3}"); });
  hub.AddStatusSource("empty", [] { return std::string(); });
  hub.Start();
  const std::string body = hub.HandleRequest("/statusz").body;
  EXPECT_NE(body.find("\"service\": {\"depth\": 3}"), std::string::npos);
  EXPECT_NE(body.find("\"empty\": null"), std::string::npos);
  hub.Stop();
}

TEST_F(ExporterTest, QuitEndpointRequiresOptIn) {
  ObservabilityHub hub;  // default: quit endpoint disabled
  hub.Start();
  EXPECT_EQ(hub.HandleRequest("/quitquitquit").status, 404);
  EXPECT_FALSE(hub.ShutdownRequested());
  hub.Stop();

  ObservabilityHubOptions options;
  options.enable_quit_endpoint = true;
  ObservabilityHub quittable(options);
  quittable.Start();
  EXPECT_EQ(quittable.HandleRequest("/quitquitquit").status, 200);
  EXPECT_TRUE(quittable.ShutdownRequested());
  quittable.WaitForShutdownRequest();  // must not block once latched
  quittable.Stop();
}

/// Minimal HTTP/1.0 client for the one live-socket test.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, (const sockaddr*)&addr, sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ExporterTest, LiveHttpScrapeServesMetrics) {
  MetricsRegistry::Global().GetCounter("primacy_exporter_scrape_total")
      .Increment();
  ObservabilityHubOptions options;
  options.http_port = 0;  // kernel-assigned ephemeral port
  ObservabilityHub hub(options);
  hub.Start();
  ASSERT_GT(hub.HttpPort(), 0);

  const std::string metrics = HttpGet(hub.HttpPort(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE primacy_exporter_scrape_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("primacy_exporter_scrape_total 1"),
            std::string::npos);
  EXPECT_NE(HttpGet(hub.HttpPort(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(HttpGet(hub.HttpPort(), "/unknown").find("HTTP/1.0 404"),
            std::string::npos);
  hub.Stop();
  EXPECT_EQ(hub.HttpPort(), -1);
}

}  // namespace
}  // namespace primacy::telemetry
