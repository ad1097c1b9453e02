// ObservabilityHub: the continuous observability pipeline. Every periodic
// behavior (trace flush, segment rotation, profiler sampling) is driven
// through a VirtualClock, so this suite runs with zero wall-clock sleeps —
// a test Advances time and waits on the hub's tick counter. Endpoint
// dispatch is exercised socket-free through HandleRequest; the live-socket
// tests prove a scrape works end to end, that the endpoint keeps accepting
// after EMFILE, and that Stop() does not wait on a silent peer.
#include "telemetry/exporter/observability_hub.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
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
#include "transport/descriptor_exhaustion.h"
#include "transport/shutdown_signal.h"

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
  // The endpoint trips the process's one stop latch, the one SIGINT and
  // SIGTERM set; each test runs in its own process, so it starts unset.
  const transport::ShutdownSignal& shutdown =
      transport::ShutdownSignal::Instance();
  ObservabilityHub hub;  // default: quit endpoint disabled
  hub.Start();
  EXPECT_EQ(hub.HandleRequest("/quitquitquit").status, 404);
  EXPECT_FALSE(shutdown.Requested());
  hub.Stop();

  ObservabilityHubOptions options;
  options.enable_quit_endpoint = true;
  ObservabilityHub quittable(options);
  quittable.Start();
  EXPECT_EQ(quittable.HandleRequest("/quitquitquit").status, 200);
  EXPECT_TRUE(shutdown.Requested());
  quittable.Stop();
}

/// Blocking loopback TCP connection to `port`; -1 on failure.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, (const sockaddr*)&addr, sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Minimal HTTP/1.0 exchange over a connected `fd`, which it closes.
std::string HttpExchange(int fd, const std::string& path) {
  if (fd < 0) return {};
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

std::string HttpGet(int port, const std::string& path) {
  return HttpExchange(ConnectLoopback(port), path);
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

TEST_F(ExporterTest, LiveEndpointAcceptSurvivesDescriptorExhaustion) {
  ObservabilityHubOptions options;
  options.http_port = 0;
  ObservabilityHub hub(options);
  hub.Start();
  ASSERT_GT(hub.HttpPort(), 0);
  Counter& exhausted = MetricsRegistry::Global().GetCounter(
      "primacy_transport_errors_total", "kind=\"accept_exhausted\"");
  const std::uint64_t exhausted_before = exhausted.Value();

  // With the table full, the scraper's socket takes the one freed slot and
  // the endpoint's accept() then fails with EMFILE.
  test_support::DescriptorExhaustion exhaustion(64);
  exhaustion.FreeOneSlot();
  const int starved = ConnectLoopback(hub.HttpPort());
  ASSERT_GE(starved, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (exhausted.Value() == exhausted_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GT(exhausted.Value(), exhausted_before);
  exhaustion.Release();

  // Descriptors are back: the queued scrape is served, and so is a new one.
  EXPECT_NE(HttpExchange(starved, "/healthz").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(HttpGet(hub.HttpPort(), "/healthz").find("ok"),
            std::string::npos);
  hub.Stop();
}

TEST_F(ExporterTest, HttpStopDoesNotWaitOutASilentPeer) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0, [](const std::string&) {
    return HttpResponse{};
  }));
  // Descriptors are allocated lowest first, and nothing else in this
  // process opens one meanwhile: the peer's socket takes the lowest free
  // descriptor and the server's accept() the next one, so that one opening
  // shows the server has taken the connection.
  const int peer_slot = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int accepted_slot = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(peer_slot, 0);
  ASSERT_GE(accepted_slot, 0);
  ::close(peer_slot);
  ::close(accepted_slot);
  const int silent = ConnectLoopback(server.Port());
  ASSERT_EQ(silent, peer_slot);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (::fcntl(accepted_slot, F_GETFD) < 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(::fcntl(accepted_slot, F_GETFD), 0) << "peer never accepted";
  // Let the accept thread reach the peer's request read. The peer sends
  // nothing, so a read that ignored Stop() would wait out its whole 5 s
  // deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  ::close(silent);
}

}  // namespace
}  // namespace primacy::telemetry
