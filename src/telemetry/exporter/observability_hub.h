// Continuous observability pipeline: one background exporter thread that
// (a) serves /metrics, /healthz, /readyz, /statusz (+ /profilez and an
// opt-in /quitquitquit) over the embedded HTTP server, (b) periodically
// drains the per-thread trace rings into size-capped rotating
// chrome://tracing segment files, and (c) runs the sampling profiler over
// the live stage stacks (stage_stack.h), exporting a
// primacy_profile_samples_total{stage=...} counter family and a
// flamegraph-ready collapsed-stack dump.
//
// The exporter thread blocks through the service layer's ServiceClock seam
// (service/clock.h): under the SystemServiceClock it is an ordinary timed
// wait, and under a test's VirtualClock every flush/sample tick fires the
// instant the test Advances time — the whole exporter suite runs with zero
// wall-clock sleeps. The HTTP accept thread is the only wall-time blocking
// part, and it blocks in poll(), not on the clock.
//
// Nothing runs until Start(): a constructed hub owns no thread and no
// socket, and the HTTP endpoint opens only when http_port >= 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/clock.h"
#include "telemetry/exporter/http_server.h"

namespace primacy::telemetry {

/// Hub configuration.
struct ObservabilityHubOptions {
  /// HTTP endpoint port on 127.0.0.1: -1 disables the endpoint entirely,
  /// 0 binds a kernel-assigned ephemeral port (read back with HttpPort()).
  int http_port = -1;
  /// When true, GET /quitquitquit latches ShutdownRequested() — for CI
  /// drivers that stop a serving process over HTTP. Off by default so a
  /// stray scrape can never shut a production process down.
  bool enable_quit_endpoint = false;
  /// Directory for rotating trace segment files; empty = no trace flushing.
  /// Created (one level) if absent. Tracing is force-enabled while the hub
  /// runs when this is set.
  std::string trace_dir;
  /// Segment files are <trace_dir>/<trace_basename>.<N>.json.
  std::string trace_basename = "primacy_trace";
  /// Rotate the open segment once its rendered JSON reaches this size.
  std::size_t trace_segment_bytes = std::size_t{4} << 20;
  /// Total segments kept on disk (open one included); oldest are deleted.
  std::size_t trace_max_segments = 8;
  /// Trace drain period.
  std::uint64_t trace_flush_interval_ns = 1'000'000'000;
  /// Stage-stack sampling period; 0 disables the profiler. Sampling is
  /// force-enabled while the hub runs when nonzero.
  std::uint64_t profile_interval_ns = 0;
  /// Time source for the exporter thread; null = the process-wide
  /// SystemServiceClock. Not owned; must outlive the hub.
  service::ServiceClock* clock = nullptr;
};

/// Exporter-side progress counters (hub mutex; exact). Plain data.
struct ObservabilityHubStats {
  /// Periodic passes that did work (a flush and a sample due on the same
  /// deadline count once).
  std::uint64_t ticks = 0;
  std::uint64_t trace_flushes = 0;
  std::uint64_t trace_events_written = 0;
  std::uint64_t trace_segments_opened = 0;
  std::uint64_t profile_passes = 0;
  std::uint64_t profile_samples = 0;
};

class ObservabilityHub {
 public:
  explicit ObservabilityHub(ObservabilityHubOptions options = {});
  ~ObservabilityHub();

  ObservabilityHub(const ObservabilityHub&) = delete;
  ObservabilityHub& operator=(const ObservabilityHub&) = delete;

  /// Starts the exporter thread (and the HTTP server when http_port >= 0).
  /// Idempotent while running.
  void Start();

  /// Final trace flush, joins the exporter thread, stops the HTTP server,
  /// restores the tracing/sampling enable flags. Idempotent.
  void Stop();

  /// Bound HTTP port while running (useful with http_port = 0); -1 when
  /// the endpoint is disabled or the hub is stopped.
  int HttpPort() const;

  /// Produces a raw JSON fragment rendered under "sources" in /statusz.
  using StatusSource = std::function<std::string()>;

  /// Registers a named /statusz section (e.g. the CompressionService's
  /// StatusJson). Sources are called without the hub lock held.
  void AddStatusSource(std::string name, StatusSource source);

  /// /readyz gate; default is ready-once-started.
  void SetReadyCheck(std::function<bool()> check);

  /// Endpoint dispatch. This is the handler the HTTP thread calls, exposed
  /// so tests exercise endpoints without a socket.
  HttpResponse HandleRequest(const std::string& path);

  ObservabilityHubStats GetStats() const;

  /// Blocks until the exporter thread has completed at least `ticks`
  /// periodic passes (or the hub stops). With a VirtualClock: Advance, then
  /// wait here — no sleeps on either side.
  void WaitForTicks(std::uint64_t ticks);

  /// Flamegraph collapsed-stack dump: one "stage;stage;stage count" line
  /// per distinct sampled stack (also served at /profilez).
  std::string RenderCollapsedStacks() const;

  /// True once /quitquitquit was hit (enable_quit_endpoint only).
  bool ShutdownRequested() const;

  /// Blocks until ShutdownRequested() (serving tools' main loop) or Stop().
  void WaitForShutdownRequest();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Starts one process-wide hub if the environment asks for one —
/// PRIMACY_METRICS_PORT (HTTP port), PRIMACY_TRACE_DIR (rotating segments),
/// PRIMACY_PROFILE_HZ (sampling rate) — and returns it; null when none of
/// the variables are set. Called from the bench reporters and serving
/// tools so any run can be made scrapeable without code changes.
ObservabilityHub* MaybeStartHubFromEnv();

}  // namespace primacy::telemetry
