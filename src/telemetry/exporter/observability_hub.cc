#include "telemetry/exporter/observability_hub.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/stage_stack.h"
#include "telemetry/trace.h"
#include "transport/shutdown_signal.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::telemetry {
namespace {

std::string EscapeJson(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteFileAtomicEnough(const std::string& path, const std::string& body) {
  // Plain overwrite: segments are rewritten in full on every flush, so the
  // worst a concurrent reader sees is a truncated JSON file for one flush
  // period — acceptable for a diagnostics artifact, not worth fsync+rename.
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), file);
  const bool ok = std::fclose(file) == 0 && wrote == body.size();
  return ok;
}

}  // namespace

struct ObservabilityHub::Impl {
  explicit Impl(ObservabilityHubOptions opts)
      : options(std::move(opts)),
        clock(options.clock != nullptr ? options.clock
                                       : &service::SystemServiceClock::Instance()) {}

  const ObservabilityHubOptions options;
  service::ServiceClock* const clock;

  // One lock for all hub state: the exporter thread, Start/Stop, and the
  // HTTP handlers all contend on it briefly; the hot scrape path (/metrics)
  // never takes it. Lock order: mu before the metrics-registry and
  // trace-registry internal locks (FlushTraceLocked / SamplePassLocked call
  // into them under mu); never the reverse.
  primacy::Mutex mu;
  // Paired with mu. Registered with the clock; only the exporter thread
  // waits on it.
  primacy::CondVar cv;
  // Paired with mu. Progress and stop announcements to WaitForTicks; never
  // used with clock->WaitUntil.
  primacy::CondVar state_cv;

  bool started PRIMACY_GUARDED_BY(mu) = false;
  bool stop PRIMACY_GUARDED_BY(mu) = false;
  bool tracing_was_enabled PRIMACY_GUARDED_BY(mu) = false;
  bool sampling_was_enabled PRIMACY_GUARDED_BY(mu) = false;

  std::function<bool()> ready_check PRIMACY_GUARDED_BY(mu);
  std::vector<std::pair<std::string, StatusSource>> status_sources
      PRIMACY_GUARDED_BY(mu);

  ObservabilityHubStats stats PRIMACY_GUARDED_BY(mu);

  // Open trace segment: everything flushed into it so far (the file is
  // rewritten whole on each flush so it is always complete JSON).
  std::vector<TraceEvent> segment_events PRIMACY_GUARDED_BY(mu);
  std::size_t segment_index PRIMACY_GUARDED_BY(mu) = 0;
  bool segment_open PRIMACY_GUARDED_BY(mu) = false;
  // On-disk segment files, oldest first.
  std::deque<std::string> segment_paths PRIMACY_GUARDED_BY(mu);

  // "split;solver" -> samples
  std::map<std::string, std::uint64_t> collapsed PRIMACY_GUARDED_BY(mu);
  std::array<Counter*, kStageCount> profile_counters PRIMACY_GUARDED_BY(mu) =
      {};

  std::uint64_t next_flush_ns PRIMACY_GUARDED_BY(mu) = service::kNoDeadlineNs;
  std::uint64_t next_sample_ns PRIMACY_GUARDED_BY(mu) = service::kNoDeadlineNs;

  std::thread thread;
  HttpServer http;

  bool FlushConfigured() const {
    return !options.trace_dir.empty() && options.trace_flush_interval_ns != 0;
  }

  std::string SegmentPath(std::size_t index) const {
    return options.trace_dir + "/" + options.trace_basename + "." +
           std::to_string(index) + ".json";
  }

  void Run() PRIMACY_EXCLUDES(mu);
  void FlushTraceLocked() PRIMACY_REQUIRES(mu);
  void SamplePassLocked() PRIMACY_REQUIRES(mu);
  std::string RenderStatusz() PRIMACY_EXCLUDES(mu);
  std::string RenderCollapsedLocked() const PRIMACY_REQUIRES(mu);
};

void ObservabilityHub::Impl::Run() {
  primacy::MutexLock lock(mu);
  while (!stop) {
    const std::uint64_t now = clock->NowNs();
    bool worked = false;
    if (FlushConfigured() && now >= next_flush_ns) {
      FlushTraceLocked();
      next_flush_ns = now + options.trace_flush_interval_ns;
      worked = true;
    }
    if (options.profile_interval_ns != 0 && now >= next_sample_ns) {
      SamplePassLocked();
      next_sample_ns = now + options.profile_interval_ns;
      worked = true;
    }
    if (worked) {
      ++stats.ticks;
      state_cv.NotifyAll();
    }
    std::uint64_t deadline = service::kNoDeadlineNs;
    if (FlushConfigured()) deadline = std::min(deadline, next_flush_ns);
    if (options.profile_interval_ns != 0) {
      deadline = std::min(deadline, next_sample_ns);
    }
    if (stop) break;
    clock->WaitUntil(mu, cv, deadline);
  }
}

void ObservabilityHub::Impl::FlushTraceLocked() {
  std::vector<TraceEvent> fresh = DrainTraceEvents();
  ++stats.trace_flushes;
  if (fresh.empty()) return;  // nothing new: leave the segment file alone
  stats.trace_events_written += fresh.size();
  segment_events.insert(segment_events.end(), fresh.begin(), fresh.end());

  const std::string json = RenderChromeTraceEvents(segment_events);
  const std::string path = SegmentPath(segment_index);
  if (!segment_open) {
    segment_open = true;
    ++stats.trace_segments_opened;
    segment_paths.push_back(path);
    while (options.trace_max_segments != 0 &&
           segment_paths.size() > options.trace_max_segments) {
      std::remove(segment_paths.front().c_str());
      segment_paths.pop_front();
    }
  }
  WriteFileAtomicEnough(path, json);

  if (json.size() >= options.trace_segment_bytes) {
    segment_events.clear();
    ++segment_index;
    segment_open = false;
  }
}

void ObservabilityHub::Impl::SamplePassLocked() {
  const std::vector<StageStackSample> samples = SampleStageStacks();
  ++stats.profile_passes;
  for (const StageStackSample& sample : samples) {
    if (sample.depth == 0) continue;
    ++stats.profile_samples;
    Counter* counter = profile_counters[static_cast<std::size_t>(sample.Top())];
    if (counter != nullptr) counter->Increment();
    std::string key;
    for (std::size_t i = 0; i < sample.depth; ++i) {
      if (i != 0) key += ';';
      key += StageName(sample.frames[i]);
    }
    ++collapsed[key];
  }
}

std::string ObservabilityHub::Impl::RenderCollapsedLocked() const {
  std::string out;
  for (const auto& [stack, count] : collapsed) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string ObservabilityHub::Impl::RenderStatusz() {
  ObservabilityHubStats snapshot;
  std::vector<std::string> segments;
  std::vector<std::pair<std::string, StatusSource>> sources;
  {
    primacy::MutexLock lock(mu);
    snapshot = stats;
    segments.assign(segment_paths.begin(), segment_paths.end());
    sources = status_sources;
  }
  std::string out = "{\n  \"hub\": {";
  out += "\"ticks\": " + std::to_string(snapshot.ticks);
  out += ", \"trace_flushes\": " + std::to_string(snapshot.trace_flushes);
  out += ", \"trace_events_written\": " +
         std::to_string(snapshot.trace_events_written);
  out += ", \"trace_segments_opened\": " +
         std::to_string(snapshot.trace_segments_opened);
  out += ", \"trace_dropped_spans\": " + std::to_string(TraceDroppedSpans());
  out += ", \"profile_passes\": " + std::to_string(snapshot.profile_passes);
  out += ", \"profile_samples\": " + std::to_string(snapshot.profile_samples);
  out += "},\n  \"trace_segments\": [";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += EscapeJson(segments[i]);
    out += '"';
  }
  out += "],\n  \"sources\": {";
  // Sources run outside the hub lock: a source may itself take service
  // locks, and nothing here depends on hub state.
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += EscapeJson(sources[i].first);
    out += "\": ";
    const std::string fragment = sources[i].second ? sources[i].second() : "";
    out += fragment.empty() ? "null" : fragment;
  }
  out += "}\n}\n";
  return out;
}

ObservabilityHub::ObservabilityHub(ObservabilityHubOptions options)
    : impl_(new Impl(std::move(options))) {}

ObservabilityHub::~ObservabilityHub() { Stop(); }

void ObservabilityHub::Start() {
  Impl& state = *impl_;
  {
    primacy::MutexLock lock(state.mu);
    if (state.started) return;
    state.started = true;
    state.stop = false;
    if (state.FlushConfigured()) {
      ::mkdir(state.options.trace_dir.c_str(), 0755);  // EEXIST is fine
      state.tracing_was_enabled = TracingEnabled();
      SetTracingEnabled(true);
    }
    if (state.options.profile_interval_ns != 0) {
      state.sampling_was_enabled = StageSamplingEnabled();
      SetStageSamplingEnabled(true);
      for (std::size_t i = 0; i < kStageCount; ++i) {
        const std::string labels =
            "stage=\"" + std::string(StageName(static_cast<Stage>(i))) + "\"";
        state.profile_counters[i] = &MetricsRegistry::Global().GetCounter(
            "primacy_profile_samples_total", labels);
      }
    }
    const std::uint64_t now = state.clock->NowNs();
    state.next_flush_ns = now + state.options.trace_flush_interval_ns;
    state.next_sample_ns = now + state.options.profile_interval_ns;
  }
  // Register before the thread exists so its very first WaitUntil is
  // already wakeable by a VirtualClock::Advance.
  state.clock->RegisterWaiter(&state.mu, &state.cv);
  // Dedicated thread, not a pool task: it lives as long as the hub and
  // mostly blocks in WaitUntil, which would pin a shared pool worker (see
  // the pool-containment allowlist note in tools/primacy_lint).
  state.thread = std::thread([&state] { state.Run(); });
  if (state.options.http_port >= 0) {
    state.http.Start(state.options.http_port,
                     [this](const std::string& path) {
                       return HandleRequest(path);
                     });
  }
}

void ObservabilityHub::Stop() {
  Impl& state = *impl_;
  {
    primacy::MutexLock lock(state.mu);
    if (!state.started) return;
    state.stop = true;
    state.cv.NotifyAll();
    state.state_cv.NotifyAll();
  }
  if (state.thread.joinable()) state.thread.join();
  state.http.Stop();
  state.clock->UnregisterWaiter(&state.cv);
  {
    primacy::MutexLock lock(state.mu);
    // Stop collecting before the final flush so the drain below is complete.
    if (state.options.profile_interval_ns != 0) {
      SetStageSamplingEnabled(state.sampling_was_enabled);
    }
    if (state.FlushConfigured()) {
      SetTracingEnabled(state.tracing_was_enabled);
      state.FlushTraceLocked();
    }
    state.started = false;
    state.state_cv.NotifyAll();
  }
}

int ObservabilityHub::HttpPort() const { return impl_->http.Port(); }

void ObservabilityHub::AddStatusSource(std::string name, StatusSource source) {
  primacy::MutexLock lock(impl_->mu);
  impl_->status_sources.emplace_back(std::move(name), std::move(source));
}

void ObservabilityHub::SetReadyCheck(std::function<bool()> check) {
  primacy::MutexLock lock(impl_->mu);
  impl_->ready_check = std::move(check);
}

HttpResponse ObservabilityHub::HandleRequest(const std::string& path) {
  Impl& state = *impl_;
  HttpResponse response;
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::Global().RenderPrometheus();
  } else if (path == "/healthz") {
    response.body = "ok\n";
  } else if (path == "/readyz") {
    std::function<bool()> check;
    {
      primacy::MutexLock lock(state.mu);
      check = state.ready_check;
    }
    if (!check || check()) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready\n";
    }
  } else if (path == "/statusz") {
    response.content_type = "application/json";
    response.body = state.RenderStatusz();
  } else if (path == "/profilez") {
    response.body = RenderCollapsedStacks();
  } else if (path == "/quitquitquit" && state.options.enable_quit_endpoint) {
    transport::ShutdownSignal::Instance().Trigger();
    response.body = "shutting down\n";
  } else {
    response.status = 404;
    response.body = "not found\n";
  }
  return response;
}

ObservabilityHubStats ObservabilityHub::GetStats() const {
  primacy::MutexLock lock(impl_->mu);
  return impl_->stats;
}

void ObservabilityHub::WaitForTicks(std::uint64_t ticks) {
  Impl& state = *impl_;
  primacy::MutexLock lock(state.mu);
  while (!(state.stop || !state.started || state.stats.ticks >= ticks)) {
    state.state_cv.Wait(state.mu);
  }
}

std::string ObservabilityHub::RenderCollapsedStacks() const {
  primacy::MutexLock lock(impl_->mu);
  return impl_->RenderCollapsedLocked();
}

ObservabilityHub* MaybeStartHubFromEnv() {
  const char* const port = std::getenv("PRIMACY_METRICS_PORT");
  const char* const dir = std::getenv("PRIMACY_TRACE_DIR");
  const char* const hz = std::getenv("PRIMACY_PROFILE_HZ");
  if (port == nullptr && dir == nullptr && hz == nullptr) return nullptr;
  // One process-wide hub, leaked deliberately: benches and tools call this
  // from several entry points and none owns process shutdown.
  static ObservabilityHub* const hub = [port, dir, hz] {
    ObservabilityHubOptions options;
    options.enable_quit_endpoint = true;
    if (port != nullptr) options.http_port = std::atoi(port);
    if (dir != nullptr) options.trace_dir = dir;
    if (hz != nullptr) {
      const double rate = std::atof(hz);
      if (rate > 0.0) {
        options.profile_interval_ns =
            static_cast<std::uint64_t>(1e9 / rate);
      }
    }
    auto* started = new ObservabilityHub(std::move(options));
    started->Start();
    if (started->HttpPort() >= 0) {
      std::fprintf(stderr,
                   "[primacy] observability hub serving on 127.0.0.1:%d\n",
                   started->HttpPort());
    }
    return started;
  }();
  return hub;
}

}  // namespace primacy::telemetry
