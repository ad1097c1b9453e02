// Lightweight trace spans with per-thread ring buffers and a
// chrome://tracing (Trace Event Format) JSON exporter.
//
// Usage:
//   telemetry::TraceSpan span("primacy.encode_chunk", "bytes", chunk.size());
//   ... work ...   // the event is recorded when `span` goes out of scope
//
// Recording is gated at run time: tracing defaults off; enable it with
// SetTracingEnabled(true) or the PRIMACY_TRACE=1 environment variable. A
// disabled span costs one relaxed atomic load.
//
// Each thread records into its own fixed-size ring buffer (no locks, no
// allocation after the first span on a thread; the newest kTraceRingCapacity
// events per thread are kept). Span names and arg names must be string
// literals (or otherwise outlive the process) — the buffers store pointers.
//
// Exporting (RenderChromeTrace / WriteChromeTrace) walks every thread's
// buffer; call it at a quiescent point (no spans in flight) for a fully
// consistent snapshot. If PRIMACY_TRACE_OUT=<path> is set in the
// environment, tracing is enabled automatically and the buffers are flushed
// to <path> at process exit — so any tool or bench can be traced without
// code changes:  PRIMACY_TRACE_OUT=trace.json ./fig4_end_to_end --quick
//
// Continuous export (the ObservabilityHub's periodic flush) uses
// DrainTraceEvents instead: it consumes events through a per-buffer cursor
// so each span is exported once, and it is safe to call while writer
// threads are recording — ring slots are individually atomic, and a slot
// the writer overwrote mid-read is detected and discarded. A span whose
// slot is overwritten before any drain consumed it is counted in the
// primacy_trace_dropped_spans_total counter (TraceDroppedSpans()) instead
// of vanishing silently.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace primacy::telemetry {

/// One completed span. Timestamps are nanoseconds on the steady clock,
/// rebased so time zero is roughly process start.
struct TraceEvent {
  const char* name = nullptr;      // static string
  const char* arg_name = nullptr;  // nullptr = no argument
  std::uint64_t arg_value = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Events retained per thread (newest win once the ring wraps).
inline constexpr std::size_t kTraceRingCapacity = 8192;

bool TracingEnabled();
void SetTracingEnabled(bool enabled);

class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, nullptr, 0) {}
  TraceSpan(const char* name, const char* arg_name, std::uint64_t arg_value);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::uint64_t arg_value_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

/// All buffered events across threads, oldest-first per thread. Exporter
/// and test hook; snapshot at quiescence for exact results.
std::vector<TraceEvent> SnapshotTraceEvents();

/// Consumes every event recorded since the previous drain (per-buffer
/// cursors advance), oldest-first per thread. Safe to call concurrently
/// with recording threads; serialized against other exporters by the
/// registry mutex.
std::vector<TraceEvent> DrainTraceEvents();

/// Spans overwritten by ring wrap before any drain consumed them (the same
/// total as primacy_trace_dropped_spans_total).
std::uint64_t TraceDroppedSpans();

/// chrome://tracing JSON ({"traceEvents": [...]}); load in chrome's
/// about:tracing or https://ui.perfetto.dev.
std::string RenderChromeTrace();

/// The same JSON for a caller-supplied event list (the hub's rotating
/// segment writer renders drained batches with this).
std::string RenderChromeTraceEvents(const std::vector<TraceEvent>& events);

/// Writes RenderChromeTrace() to `path`; returns false on I/O failure.
bool WriteChromeTrace(const std::string& path);

/// Drops all buffered events and resets drain cursors and drop counts
/// (test isolation; call at quiescence).
void ClearTraceBuffers();

namespace internal {

/// TraceSpan's ring write, shared with StageTimer: appends one completed
/// span to this thread's ring.
void RecordTraceEvent(const char* name, const char* arg_name,
                      std::uint64_t arg_value,
                      std::chrono::steady_clock::time_point start,
                      std::uint64_t dur_ns);

}  // namespace internal

}  // namespace primacy::telemetry
