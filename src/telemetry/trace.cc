#include "telemetry/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "telemetry/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::telemetry {
namespace {

// Exported timestamps are rebased to roughly process start.
const std::chrono::steady_clock::time_point kTraceEpoch =
    std::chrono::steady_clock::now();

std::uint64_t Nanos(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Ring slot with individually atomic fields: the owner thread overwrites
/// slots while an exporter may be copying them, so every access must be a
/// defined (relaxed) atomic op. A concurrently overwritten slot can yield a
/// copy mixing two events' fields — each field is still an individually
/// valid value (names are static strings), and the readers below discard
/// any slot whose index the writer invalidated while they copied.
struct AtomicTraceEvent {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<std::uint64_t> arg_value{0};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
};

struct ThreadTraceBuffer {
  std::array<AtomicTraceEvent, kTraceRingCapacity> events;
  // Total events ever pushed; slot = pushed % capacity. The owner thread is
  // the only writer; exporters read after an acquire load, which orders
  // them after every slot write they observe.
  std::atomic<std::uint64_t> pushed{0};
  // Events consumed (by DrainTraceEvents) or invalidated (by the writer
  // wrapping over an unconsumed slot). Raised-only; the writer raises it
  // *before* reusing a slot so exporters can detect mid-copy overwrites.
  std::atomic<std::uint64_t> drained{0};
  // Events the writer invalidated before any drain consumed them.
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid = 0;
};

struct BufferRegistry {
  /// Guards the buffer list and tid assignment only — never the ring
  /// contents, which stay lock-free (the hot path must not take a lock).
  /// Leaf lock: nothing else is acquired while it is held.
  primacy::Mutex mutex;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers
      PRIMACY_GUARDED_BY(mutex);
  std::uint32_t next_tid PRIMACY_GUARDED_BY(mutex) = 1;
};

BufferRegistry& Registry() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

ThreadTraceBuffer& LocalBuffer() {
  // The shared_ptr in the registry keeps the buffer alive after the thread
  // exits, so the exporter can still read short-lived workers' events.
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadTraceBuffer>();
    BufferRegistry& registry = Registry();
    primacy::MutexLock lock(registry.mutex);
    fresh->tid = registry.next_tid++;
    registry.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* trace = std::getenv("PRIMACY_TRACE");
    const char* out = std::getenv("PRIMACY_TRACE_OUT");
    return (trace != nullptr && trace[0] != '\0' && trace[0] != '0') ||
           (out != nullptr && out[0] != '\0');
  }();
  return enabled;
}

Counter& DroppedCounter() {
  static Counter* counter = &MetricsRegistry::Global().GetCounter(
      "primacy_trace_dropped_spans_total");
  return *counter;
}

/// Registers the PRIMACY_TRACE_OUT exit hook the first time a span fires.
void EnsureExitFlushRegistered() {
  static const bool registered = [] {
    if (const char* path = std::getenv("PRIMACY_TRACE_OUT");
        path != nullptr && path[0] != '\0') {
      static std::string out_path = path;
      std::atexit([] { WriteChromeTrace(out_path); });
    }
    return true;
  }();
  (void)registered;
}

/// Copies this buffer's retained events (indices >= `begin`) into `out`,
/// discarding any entry the writer invalidated while we copied. Returns the
/// `pushed` value the copy covered. Holding the registry mutex keeps the
/// buffer list stable while we walk a buffer it owns; `registry` is named
/// only by that lock annotation, which compiles away outside Clang.
std::uint64_t CopyBufferEvents([[maybe_unused]] BufferRegistry& registry,
                               ThreadTraceBuffer& buffer, std::uint64_t begin,
                               std::vector<TraceEvent>& out)
    PRIMACY_REQUIRES(registry.mutex) {
  const std::uint64_t pushed = buffer.pushed.load(std::memory_order_acquire);
  const std::uint64_t oldest =
      pushed > kTraceRingCapacity ? pushed - kTraceRingCapacity : 0;
  const std::size_t first = out.size();
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = std::max(begin, oldest); i < pushed; ++i) {
    const AtomicTraceEvent& slot = buffer.events[i % kTraceRingCapacity];
    TraceEvent event;
    event.name = slot.name.load(std::memory_order_relaxed);
    event.arg_name = slot.arg_name.load(std::memory_order_relaxed);
    event.arg_value = slot.arg_value.load(std::memory_order_relaxed);
    event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.tid = buffer.tid;
    if (event.name == nullptr) continue;
    out.push_back(event);
    indices.push_back(i);
  }
  // Any slot the writer wrapped onto while we copied had its index pushed
  // below `drained` first (and below pushed-now - capacity); drop those
  // possibly-torn copies.
  const std::uint64_t pushed_now =
      buffer.pushed.load(std::memory_order_acquire);
  const std::uint64_t safe_floor =
      std::max(buffer.drained.load(std::memory_order_acquire),
               pushed_now > kTraceRingCapacity
                   ? pushed_now - kTraceRingCapacity
                   : 0);
  std::size_t kept = first;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] < safe_floor) continue;
    out[kept++] = out[first + i];
  }
  out.resize(kept);
  return pushed;
}

/// Raises `counter` to at least `floor` (CAS loop; concurrent raisers may
/// interleave). Returns how much this call raised it by.
std::uint64_t RaiseTo(std::atomic<std::uint64_t>& counter,
                      std::uint64_t floor) {
  std::uint64_t current = counter.load(std::memory_order_relaxed);
  while (current < floor) {
    if (counter.compare_exchange_weak(current, floor,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
      return floor - current;
    }
  }
  return 0;
}

}  // namespace

bool TracingEnabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* name, const char* arg_name,
                     std::uint64_t arg_value)
    : name_(name),
      arg_name_(arg_name),
      arg_value_(arg_value),
      active_(TracingEnabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  internal::RecordTraceEvent(name_, arg_name_, arg_value_, start_,
                             Nanos(std::chrono::steady_clock::now() - start_));
}

namespace internal {

void RecordTraceEvent(const char* name, const char* arg_name,
                      std::uint64_t arg_value,
                      std::chrono::steady_clock::time_point start,
                      std::uint64_t dur_ns) {
  EnsureExitFlushRegistered();
  ThreadTraceBuffer& buffer = LocalBuffer();
  const std::uint64_t n = buffer.pushed.load(std::memory_order_relaxed);
  if (n >= kTraceRingCapacity) {
    // Wrapping onto slot n % capacity destroys event n - capacity. Raise
    // the drain cursor past it *before* touching the slot, so a concurrent
    // exporter discards its possibly-torn copy; whatever the cursor jumped
    // over was never consumed — count it as dropped.
    const std::uint64_t lost =
        RaiseTo(buffer.drained, n + 1 - kTraceRingCapacity);
    if (lost != 0) {
      buffer.dropped.fetch_add(lost, std::memory_order_relaxed);
      DroppedCounter().Increment(lost);
    }
  }
  AtomicTraceEvent& slot = buffer.events[n % kTraceRingCapacity];
  slot.name.store(name, std::memory_order_relaxed);
  slot.arg_name.store(arg_name, std::memory_order_relaxed);
  slot.arg_value.store(arg_value, std::memory_order_relaxed);
  slot.start_ns.store(Nanos(start - kTraceEpoch), std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  buffer.pushed.store(n + 1, std::memory_order_release);
}

}  // namespace internal

std::vector<TraceEvent> SnapshotTraceEvents() {
  BufferRegistry& registry = Registry();
  primacy::MutexLock lock(registry.mutex);
  std::vector<TraceEvent> events;
  for (const auto& buffer : registry.buffers) {
    CopyBufferEvents(registry, *buffer, 0, events);
  }
  return events;
}

std::vector<TraceEvent> DrainTraceEvents() {
  BufferRegistry& registry = Registry();
  primacy::MutexLock lock(registry.mutex);
  std::vector<TraceEvent> events;
  for (const auto& buffer : registry.buffers) {
    const std::uint64_t begin =
        buffer->drained.load(std::memory_order_relaxed);
    const std::uint64_t covered = CopyBufferEvents(registry, *buffer, begin, events);
    // Consume: later drains start past everything this one covered. The
    // writer may race this upward too (overflow), which is fine — RaiseTo
    // only ever moves the cursor forward.
    RaiseTo(buffer->drained, covered);
  }
  return events;
}

std::uint64_t TraceDroppedSpans() {
  BufferRegistry& registry = Registry();
  primacy::MutexLock lock(registry.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : registry.buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string RenderChromeTraceEvents(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\": [\n";
  char line[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const double ts_us = static_cast<double>(e.start_ns) / 1e3;
    const double dur_us = static_cast<double>(e.dur_ns) / 1e3;
    if (e.arg_name != nullptr) {
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"%s\": %llu}}",
                    e.name, e.tid, ts_us, dur_us, e.arg_name,
                    static_cast<unsigned long long>(e.arg_value));
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                    e.name, e.tid, ts_us, dur_us);
    }
    out += line;
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::string RenderChromeTrace() {
  return RenderChromeTraceEvents(SnapshotTraceEvents());
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = RenderChromeTrace();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                  json.size();
  return std::fclose(file) == 0 && ok;
}

void ClearTraceBuffers() {
  BufferRegistry& registry = Registry();
  primacy::MutexLock lock(registry.mutex);
  for (const auto& buffer : registry.buffers) {
    buffer->pushed.store(0, std::memory_order_release);
    buffer->drained.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

}  // namespace primacy::telemetry
