#include "telemetry/stage_stack.h"

#include <algorithm>
#include <memory>
#include <string>

#include "telemetry/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::telemetry {
namespace {

struct ThreadStageStack {
  // The owner thread is the only writer; the sampler reads concurrently.
  // Every field is a relaxed atomic so concurrent access is defined; the
  // depth store is release so a sampler that observes depth == d also
  // observes the frame stores that preceded it on the owner thread.
  std::array<std::atomic<std::uint8_t>, kStageStackDepth> frames{};
  std::atomic<std::uint32_t> depth{0};
  std::uint32_t tid = 0;
};

struct StackRegistry {
  /// Guards the stack list and tid assignment only — the per-thread stacks
  /// themselves are sampled lock-free via their atomics. Leaf lock: nothing
  /// else is acquired while it is held.
  primacy::Mutex mutex;
  std::vector<std::shared_ptr<ThreadStageStack>> stacks
      PRIMACY_GUARDED_BY(mutex);
  std::uint32_t next_tid PRIMACY_GUARDED_BY(mutex) = 1;
};

StackRegistry& Registry() {
  // Leaked deliberately: worker thread_locals may outlive static dtors.
  static StackRegistry* registry = new StackRegistry();
  return *registry;
}

ThreadStageStack& LocalStack() {
  // The shared_ptr in the registry keeps the stack alive after the thread
  // exits; a dead thread's stack has depth 0 and is skipped by the sampler.
  thread_local std::shared_ptr<ThreadStageStack> stack = [] {
    auto fresh = std::make_shared<ThreadStageStack>();
    StackRegistry& registry = Registry();
    primacy::MutexLock lock(registry.mutex);
    fresh->tid = registry.next_tid++;
    registry.stacks.push_back(fresh);
    return fresh;
  }();
  return *stack;
}

std::atomic<bool>& SamplingFlag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

/// Per-chunk per-stage durations: 1 µs up to ~1 s, one bucket per decade.
constexpr std::array<double, 7> kStageBucketBounds = {
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0};

/// Child-span names, indexed by Stage; string literals because the trace
/// rings store the pointers. The parent span names the pipeline.
constexpr std::array<const char*, kStageCount> kLapSpanNames = {
    "primacy.stage.split",    "primacy.stage.frequency",
    "primacy.stage.id_map",   "primacy.stage.solver",
    "primacy.stage.isobar",   "primacy.stage.checksum",
    "primacy.stage.merge",    "primacy.stage.serialize"};

std::uint64_t Nanos(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

bool StageSamplingEnabled() {
  return SamplingFlag().load(std::memory_order_relaxed);
}

void SetStageSamplingEnabled(bool enabled) {
  SamplingFlag().store(enabled, std::memory_order_relaxed);
}

Histogram& StageSecondsHistogram(Pipeline pipeline, Stage stage) {
  using Table = std::array<std::array<Histogram*, kStageCount>, 2>;
  static const Table* table = [] {
    auto& registry = MetricsRegistry::Global();
    auto* t = new Table();
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const std::string label =
          "stage=\"" + std::string(StageName(static_cast<Stage>(s))) + "\"";
      (*t)[0][s] = &registry.GetHistogram("primacy_encode_stage_seconds",
                                          kStageBucketBounds, label);
      (*t)[1][s] = &registry.GetHistogram("primacy_decode_stage_seconds",
                                          kStageBucketBounds, label);
    }
    return t;
  }();
  return *(*table)[static_cast<std::size_t>(pipeline)]
                  [static_cast<std::size_t>(stage)];
}

StageTimer::StageTimer(Pipeline pipeline, Stage first, const char* span_name,
                       const char* arg_name, std::uint64_t arg_value)
    : span_name_(span_name),
      arg_name_(arg_name),
      arg_value_(arg_value),
      pipeline_(pipeline),
      current_(first),
      tracing_(TracingEnabled()) {
  if (StageSamplingEnabled()) {
    ThreadStageStack& stack = LocalStack();
    const std::uint32_t depth = stack.depth.load(std::memory_order_relaxed);
    if (depth < kStageStackDepth) {
      frame_ = &stack.frames[depth];
      frame_->store(static_cast<std::uint8_t>(first),
                    std::memory_order_relaxed);
    }
    depth_ = &stack.depth;
    depth_->store(depth + 1, std::memory_order_release);
  }
  start_ = last_ = Clock::now();
}

StageTimer::~StageTimer() {
  if (depth_ == nullptr) return;
  const std::uint32_t depth = depth_->load(std::memory_order_relaxed);
  if (depth != 0) depth_->store(depth - 1, std::memory_order_release);
}

void StageTimer::Lap(Stage next) {
  const Clock::time_point now = Clock::now();
  const std::uint64_t ns = Nanos(now - last_);
  last_ = now;
  laps_[current_] += ns;
  if (lap_count_ < kStageCount) {
    lap_stage_[lap_count_] = current_;
    lap_ns_[lap_count_] = ns;
    ++lap_count_;
  }
  current_ = next;
  if (frame_ != nullptr) {
    frame_->store(static_cast<std::uint8_t>(next), std::memory_order_relaxed);
  }
}

StageBreakdown StageTimer::Commit() {
  Lap(current_);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (laps_.ns[s] != 0) {
      StageSecondsHistogram(pipeline_, static_cast<Stage>(s))
          .Observe(static_cast<double>(laps_.ns[s]) * 1e-9);
    }
  }
  if (tracing_) {
    Clock::time_point lap_start = start_;
    for (std::size_t i = 0; i < lap_count_; ++i) {
      if (lap_ns_[i] != 0) {
        internal::RecordTraceEvent(
            kLapSpanNames[static_cast<std::size_t>(lap_stage_[i])], nullptr,
            0, lap_start, lap_ns_[i]);
      }
      lap_start += std::chrono::nanoseconds(lap_ns_[i]);
    }
    internal::RecordTraceEvent(span_name_, arg_name_, arg_value_, start_,
                               Nanos(last_ - start_));
  }
  return laps_;
}

std::vector<StageStackSample> SampleStageStacks() {
  StackRegistry& registry = Registry();
  primacy::MutexLock lock(registry.mutex);
  std::vector<StageStackSample> samples;
  for (const auto& stack : registry.stacks) {
    const std::uint32_t depth = stack->depth.load(std::memory_order_acquire);
    if (depth == 0) continue;
    StageStackSample sample;
    sample.tid = stack->tid;
    sample.depth = std::min<std::size_t>(depth, kStageStackDepth);
    for (std::size_t i = 0; i < sample.depth; ++i) {
      // Clamp: a torn read during a concurrent push can only yield a valid
      // (if momentarily stale) stage, never an out-of-range enum.
      const std::uint8_t raw = std::min<std::uint8_t>(
          stack->frames[i].load(std::memory_order_relaxed),
          static_cast<std::uint8_t>(kStageCount - 1));
      sample.frames[i] = static_cast<Stage>(raw);
    }
    samples.push_back(sample);
  }
  return samples;
}

}  // namespace primacy::telemetry
