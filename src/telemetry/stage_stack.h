// StageTimer, the one stage-boundary primitive, and the per-thread live
// stage stacks it keeps for the sampling profiler.
//
// One timer instruments one chunk. Each Lap() reads the clock once,
// charges the stage that just ended and retargets the thread's live stage
// frame. Commit() ends the last stage, then publishes each non-zero stage to
// primacy_{encode,decode}_stage_seconds{stage} and, with tracing on, records
// the chunk span plus one child span per lap from the same timestamps — so
// stats, /metrics, trace and profiler agree, and no registry or ring write
// falls inside a timed stage.
//
// Timers nest, one stack frame each; the exporter's sampling pass
// (SampleStageStacks) attributes each sample to the innermost frame. With
// sampling disabled (the default) the stack costs one relaxed atomic load
// per timer; enabled, push/pop/retarget are relaxed atomic stores into
// thread-local slots. A sample taken mid push/pop reads a torn-but-valid
// stack (frames are clamped to the stage enum), never undefined behavior.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/stage.h"

namespace primacy::telemetry {

/// Frames retained per thread; deeper nesting keeps counting depth but the
/// overflow frames are not recorded (samples clamp to this many frames).
inline constexpr std::size_t kStageStackDepth = 8;

/// One thread's stack at sampling time. Plain data.
struct StageStackSample {
  std::uint32_t tid = 0;
  /// Live frames (clamped to kStageStackDepth), bottom-first.
  std::size_t depth = 0;
  std::array<Stage, kStageStackDepth> frames{};

  /// Innermost frame; only meaningful when depth > 0.
  Stage Top() const { return frames[depth == 0 ? 0 : depth - 1]; }
};

bool StageSamplingEnabled();
void SetStageSamplingEnabled(bool enabled);

/// The histogram StageTimer publishes `stage` of `pipeline` to (per-chunk
/// seconds, decade buckets 1 µs..1 s), resolved once.
Histogram& StageSecondsHistogram(Pipeline pipeline, Stage stage);

class StageTimer {
 public:
  /// Starts timing `first`. `span_name`/`arg_name` (string literals) name
  /// the chunk's trace span and its argument.
  StageTimer(Pipeline pipeline, Stage first, const char* span_name,
             const char* arg_name = nullptr, std::uint64_t arg_value = 0);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Charges the time since the last boundary to the current stage and
  /// makes `next` current.
  void Lap(Stage next);

  /// Last boundary, then publish; returns the chunk's breakdown. Call once,
  /// on success only: an uncommitted timer publishes nothing.
  StageBreakdown Commit();

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point start_;
  Clock::time_point last_;
  StageBreakdown laps_;
  // The first kStageCount laps in order, for the trace's child spans.
  std::array<Stage, kStageCount> lap_stage_{};
  std::array<std::uint64_t, kStageCount> lap_ns_{};
  std::size_t lap_count_ = 0;
  const char* span_name_;
  const char* arg_name_;
  std::uint64_t arg_value_;
  // Own stack frame (null if unsampled or past the recorded window) and the
  // thread's stack depth (null if nothing was pushed).
  std::atomic<std::uint8_t>* frame_ = nullptr;
  std::atomic<std::uint32_t>* depth_ = nullptr;
  Pipeline pipeline_;
  Stage current_;
  bool tracing_;
};

/// Snapshot of every registered thread's live stack (threads with empty
/// stacks are omitted). Takes the registry mutex; sampler-side cost only.
std::vector<StageStackSample> SampleStageStacks();

}  // namespace primacy::telemetry
