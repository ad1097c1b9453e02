// Fixed-size worker pool behind chunk-parallel compression and decoding.
//
// The paper runs PRIMACY on every compute node of a bulk-synchronous
// application; within one node we parallelize across chunks. The pool is a
// classic condition-variable work queue — no lock-free cleverness, because
// each task (compressing a 3 MB chunk) is orders of magnitude larger than
// queue overhead.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy {

namespace internal {
struct PoolMetrics;  // the pool telemetry series (thread_pool.cc)
}  // namespace internal

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (minimum 1). Every pool reports into the `primacy_pool_*{pool="shared"}`
  /// series; outside tests, SharedThreadPool's is the only pool.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result. Exceptions thrown by
  /// the task are delivered through the future.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs fn(slot, i) for i in [0, count) across at most `max_slots`
  /// concurrent slots (0 = one per pool worker, plus the caller). Slot ids
  /// are dense in [0, effective_slots), so callers can keep per-slot state
  /// (an encoder or decoder per worker) without locking: a slot never
  /// runs two iterations concurrently. Slot 0 executes on the calling
  /// thread, and while waiting for the remaining slots the caller helps
  /// drain the pool's queue — so nested ParallelForSlots calls through a
  /// shared pool cannot deadlock even when every worker is blocked in an
  /// outer wait. Iterations are claimed from an atomic counter (dynamic
  /// load balancing). Rethrows the first exception encountered.
  void ParallelForSlots(std::size_t count, std::size_t max_slots,
                        const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop() PRIMACY_EXCLUDES(mutex_);

  /// Queues one type-erased task, wrapping it with telemetry accounting
  /// (queue depth, enqueue-to-start wait, run time).
  void Enqueue(std::function<void()> task) PRIMACY_EXCLUDES(mutex_);

  /// Pops and runs one queued task on the calling thread; false if the
  /// queue was empty.
  bool RunOneTask() PRIMACY_EXCLUDES(mutex_);

  internal::PoolMetrics* metrics_;  // process-lifetime
  std::vector<std::thread> workers_;
  mutable primacy::Mutex mutex_;
  // Paired with mutex_: workers park here until a task arrives or shutdown.
  primacy::CondVar cv_;
  std::queue<std::function<void()>> tasks_ PRIMACY_GUARDED_BY(mutex_);
  bool stopping_ PRIMACY_GUARDED_BY(mutex_) = false;
};

/// Process-wide pool, lazily built with hardware-concurrency workers on
/// first use and intentionally never destroyed (worker shutdown during
/// static destruction would race other teardown). Compress/Decompress
/// calls share it instead of constructing a pool per call; per-call
/// concurrency is bounded by ParallelForSlots's max_slots.
ThreadPool& SharedThreadPool();

}  // namespace primacy
