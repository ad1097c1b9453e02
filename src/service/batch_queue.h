// Admission queue with flush-size / flush-timeout batching (the capuchinos
// pattern): small compress/decompress requests coalesce into chunk-sized
// batches before touching the thread pool, so per-request dispatch overhead
// (a pool task, a future) is paid once per batch instead of once per
// request.
//
// Flush triggers, checked in this order:
//   * size   — pending payload bytes reached flush_bytes (cut on Push);
//   * count  — pending requests reached flush_requests (cut on Push);
//   * timeout — the oldest pending item aged past flush_timeout_ns (cut by
//     the flusher thread, whose timed wait goes through the ServiceClock so
//     virtual-clock tests fire timeouts deterministically);
//   * drain  — an explicit Drain()/Stop() flushed whatever was pending.
// A batch is cut and handed to the dispatcher exactly once; the size/count
// cut happens on the pushing thread (no flusher round-trip latency) with
// the dispatcher invoked outside the queue lock.
//
// The queue is request-type agnostic: items carry a byte size (for the
// size trigger and fill-ratio accounting) and a closure run later by the
// service's batch executor. Only src/service may touch this header
// (service-containment lint rule); everything else goes through
// CompressionService.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "service/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace primacy::service {

struct BatchOptions {
  /// Cut a batch when pending payload bytes reach this (0 = no size cut).
  /// The default tracks the codec's sweet spot: one PRIMACY chunk of work.
  std::size_t flush_bytes = 256 * 1024;
  /// Cut a batch when this many requests are pending (0 = no count cut).
  std::size_t flush_requests = 64;
  /// Cut whatever is pending once the oldest request is this old
  /// (0 = flush immediately on every push; the unbatched degenerate mode).
  std::uint64_t flush_timeout_ns = 2'000'000;  // 2 ms
};

enum class FlushTrigger : std::uint8_t { kSize, kCount, kTimeout, kDrain };

class BatchQueue {
 public:
  struct Item {
    std::uint64_t sequence = 0;    // admission order, assigned by Push
    std::size_t bytes = 0;         // request payload size
    std::uint64_t enqueue_ns = 0;  // service-clock time of admission
    std::function<void()> work;
  };

  struct Batch {
    FlushTrigger trigger = FlushTrigger::kDrain;
    std::size_t bytes = 0;  // sum of item payload bytes
    std::uint64_t cut_ns = 0;
    std::vector<Item> items;
  };

  /// Receives each cut batch, outside the queue lock, on the cutting thread
  /// (pusher for size/count, flusher for timeout, caller for drain). Must
  /// not call back into Push/Drain/Stop.
  using Dispatcher = std::function<void(Batch&&)>;

  /// Exact flush accounting (queue mutex), for tests and stats snapshots.
  struct Stats {
    std::uint64_t size_flushes = 0;
    std::uint64_t count_flushes = 0;
    std::uint64_t timeout_flushes = 0;
    std::uint64_t drain_flushes = 0;
    std::uint64_t batches = 0;
    std::uint64_t items = 0;

    std::uint64_t Flushes() const {
      return size_flushes + count_flushes + timeout_flushes + drain_flushes;
    }
  };

  /// `clock` must outlive the queue. The flusher thread starts immediately;
  /// with flush_timeout_ns == 0 it stays parked (every push self-flushes).
  BatchQueue(BatchOptions options, ServiceClock* clock, Dispatcher dispatcher);

  /// Stops and drains: equivalent to Stop().
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Appends one item (FIFO). If the push crosses the size or count
  /// threshold, the batch is cut and dispatched before Push returns. After
  /// Stop, late pushes still dispatch — immediately, as single-item drain
  /// batches — so no accepted item is ever dropped.
  void Push(std::size_t bytes, std::function<void()> work);

  /// Cuts and dispatches whatever is pending (trigger kDrain). No-op when
  /// empty.
  void Drain();

  /// Drains pending items and joins the flusher thread. Idempotent.
  void Stop();

  Stats stats() const;

  /// Pending items right now (tests; the queue mutex is taken).
  std::size_t Depth() const;

 private:
  /// Cuts the whole pending list into a Batch under mu_, releases the
  /// lock to dispatch, and reacquires it before returning (legal under the
  /// REQUIRES contract: the capability is held again at exit).
  void CutAndDispatch(FlushTrigger trigger) PRIMACY_REQUIRES(mu_);

  void FlusherLoop() PRIMACY_EXCLUDES(mu_);

  const BatchOptions options_;
  ServiceClock* const clock_;
  const Dispatcher dispatcher_;

  mutable primacy::Mutex mu_;
  // Paired with mu_: wakes the flusher (new first item, Stop) and is
  // clock-registered so VirtualClock::Advance can fire timeouts.
  primacy::CondVar cv_;
  std::vector<Item> pending_ PRIMACY_GUARDED_BY(mu_);
  std::size_t pending_bytes_ PRIMACY_GUARDED_BY(mu_) = 0;
  std::uint64_t next_sequence_ PRIMACY_GUARDED_BY(mu_) = 0;
  Stats stats_ PRIMACY_GUARDED_BY(mu_);
  bool stopping_ PRIMACY_GUARDED_BY(mu_) = false;
  std::thread flusher_;
};

}  // namespace primacy::service
