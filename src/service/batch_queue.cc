#include "service/batch_queue.h"

#include <utility>

#include "util/error.h"

namespace primacy::service {

BatchQueue::BatchQueue(BatchOptions options, ServiceClock* clock,
                       Dispatcher dispatcher)
    : options_(options), clock_(clock), dispatcher_(std::move(dispatcher)) {
  PRIMACY_CHECK(clock_ != nullptr);
  if (!dispatcher_) {
    throw InvalidArgumentError("BatchQueue: null dispatcher");
  }
  clock_->RegisterWaiter(&mu_, &cv_);
  // Dedicated timer thread, not a pool task: it parks for the queue's whole
  // lifetime, which would wedge a pool worker (allowlisted by the
  // pool-containment lint rule). It runs no request work — batches execute
  // in the dispatcher's pool tasks, which keep the pool's exception
  // containment.
  flusher_ = std::thread([this] { FlusherLoop(); });
}

BatchQueue::~BatchQueue() {
  Stop();
  clock_->UnregisterWaiter(&cv_);
}

void BatchQueue::Push(std::size_t bytes, std::function<void()> work) {
  if (!work) {
    throw InvalidArgumentError("BatchQueue: null work item");
  }
  primacy::MutexLock lock(mu_);
  pending_.push_back(Item{next_sequence_++, bytes, clock_->NowNs(),
                          std::move(work)});
  pending_bytes_ += bytes;
  if (stopping_) {
    // Late push racing Stop: never strand an accepted item — it flushes
    // right now as a drain batch instead of waiting for a flusher that is
    // already gone.
    CutAndDispatch(FlushTrigger::kDrain);
    return;
  }
  if (options_.flush_timeout_ns == 0) {
    CutAndDispatch(FlushTrigger::kTimeout);
    return;
  }
  if (options_.flush_bytes != 0 && pending_bytes_ >= options_.flush_bytes) {
    CutAndDispatch(FlushTrigger::kSize);
    return;
  }
  if (options_.flush_requests != 0 &&
      pending_.size() >= options_.flush_requests) {
    CutAndDispatch(FlushTrigger::kCount);
    return;
  }
  if (pending_.size() == 1) {
    // First item of a fresh batch: wake the flusher so it arms this batch's
    // timeout deadline.
    cv_.NotifyAll();
  }
}

void BatchQueue::Drain() {
  primacy::MutexLock lock(mu_);
  if (!pending_.empty()) {
    CutAndDispatch(FlushTrigger::kDrain);
  }
}

void BatchQueue::Stop() {
  {
    primacy::MutexLock lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      if (!pending_.empty()) {
        CutAndDispatch(FlushTrigger::kDrain);
      }
    }
    cv_.NotifyAll();
  }
  if (flusher_.joinable()) {
    flusher_.join();
  }
}

BatchQueue::Stats BatchQueue::stats() const {
  primacy::MutexLock lock(mu_);
  return stats_;
}

std::size_t BatchQueue::Depth() const {
  primacy::MutexLock lock(mu_);
  return pending_.size();
}

void BatchQueue::CutAndDispatch(FlushTrigger trigger) {
  Batch batch;
  batch.trigger = trigger;
  batch.bytes = pending_bytes_;
  batch.cut_ns = clock_->NowNs();
  batch.items = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  switch (trigger) {
    case FlushTrigger::kSize: ++stats_.size_flushes; break;
    case FlushTrigger::kCount: ++stats_.count_flushes; break;
    case FlushTrigger::kTimeout: ++stats_.timeout_flushes; break;
    case FlushTrigger::kDrain: ++stats_.drain_flushes; break;
  }
  ++stats_.batches;
  stats_.items += batch.items.size();
  // The dispatcher runs outside the queue lock (it may block on the pool);
  // mu_ is re-held before returning, as the REQUIRES contract demands.
  mu_.Unlock();
  dispatcher_(std::move(batch));
  mu_.Lock();
}

void BatchQueue::FlusherLoop() {
  primacy::MutexLock lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (pending_.empty() || options_.flush_timeout_ns == 0) {
      // Nothing to time out (push self-flushes when the timeout is zero);
      // park until a push or Stop wakes us.
      clock_->WaitUntil(mu_, cv_, kNoDeadlineNs);
      continue;
    }
    const std::uint64_t deadline =
        pending_.front().enqueue_ns + options_.flush_timeout_ns;
    if (clock_->NowNs() >= deadline) {
      CutAndDispatch(FlushTrigger::kTimeout);
      continue;
    }
    clock_->WaitUntil(mu_, cv_, deadline);
  }
}

}  // namespace primacy::service
