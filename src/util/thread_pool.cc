#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>

#include "telemetry/metrics.h"
#include "util/error.h"
#include "util/timer.h"

namespace primacy {
namespace internal {

/// Per-pool-name metrics, resolved once per name. Utilization = busy_ns /
/// (workers * wall); wait = enqueue-to-start latency (scheduling delay +
/// queueing). Series carry a `pool="<name>"` label so concurrent pools
/// (shared + nested in-situ) never collapse into one series.
struct PoolMetrics {
  telemetry::Gauge& workers;
  telemetry::Gauge& queue_depth;
  telemetry::Counter& tasks;
  telemetry::Counter& busy_ns;
  telemetry::Histogram& wait_us;
  telemetry::Histogram& run_us;

  static PoolMetrics* ForName(const std::string& name) {
    static constexpr std::array<double, 7> kLatencyBoundsUs = {
        10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6, 1e7};
    // One instance per distinct pool name, never destroyed: the registry
    // references must outlive every pool, including the leaked shared one.
    static std::mutex mutex;
    static std::map<std::string, PoolMetrics*>* instances =
        new std::map<std::string, PoolMetrics*>();
    std::lock_guard<std::mutex> lock(mutex);
    auto it = instances->find(name);
    if (it != instances->end()) return it->second;
    const std::string labels = "pool=\"" + name + "\"";
    auto& registry = telemetry::MetricsRegistry::Global();
    auto* metrics = new PoolMetrics{
        registry.GetGauge("primacy_pool_workers", labels),
        registry.GetGauge("primacy_pool_queue_depth", labels),
        registry.GetCounter("primacy_pool_tasks_total", labels),
        registry.GetCounter("primacy_pool_busy_ns_total", labels),
        registry.GetHistogram("primacy_pool_task_wait_us", kLatencyBoundsUs,
                              labels),
        registry.GetHistogram("primacy_pool_task_run_us", kLatencyBoundsUs,
                              labels),
    };
    instances->emplace(name, metrics);
    return metrics;
  }
};

}  // namespace internal

namespace {

bool ValidPoolName(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string_view name)
    : name_(name) {
  if (!ValidPoolName(name_)) {
    throw InvalidArgumentError(
        "ThreadPool: pool name must match [A-Za-z0-9_.-]+ (it becomes a "
        "Prometheus label value)");
  }
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  metrics_ = internal::PoolMetrics::ForName(name_);
  metrics_->workers.Add(static_cast<std::int64_t>(num_threads));
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    primacy::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
  metrics_->workers.Add(-static_cast<std::int64_t>(workers_.size()));
}

void ThreadPool::Enqueue(std::function<void()> task) {
  internal::PoolMetrics* metrics = metrics_;
  metrics->queue_depth.Add(1);
  metrics->tasks.Increment();
  WallTimer enqueue_timer;
  task = [inner = std::move(task), enqueue_timer, metrics] {
    metrics->queue_depth.Add(-1);
    metrics->wait_us.Observe(static_cast<double>(enqueue_timer.ElapsedNs()) /
                             1e3);
    WallTimer run_timer;
    inner();
    const std::uint64_t run_ns = run_timer.ElapsedNs();
    metrics->busy_ns.Increment(run_ns);
    metrics->run_us.Observe(static_cast<double>(run_ns) / 1e3);
  };
  {
    primacy::MutexLock lock(mutex_);
    tasks_.emplace(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      primacy::MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) cv_.Wait(mutex_);
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(Submit([&fn, i] { fn(i); }));
  }
  // Drain EVERY future before letting an exception escape: queued tasks
  // reference `fn`, which lives in the caller's frame — returning early
  // would leave workers calling through a dangling reference.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    primacy::MutexLock lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::ParallelForSlots(
    std::size_t count, std::size_t max_slots,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  // Slot 0 is the calling thread; each pool worker can host one more.
  std::size_t slots = max_slots == 0 ? num_threads() + 1 : max_slots;
  slots = std::min(slots, count);

  std::atomic<std::size_t> next{0};
  const auto run_slot = [&](std::size_t slot) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(slot, i);
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(slots > 0 ? slots - 1 : 0);
  for (std::size_t s = 1; s < slots; ++s) {
    futures.push_back(Submit([&run_slot, s] { run_slot(s); }));
  }

  std::exception_ptr first_error;
  try {
    run_slot(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  // Wait for the remaining slots, helping with queued work meanwhile: a
  // slot task may sit behind unrelated tasks (nested sections submit to the
  // same shared pool), and every worker may itself be blocked right here —
  // draining the queue from the waiting thread guarantees global progress.
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!RunOneTask()) {
        future.wait_for(std::chrono::milliseconds(1));
      }
    }
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& SharedThreadPool() {
  // Deliberately leaked: joining workers from a static destructor can race
  // the teardown of other globals the queued tasks still reference.
  static ThreadPool* pool = new ThreadPool(0, "shared");
  return *pool;
}

}  // namespace primacy
