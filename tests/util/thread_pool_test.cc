#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace primacy {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForSlotsCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  std::vector<std::atomic<int>> slot_hits(4);  // pool threads + caller
  pool.ParallelForSlots(hits.size(), 0, [&](std::size_t slot, std::size_t i) {
    ASSERT_LT(slot, 4u);
    ++slot_hits[slot];
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  int covered = 0;
  for (const auto& s : slot_hits) covered += s.load();
  EXPECT_EQ(covered, 500);
}

TEST(ThreadPoolTest, ParallelForSlotsBoundsSlotsByMaxAndCount) {
  ThreadPool pool(4);
  // max_slots = 2: no slot id past 1 even with 4 workers available.
  pool.ParallelForSlots(100, 2, [&](std::size_t slot, std::size_t) {
    ASSERT_LT(slot, 2u);
  });
  // count = 3 < slots: no slot id past 2.
  pool.ParallelForSlots(3, 0, [&](std::size_t slot, std::size_t) {
    ASSERT_LT(slot, 3u);
  });
  pool.ParallelForSlots(0, 0, [](std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPoolTest, ParallelForSlotsPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForSlots(10, 0,
                                     [](std::size_t, std::size_t i) {
                                       if (i == 3) {
                                         throw std::runtime_error("bad index");
                                       }
                                     }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForSlotsOnSharedPoolDoesNotDeadlock) {
  // Outer and inner loops share one pool; the caller's help-loop must drain
  // queued subtasks instead of blocking on them.
  ThreadPool& pool = SharedThreadPool();
  std::atomic<int> total{0};
  pool.ParallelForSlots(8, 0, [&](std::size_t, std::size_t) {
    pool.ParallelForSlots(16, 0,
                          [&](std::size_t, std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, SharedPoolIsAProcessSingleton) {
  EXPECT_EQ(&SharedThreadPool(), &SharedThreadPool());
  EXPECT_GE(SharedThreadPool().num_threads(), 1u);
  // Its series carry the one pool label.
  EXPECT_NE(telemetry::MetricsRegistry::Global().RenderPrometheus().find(
                "primacy_pool_tasks_total{pool=\"shared\"}"),
            std::string::npos);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace primacy
