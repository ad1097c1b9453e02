// Per-thread live stage stacks (the sampling profiler's data source), as
// StageTimer maintains them: timers push/pop, Lap retargets, samples see
// the innermost frame, disabled sampling records nothing, and deep nesting
// clamps instead of corrupting.
#include "telemetry/stage_stack.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

namespace primacy::telemetry {
namespace {

class StageStackTest : public ::testing::Test {
 protected:
  void SetUp() override { SetStageSamplingEnabled(true); }
  void TearDown() override { SetStageSamplingEnabled(false); }

  /// Live samples. Other test threads in the binary never hold live
  /// timers, so at most one sample belongs to us; filtering by depth keeps
  /// the lookup robust anyway.
  static std::vector<StageStackSample> LiveSamples() {
    std::vector<StageStackSample> live;
    for (const StageStackSample& sample : SampleStageStacks()) {
      if (sample.depth > 0) live.push_back(sample);
    }
    return live;
  }
};

/// A timer for stack tests; never committed, so it publishes nothing.
StageTimer Timer(Stage first) {
  return StageTimer(Pipeline::kEncode, first, "stage_stack_test.timer");
}

TEST_F(StageStackTest, DisabledSamplingRecordsNothing) {
  SetStageSamplingEnabled(false);
  StageTimer timer = Timer(Stage::kSolver);
  timer.Lap(Stage::kMerge);
  EXPECT_TRUE(LiveSamples().empty());
}

TEST_F(StageStackTest, ScopePushesAndPops) {
  EXPECT_TRUE(LiveSamples().empty());
  {
    StageTimer timer = Timer(Stage::kIdMap);
    const std::vector<StageStackSample> live = LiveSamples();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].depth, 1u);
    EXPECT_EQ(live[0].Top(), Stage::kIdMap);
  }
  EXPECT_TRUE(LiveSamples().empty());
}

TEST_F(StageStackTest, ScopesNestBottomFirst) {
  StageTimer outer = Timer(Stage::kSplit);
  StageTimer inner = Timer(Stage::kSolver);
  const std::vector<StageStackSample> live = LiveSamples();
  ASSERT_EQ(live.size(), 1u);
  ASSERT_EQ(live[0].depth, 2u);
  EXPECT_EQ(live[0].frames[0], Stage::kSplit);
  EXPECT_EQ(live[0].frames[1], Stage::kSolver);
  EXPECT_EQ(live[0].Top(), Stage::kSolver);
}

TEST_F(StageStackTest, SwitchRetargetsInnermostFrame) {
  StageTimer outer = Timer(Stage::kSplit);
  StageTimer inner = Timer(Stage::kFrequency);
  inner.Lap(Stage::kIsobar);
  std::vector<StageStackSample> live = LiveSamples();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].frames[0], Stage::kSplit);  // outer frame untouched
  EXPECT_EQ(live[0].Top(), Stage::kIsobar);
  // Each timer retargets its own frame, even under a live inner timer.
  outer.Lap(Stage::kMerge);
  live = LiveSamples();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].frames[0], Stage::kMerge);
  EXPECT_EQ(live[0].Top(), Stage::kIsobar);
}

TEST_F(StageStackTest, DeepNestingClampsToRecordedDepth) {
  // kStageStackDepth + 2 nested timers: the overflow frames are not
  // recorded (nor retargeted by Lap), and unwinding restores a consistent
  // stack.
  {
    StageTimer s0 = Timer(Stage::kSplit);
    StageTimer s1 = Timer(Stage::kFrequency);
    StageTimer s2 = Timer(Stage::kIdMap);
    StageTimer s3 = Timer(Stage::kSolver);
    StageTimer s4 = Timer(Stage::kIsobar);
    StageTimer s5 = Timer(Stage::kChecksum);
    StageTimer s6 = Timer(Stage::kMerge);
    StageTimer s7 = Timer(Stage::kSerialize);
    StageTimer s8 = Timer(Stage::kSolver);  // beyond the recorded window
    StageTimer s9 = Timer(Stage::kMerge);
    s9.Lap(Stage::kIdMap);
    const std::vector<StageStackSample> live = LiveSamples();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].depth, kStageStackDepth);
    EXPECT_EQ(live[0].Top(), Stage::kSerialize);
  }
  {
    StageTimer again = Timer(Stage::kFrequency);
    const std::vector<StageStackSample> live = LiveSamples();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].depth, 1u);
    EXPECT_EQ(live[0].Top(), Stage::kFrequency);
  }
}

TEST_F(StageStackTest, SamplesSeeOtherThreadsWithDistinctTids) {
  StageTimer mine = Timer(Stage::kSplit);
  std::mutex mu;
  std::condition_variable cv;
  bool scoped = false;
  bool done = false;
  std::thread worker([&] {
    StageTimer theirs = Timer(Stage::kSolver);
    std::unique_lock<std::mutex> lock(mu);
    scoped = true;
    cv.notify_all();
    cv.wait(lock, [&] { return done; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return scoped; });
  }
  const std::vector<StageStackSample> live = LiveSamples();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_NE(live[0].tid, live[1].tid);
  const bool solver_seen = live[0].Top() == Stage::kSolver ||
                           live[1].Top() == Stage::kSolver;
  const bool split_seen = live[0].Top() == Stage::kSplit ||
                          live[1].Top() == Stage::kSplit;
  EXPECT_TRUE(solver_seen);
  EXPECT_TRUE(split_seen);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  worker.join();
}

TEST_F(StageStackTest, StageNamesCoverTheTaxonomy) {
  EXPECT_EQ(StageName(Stage::kSplit), "split");
  EXPECT_EQ(StageName(Stage::kSolver), "solver");
  EXPECT_EQ(StageName(Stage::kSerialize), "serialize");
}

}  // namespace
}  // namespace primacy::telemetry
