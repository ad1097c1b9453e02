#include "telemetry/trace.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace primacy::telemetry {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    ClearTraceBuffers();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ClearTraceBuffers();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  { TraceSpan span("trace_test.disabled"); }
  EXPECT_TRUE(SnapshotTraceEvents().empty());
}

TEST_F(TraceTest, NestedSpansRecordContainment) {
  {
    TraceSpan outer("trace_test.outer", "arg", 7);
    { TraceSpan inner("trace_test.inner"); }
  }
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "trace_test.inner");
  EXPECT_STREQ(outer.name, "trace_test.outer");
  EXPECT_STREQ(outer.arg_name, "arg");
  EXPECT_EQ(outer.arg_value, 7u);
  EXPECT_EQ(inner.arg_name, nullptr);
  // Containment: the inner span starts no earlier and ends no later.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST_F(TraceTest, RingKeepsNewestEventsOnOverflow) {
  for (std::size_t i = 0; i < kTraceRingCapacity + 100; ++i) {
    TraceSpan span("trace_test.overflow", "i", i);
  }
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), kTraceRingCapacity);
  // Oldest-first per thread; the first 100 spans were evicted.
  EXPECT_EQ(events.front().arg_value, 100u);
  EXPECT_EQ(events.back().arg_value, kTraceRingCapacity + 99);
}

TEST_F(TraceTest, ChromeTraceJsonHasCompleteEvents) {
  { TraceSpan span("trace_test.render", "bytes", 123); }
  const std::string json = RenderChromeTrace();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find('{'), json.rfind("{\"traceEvents\""));
  EXPECT_NE(json.find("\"name\": \"trace_test.render\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"bytes\": 123"), std::string::npos);
  // Balanced braces — a cheap structural sanity check on the exporter.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, ClearTraceBuffersDropsEverything) {
  { TraceSpan span("trace_test.cleared"); }
  ASSERT_FALSE(SnapshotTraceEvents().empty());
  ClearTraceBuffers();
  EXPECT_TRUE(SnapshotTraceEvents().empty());
}

TEST_F(TraceTest, DrainConsumesEachEventExactlyOnce) {
  { TraceSpan span("trace_test.drain_a"); }
  { TraceSpan span("trace_test.drain_b"); }
  const std::vector<TraceEvent> first = DrainTraceEvents();
  ASSERT_EQ(first.size(), 2u);
  // A second drain with no new spans yields nothing — the exporter's
  // periodic flush never re-writes events into a later segment.
  EXPECT_TRUE(DrainTraceEvents().empty());
  { TraceSpan span("trace_test.drain_c"); }
  const std::vector<TraceEvent> second = DrainTraceEvents();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_STREQ(second[0].name, "trace_test.drain_c");
  // Nominal operation — the rings were never overrun — drops nothing.
  EXPECT_EQ(TraceDroppedSpans(), 0u);
}

TEST_F(TraceTest, OverwrittenUnconsumedEventsCountAsDropped) {
  // Fill the ring one full lap past capacity without draining: the lapped
  // events were never consumed, so they are drops, not silent evictions.
  for (std::size_t i = 0; i < kTraceRingCapacity + 100; ++i) {
    TraceSpan span("trace_test.drop", "i", i);
  }
  const std::vector<TraceEvent> events = DrainTraceEvents();
  EXPECT_EQ(events.size(), kTraceRingCapacity);
  EXPECT_EQ(TraceDroppedSpans(), 100u);
  // Draining resumes the no-drop regime.
  { TraceSpan span("trace_test.after_drop"); }
  EXPECT_EQ(DrainTraceEvents().size(), 1u);
  EXPECT_EQ(TraceDroppedSpans(), 100u);  // cumulative, not re-counted
}

}  // namespace
}  // namespace primacy::telemetry
