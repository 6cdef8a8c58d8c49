// Tests of the benchmark's own arithmetic (cpp/bench_stats.h, cpp/trace.h).
// perfbench/run.py runs them before every workload.
#include <gtest/gtest.h>

#include <vector>

#include "cpp/bench_stats.h"
#include "cpp/trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 0.2), 1);
  EXPECT_EQ(Percentile(v, 0.21), 2);
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Median({7}), 7);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 needs 1,000 samples: rank 990 leaves exactly ten above it.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  // p90 needs 100.
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(5000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(1030), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(500), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(OpenLoop, StalledSendIsChargedFromItsDueTime) {
  const OpenLoopSchedule schedule(10.0, 1000.0);  // one request per ms from t = 10 s
  EXPECT_DOUBLE_EQ(schedule.DueAt(0), 10.0);
  EXPECT_DOUBLE_EQ(schedule.DueAt(250), 10.25);
  // The sender stalled: request 3 (due 10.003) went out at 10.050 and was
  // ingested at 10.051; a query started at 10.052 returned at 10.060. The
  // update is 47 ms late and 57 ms stale, not 9 ms.
  EXPECT_NEAR(schedule.Lateness(3, 10.050), 0.047, 1e-12);
  size_t unobserved = 0;
  const std::vector<double> fresh = FreshnessFromQueries(
      {schedule.DueAt(3)}, {10.051}, {{10.052, 10.060}}, &unobserved);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_NEAR(fresh[0], 0.057, 1e-12);
  // An early sender waits; it is never negatively late.
  EXPECT_EQ(schedule.Lateness(3, 10.001), 0.0);
}

TEST(Freshness, FirstQueryStartedAfterIngest) {
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ingested = {0.5, 1.5, 2.5, 3.5};
  // A query that started before an ingest returned cannot have seen it.
  const std::vector<QueryWindow> queries = {{0.4, 0.9}, {0.6, 1.2}, {2.6, 3.0}};
  size_t unobserved = 0;
  const std::vector<double> fresh = FreshnessFromQueries(due, ingested, queries, &unobserved);
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_DOUBLE_EQ(fresh[0], 1.2 - 0.0);  // seen by the query that started at 0.6
  EXPECT_DOUBLE_EQ(fresh[1], 3.0 - 1.0);  // 1.5 and 2.5 both wait for the 2.6 query
  EXPECT_DOUBLE_EQ(fresh[2], 3.0 - 2.0);
  EXPECT_EQ(unobserved, 1u);  // ingested at 3.5, after the last query began
}

TEST(Freshness, ClosedLoopBatches) {
  const std::vector<double> ingested = {0.0, 0.1, 0.2, 0.3};
  const std::vector<uint32_t> batch_of = {0, 0, 1, 1};
  const std::vector<double> visible_at = {1.0};  // batch 1 never seen applied
  const std::vector<double> fresh = FreshnessFromBatches(ingested, batch_of, visible_at);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_DOUBLE_EQ(fresh[0], 1.0);
  EXPECT_DOUBLE_EQ(fresh[1], 0.9);
}

TEST(SelfTime, ChildrenAreSubtractedOnceAndClipped) {
  const auto span = [](uint64_t id, uint64_t parent, const char* layer, double start,
                       double end) {
    return Span{.id = id, .parent = parent, .name = "", .layer = layer, .start = start,
                .end = end};
  };
  std::vector<Span> spans;
  spans.push_back(span(1, 0, "bench", 0, 10));
  // Two overlapping children cover [1, 5] once: 4 s, not 5.
  spans.push_back(span(2, 1, "driver", 1, 4));
  spans.push_back(span(3, 1, "driver", 3, 5));
  // A child overhanging its parent's end is clipped to it: covers [8, 10].
  spans.push_back(span(4, 1, "driver", 8, 12));
  // A grandchild is subtracted from its own parent only.
  spans.push_back(span(5, 4, "fault", 9, 10));
  const auto self = SelfTimeByLayer(spans);
  EXPECT_DOUBLE_EQ(self.at("bench"), 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(self.at("driver"), 3 + 2 + (4 - 1));
  EXPECT_DOUBLE_EQ(self.at("fault"), 1);
}

TEST(SelfTime, TracerRecordsNestedSpans) {
  Tracer tracer;
  Tracer::Buffer* buf = tracer.NewBuffer();
  {
    ScopedSpan outer(buf, "outer", "bench");
    ScopedSpan inner(buf, "inner", "core", outer.id(), 7);
  }
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, spans[1].id);  // inner closes first
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_LE(spans[1].start, spans[0].start);
  EXPECT_GE(spans[1].end, spans[0].end);
  // The untraced pass: a null buffer records nothing.
  ScopedSpan off(nullptr, "off", "bench");
  EXPECT_EQ(off.id(), 0u);
}

TEST(FailureTally, CountsFailuresOverAttempts) {
  FailureTally t;
  EXPECT_EQ(t.fraction(), 0.0);
  t.mutations = 900;
  t.queries = 100;
  EXPECT_EQ(t.attempted(), 1000u);
  EXPECT_EQ(t.fraction(), 0.0);
  t.refused = 2;
  t.dropped = 3;
  t.unhealthy_queries = 1;
  t.degraded_queries = 3;
  t.failed_checks = 1;
  EXPECT_EQ(t.failed(), 10u);
  EXPECT_DOUBLE_EQ(t.fraction(), 0.01);
  // Two passes of one run add up.
  FailureTally both = t;
  both += t;
  EXPECT_EQ(both.attempted(), 2000u);
  EXPECT_EQ(both.failed(), 20u);
  EXPECT_DOUBLE_EQ(both.fraction(), 0.01);
}

}  // namespace
}  // namespace perfbench
