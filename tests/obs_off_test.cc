// Compiles the full observability API with XEE_OBS_OFF (forced by the
// CMake target, independent of the build-wide option) and checks that
// every call site still compiles and no-ops. This TU deliberately links
// only gtest — under XEE_OBS_OFF the obs headers are self-contained
// inline stubs and must need no xee_obs symbols; linking this target is
// itself the test of that property.

#ifndef XEE_OBS_OFF
#define XEE_OBS_OFF 1
#endif

#include <gtest/gtest.h>

#include "obs/accuracy.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace xee::obs {
namespace {

TEST(ObsOffTest, MetricsApiCompilesAndNoOps) {
  Registry reg;
  Counter& c = reg.GetCounter("service.requests", "label=x");
  c.Inc();
  c.Add(100);
  EXPECT_EQ(c.value(), 0u);

  Gauge& g = reg.GetGauge("service.inflight");
  g.Add(5);
  g.Sub(2);
  g.Set(42);
  EXPECT_EQ(g.value(), 0);

  Histogram& h = reg.GetHistogram("service.request_ns");
  h.Record(12345);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0u);

  EXPECT_EQ(reg.CounterValue("service.requests", "label=x"), 0u);
  EXPECT_EQ(reg.GaugeValue("service.inflight"), 0);
  EXPECT_EQ(reg.HistogramSnap("service.request_ns").count, 0u);
  EXPECT_TRUE(reg.Rows().empty());
  EXPECT_EQ(reg.ToJson(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  (void)Registry::Global();
}

TEST(ObsOffTest, BucketMathStaysLive) {
  // HistogramBuckets is shared math, not instrumentation: it stays
  // functional so code computing with it behaves identically.
  EXPECT_EQ(HistogramBuckets::BucketOf(1000), 63);
  EXPECT_EQ(HistogramBuckets::BucketBound(63), 1023u);
}

TEST(ObsOffTest, TraceApiCompilesAndNoOps) {
  TraceSpans spans;  // plain struct: still real, still cheap
  {
    ScopedStageTimer t(&spans, Stage::kEstimate, nullptr);
  }
  EXPECT_EQ(spans.StageNs(Stage::kEstimate), 0u);  // stub timer records nothing
  EXPECT_EQ(spans.SumNs(), 0u);

  TraceRing ring(128, 1000);
  EXPECT_FALSE(ring.IsSlow(1'000'000));
  TraceRecord rec;
  rec.total_ns = 5000;
  rec.tail_class = "slow";  // tail routing is a no-op too
  ring.Record(rec);
  EXPECT_TRUE(ring.Recent().empty());
  EXPECT_TRUE(ring.Tail().empty());
  EXPECT_TRUE(ring.Exemplars().empty());
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.tail_recorded(), 0u);
  EXPECT_EQ(ring.ToJson(), "{\"recent\":[],\"tail\":[],\"exemplars\":[]}");
  EXPECT_EQ(StageName(Stage::kParse), "parse");
}

TEST(ObsOffTest, TimeSeriesApiCompilesAndNoOps) {
  Registry reg;
  TimeSeriesOptions opt;
  opt.interval_us = 1000;
  TimeSeriesStore ts(&reg, opt);
  ts.WatchCounter("service.requests");
  ts.WatchCounterPrefix("tenant.");
  ts.WatchGauge("service.inflight");
  ts.WatchGaugePrefix("service.");
  Histogram& h = reg.GetHistogram("service.request_ns");
  ts.WatchHistogram("service.request_ns", &h);
  EXPECT_FALSE(ts.Sample(5000));  // stub never samples
  EXPECT_EQ(ts.samples(), 0u);
  EXPECT_EQ(ts.last_sample_us(), 0u);
  EXPECT_EQ(ts.series_count(), 0u);
  EXPECT_EQ(ts.dropped_series(), 0u);
  EXPECT_TRUE(ts.SeriesNames().empty());
  EXPECT_TRUE(ts.Points("service.requests").empty());
  EXPECT_EQ(ts.SumOver("service.requests", 1000, 5000), 0.0);
  EXPECT_EQ(ts.MaxOver("service.requests", 1000, 5000), 0.0);
  EXPECT_EQ(ts.RatePerSec("service.requests", 1000, 5000), 0.0);
  EXPECT_EQ(ts.ToJson(), "{\"enabled\":false,\"samples\":0,\"series\":{}}");
  EXPECT_EQ(ts.options().interval_us, 1000u);
}

TEST(ObsOffTest, SloApiCompilesAndNoOps) {
  Registry reg;
  TimeSeriesStore ts(&reg, TimeSeriesOptions{});
  SloSpec spec;
  spec.name = "availability";
  SloEngine slo(&ts, &reg, {spec});
  slo.SetTransitionHook(
      [](const SloSpec&, AlertState, AlertState, uint64_t) {});
  slo.Evaluate(1'000'000);
  EXPECT_EQ(slo.evaluations(), 0u);
  EXPECT_TRUE(slo.Alerts().empty());
  EXPECT_EQ(slo.TotalFired(), 0u);
  EXPECT_EQ(slo.TotalResolved(), 0u);
  EXPECT_EQ(slo.BurningCount(), 0u);
  EXPECT_EQ(slo.ToJson(),
            "{\"enabled\":false,\"evaluations\":0,\"alerts\":[]}");
  // The spec/state vocabulary stays live in both modes (shared types).
  EXPECT_EQ(SloKindName(SloKind::kAvailability), "availability");
  EXPECT_EQ(AlertStateName(AlertState::kFiring), "firing");
}

TEST(ObsOffTest, FlightApiCompilesAndNoOps) {
  FlightRecorder flight(1 << 16);
  EXPECT_FALSE(flight.enabled());
  EXPECT_EQ(flight.capacity(), 0u);
  EXPECT_EQ(flight.Intern("tenant-a"), FlightRecorder::kOverflowId);
  flight.Record(FlightEventType::kRequest, 1, 2, 3);
  flight.Record(FlightEventType::kMark, 0, 0, 0, /*t_us=*/99);
  EXPECT_EQ(flight.recorded(), 0u);
  EXPECT_TRUE(flight.Dump().empty());
  EXPECT_EQ(flight.ToJson(),
            "{\"enabled\":false,\"recorded\":0,\"capacity\":0,"
            "\"events\":[]}");
  EXPECT_EQ(FlightEventTypeName(FlightEventType::kFaultFire), "fault");
}

TEST(ObsOffTest, AccuracyApiCompilesAndNoOps) {
  Registry reg;
  AccuracyOptions opt;
  opt.sample = 1;  // would sample everything if live
  AccuracyTracker t(&reg, opt);
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.ShouldSample());  // shadow branch is dead code
  EXPECT_FALSE(t.TryBeginShadow());
  t.EndShadow();
  t.SkipNoDocument();
  t.SuppressDeadline();
  t.SkipEvalError();
  EXPECT_EQ(t.pending(), 0u);

  QueryClass cls;
  cls.descendant = true;
  cls.depth = 2;
  const SynopsisAccuracy rec = t.Record("paper", 1, cls, "//A/B", 4.0, 4.0);
  EXPECT_EQ(rec.samples, 0u);
  EXPECT_FALSE(rec.stale);
  EXPECT_TRUE(t.Classes().empty());
  EXPECT_TRUE(t.Synopses().empty());
  EXPECT_FALSE(t.SynopsisState("paper").has_value());
  EXPECT_TRUE(t.Offenders().empty());
  EXPECT_EQ(t.ToJson(), "{\"enabled\":false}");
  EXPECT_EQ(t.options().sample, 1u);
}

TEST(ObsOffTest, AccuracyMathAndLabelsStayLive) {
  // Like HistogramBuckets: shared math and label rendering are not
  // instrumentation, so they behave identically in both build modes.
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(8.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(AccuracyMath::QError(0.25, 0.5), 1.0);  // floored at 1
  EXPECT_DOUBLE_EQ(AccuracyMath::SignedRelError(3.0, 4.0), -0.25);
  QueryClass cls;
  cls.order = true;
  cls.branched = true;
  cls.predicate = true;
  cls.depth = 6;
  EXPECT_EQ(cls.Label(), "axis=order,shape=branch,pred=1,depth=5-8");
}

}  // namespace
}  // namespace xee::obs
