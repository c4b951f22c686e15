// Unit tests for the observability layer (src/obs/): histogram bucket
// math against exact reference values, quantile behavior, metric
// identity in the registry, JSON export, trace-ring wraparound, and a
// multi-threaded recording test exercised under TSan by
// scripts/check_tsan.sh.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xee::obs {
namespace {

using B = HistogramBuckets;

// --- Bucket math ----------------------------------------------------

TEST(ObsTest, SmallValuesGetExactBuckets) {
  // 0..15 are exactly representable: 0..7 in the linear prefix, 8..15 in
  // the first octave whose sub-bucket width is 1.
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(B::BucketOf(v), static_cast<int>(v)) << v;
    EXPECT_EQ(B::BucketBound(static_cast<int>(v)), v) << v;
  }
}

TEST(ObsTest, ReferenceBuckets) {
  // Hand-computed: bucket = 8 + (floor(log2 v) - 3)*8 + ((v >> (k-3)) & 7).
  EXPECT_EQ(B::BucketOf(16), 16);    // k=4, sub=0
  EXPECT_EQ(B::BucketOf(17), 16);    // same sub-bucket as 16
  EXPECT_EQ(B::BucketOf(18), 17);
  EXPECT_EQ(B::BucketOf(50), 28);    // k=5, sub=4
  EXPECT_EQ(B::BucketOf(1000), 63);  // k=9, sub=7
  EXPECT_EQ(B::BucketOf(1024), 64);  // k=10, sub=0

  EXPECT_EQ(B::BucketBound(16), 17u);    // [16,17]
  EXPECT_EQ(B::BucketBound(28), 51u);    // [48,51]
  EXPECT_EQ(B::BucketBound(63), 1023u);  // [960,1023]
}

TEST(ObsTest, TopBucketCoversUint64Max) {
  const uint64_t top = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(B::BucketOf(top), B::kBuckets - 1);
  EXPECT_EQ(B::BucketBound(B::kBuckets - 1), top);
}

TEST(ObsTest, BucketsPartitionTheRange) {
  // Bounds are strictly increasing and BucketOf is exactly the interval
  // membership function: BucketOf(bound) == b, BucketOf(bound+1) == b+1.
  for (int b = 0; b + 1 < B::kBuckets; ++b) {
    const uint64_t bound = B::BucketBound(b);
    ASSERT_LT(bound, B::BucketBound(b + 1)) << b;
    EXPECT_EQ(B::BucketOf(bound), b) << b;
    EXPECT_EQ(B::BucketOf(bound + 1), b + 1) << b;
  }
}

TEST(ObsTest, RelativeErrorBoundedByOneEighth) {
  // The quantile a histogram reports is the bucket's upper bound; its
  // overshoot over the true value is below one sub-bucket width, i.e.
  // <= v/8 for every v in the octave range.
  for (uint64_t v : {1ull, 7ull, 8ull, 100ull, 999ull, 12345ull,
                     1'000'000'000ull, (1ull << 62) + 12345ull}) {
    const uint64_t bound = B::BucketBound(B::BucketOf(v));
    ASSERT_GE(bound, v);
    EXPECT_LE(bound - v, v / 8 + 1) << v;
  }
}

// --- Histogram recording & quantiles --------------------------------

TEST(ObsTest, EmptyHistogramSnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(ObsTest, ExactQuantilesInTheLinearRange) {
  // Values 0..3 land in exact buckets, so the quantiles are exact:
  // rank(q) = clamp(ceil(q * count), 1, count)'th smallest value.
  Histogram h;
  for (uint64_t v : {0, 1, 2, 3}) h.Record(v);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 6u);
  EXPECT_DOUBLE_EQ(s.mean, 1.5);
  EXPECT_EQ(s.p50, 1u);  // rank ceil(0.5*4) = 2 -> value 1
  EXPECT_EQ(s.p90, 3u);  // rank 4 -> value 3
  EXPECT_EQ(s.p99, 3u);
  EXPECT_EQ(s.max, 3u);
}

TEST(ObsTest, IdenticalValuesQuantizeToTheirBucketBound) {
  Histogram h;
  for (int i = 0; i < 8; ++i) h.Record(1000);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.sum, 8000u);
  // 1000 lives in bucket [960,1023]; every quantile reports the bound.
  EXPECT_EQ(s.p50, 1023u);
  EXPECT_EQ(s.p99, 1023u);
  EXPECT_EQ(s.max, 1023u);
}

TEST(ObsTest, QuantileRanksSplitAMixedDistribution) {
  // 90 fast (value 10, exact bucket would be... 10 -> bucket [10,10]?
  // 10 has k=3, sub=2 -> bucket 10, bound 10: exact) and 10 slow
  // (value 1000 -> bound 1023). p50/p90 hit the fast mode, p99 the
  // slow tail.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 10u);
  EXPECT_EQ(s.p90, 10u);    // rank 90 is still a fast one
  EXPECT_EQ(s.p99, 1023u);  // rank 99 is in the slow mode
  EXPECT_EQ(s.max, 1023u);
}

// --- Counter / gauge / registry identity ----------------------------

TEST(ObsTest, CounterAndGaugeArithmetic) {
  Registry reg;
  Counter& c = reg.GetCounter("c");
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge& g = reg.GetGauge("g");
  g.Add(10);
  g.Sub(25);
  EXPECT_EQ(g.value(), -15);
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
}

TEST(ObsTest, IdentityIsTheNameLabelPair) {
  Registry reg;
  Counter& a1 = reg.GetCounter("hits", "shard=1");
  Counter& a2 = reg.GetCounter("hits", "shard=1");
  Counter& b = reg.GetCounter("hits", "shard=2");
  Counter& c = reg.GetCounter("hits");
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(&a1, &b);
  EXPECT_NE(&a1, &c);
  a1.Inc();
  EXPECT_EQ(reg.CounterValue("hits", "shard=1"), 1u);
  EXPECT_EQ(reg.CounterValue("hits", "shard=2"), 0u);
  EXPECT_EQ(reg.CounterValue("hits"), 0u);
  // Read-side lookups never create.
  EXPECT_EQ(reg.CounterValue("no.such.metric"), 0u);
  EXPECT_EQ(reg.GaugeValue("no.such.metric"), 0);
  EXPECT_EQ(reg.HistogramSnap("no.such.metric").count, 0u);
}

// Rows() groups by kind (counters, gauges, histograms), each group
// sorted by (name, label), and splits "name{label}" keys back into
// their parts.
TEST(ObsTest, RowsGroupedByKindAndSplitBackIntoNameAndLabel) {
  Registry reg;
  reg.GetCounter("b.counter", "k=v").Inc();
  reg.GetCounter("a.counter").Add(2);
  reg.GetGauge("a.gauge").Set(-3);
  reg.GetHistogram("a.hist").Record(5);
  const std::vector<MetricRow> rows = reg.Rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a.counter");
  EXPECT_EQ(rows[0].label, "");
  EXPECT_EQ(rows[0].counter, 2u);
  EXPECT_EQ(rows[1].name, "b.counter");
  EXPECT_EQ(rows[1].label, "k=v");
  EXPECT_EQ(rows[1].counter, 1u);
  EXPECT_EQ(rows[2].name, "a.gauge");
  EXPECT_EQ(rows[2].gauge, -3);
  EXPECT_EQ(rows[3].name, "a.hist");
  EXPECT_EQ(rows[3].hist.count, 1u);
}

TEST(ObsTest, ToJsonCarriesEveryMetricKind) {
  Registry reg;
  reg.GetCounter("req", "op=get").Add(3);
  reg.GetGauge("depth").Set(-2);
  reg.GetHistogram("lat_ns").Record(1000);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"req{op=get}\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_ns\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":1023"), std::string::npos) << json;
}

TEST(ObsTest, JsonEscapeControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// --- Trace ring -----------------------------------------------------

TraceRecord Rec(uint64_t total_ns) {
  TraceRecord r;
  r.total_ns = total_ns;
  r.outcome = "test";
  return r;
}

TEST(ObsTest, RingKeepsInsertionOrderBeforeWrapping) {
  TraceRing ring(4);
  ring.Record(Rec(1));
  ring.Record(Rec(2));
  const std::vector<TraceRecord> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].total_ns, 1u);
  EXPECT_EQ(recent[1].total_ns, 2u);
  EXPECT_EQ(recent[0].seq, 1u);  // seq numbers are 1-based and monotonic
  EXPECT_EQ(recent[1].seq, 2u);
}

TEST(ObsTest, RingWrapsKeepingTheNewestOldestFirst) {
  TraceRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) ring.Record(Rec(i));
  EXPECT_EQ(ring.recorded(), 10u);
  const std::vector<TraceRecord> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i].total_ns, 7 + i);
    EXPECT_EQ(recent[i].seq, 7 + i);
  }
  // Recent(max) truncates from the old end.
  const std::vector<TraceRecord> last2 = ring.Recent(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].total_ns, 9u);
  EXPECT_EQ(last2[1].total_ns, 10u);
}

TEST(ObsTest, TailClassRoutesToExactlyOneRing) {
  TraceRing ring(8, /*slow_threshold_ns=*/100);
  EXPECT_FALSE(ring.IsSlow(99));
  EXPECT_TRUE(ring.IsSlow(100));
  ring.Record(Rec(50));  // routine: recent ring
  TraceRecord slow_rec = Rec(150);
  slow_rec.tail_class = "slow";
  ring.Record(std::move(slow_rec));
  TraceRecord shed_rec = Rec(0);
  shed_rec.tail_class = "shed";
  ring.Record(std::move(shed_rec));
  const std::vector<TraceRecord> tail = ring.Tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].tail_class, "slow");
  EXPECT_EQ(tail[1].tail_class, "shed");
  // Exactly one ring per record: tail records never shadow into the
  // recent ring, so walking both never double-counts a request.
  const std::vector<TraceRecord> recent = ring.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].total_ns, 50u);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.tail_recorded(), 2u);
  // Sequence numbers stay globally monotonic across the two rings.
  EXPECT_EQ(recent[0].seq, 1u);
  EXPECT_EQ(tail[0].seq, 2u);
  EXPECT_EQ(tail[1].seq, 3u);
}

TEST(ObsTest, ZeroThresholdDisablesSlowClassification) {
  TraceRing ring(8, 0);
  EXPECT_FALSE(ring.IsSlow(std::numeric_limits<uint64_t>::max()));
  ring.Record(Rec(1'000'000'000));  // no class: routine
  EXPECT_TRUE(ring.Tail().empty());
  EXPECT_EQ(ring.tail_recorded(), 0u);
}

TEST(ObsTest, TailRingIsBoundedIndependently) {
  TraceRing ring(4, 100);  // tail capacity = max(16, 4/2) = 16
  for (uint64_t i = 1; i <= 40; ++i) {
    TraceRecord r = Rec(100 + i);
    r.tail_class = "slow";
    ring.Record(std::move(r));
  }
  const std::vector<TraceRecord> tail = ring.Tail();
  ASSERT_EQ(tail.size(), 16u);
  EXPECT_EQ(tail.front().seq, 25u);  // newest 16 of 40, oldest first
  EXPECT_EQ(tail.back().seq, 40u);
  EXPECT_EQ(ring.tail_recorded(), 40u);
  EXPECT_TRUE(ring.Recent().empty());
}

TEST(ObsTest, ExemplarsTrackLatestTracePerOctave) {
  TraceRing ring(8, 0);
  ring.Record(Rec(10));      // low octave
  ring.Record(Rec(1000));    // higher octave
  ring.Record(Rec(12));      // same octave as 10: replaces it
  const std::vector<TraceExemplar> ex = ring.Exemplars();
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].total_ns, 12u);
  EXPECT_EQ(ex[0].seq, 3u);
  EXPECT_EQ(ex[1].total_ns, 1000u);
  EXPECT_EQ(ex[1].seq, 2u);
  // Untimed records (total_ns == 0) leave the exemplars untouched.
  TraceRecord shed_rec = Rec(0);
  shed_rec.tail_class = "shed";
  ring.Record(std::move(shed_rec));
  EXPECT_EQ(ring.Exemplars().size(), 2u);
}

TEST(ObsTest, TraceJsonRendersStagesAndCounters) {
  TraceRing ring(4, 100);
  TraceRecord r = Rec(12345);
  r.synopsis = "xmark";
  r.query = "//a/b";
  r.outcome = "miss";
  r.tail_class = "slow";
  r.spans.stage_ns[static_cast<size_t>(Stage::kEstimate)] = 42;
  r.spans.containment_tests = 7;
  ring.Record(std::move(r));
  const std::string json = ring.ToJson();
  EXPECT_NE(json.find("\"total_ns\":12345"), std::string::npos) << json;
  EXPECT_NE(json.find("\"estimate\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"containment_tests\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tail\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tail\":\"slow\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exemplars\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bucket_ns\":"), std::string::npos) << json;
}

TEST(ObsTest, StageNamesAreStable) {
  // The stage names are API: STATSZ metric names ("service.stage.<name>_ns")
  // and TRACEZ keys are built from them.
  EXPECT_EQ(StageName(Stage::kParse), "parse");
  EXPECT_EQ(StageName(Stage::kCanonicalize), "canonicalize");
  EXPECT_EQ(StageName(Stage::kCacheLookup), "cache_lookup");
  EXPECT_EQ(StageName(Stage::kSnapshot), "snapshot");
  EXPECT_EQ(StageName(Stage::kEstimate), "estimate");
}

// --- Concurrency (run under TSan by scripts/check_tsan.sh) ----------

TEST(ObsTest, ConcurrentRecordingLosesNothing) {
  Registry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  Histogram& h = reg.GetHistogram("h");
  TraceRing ring(64, 500);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
        g.Add(1);
        h.Record(static_cast<uint64_t>(i & 1023));
        if (i % 1000 == 0) {
          ring.Record(Rec(static_cast<uint64_t>(t * kPerThread + i)));
        }
      }
      // Readers run concurrently with writers.
      (void)reg.ToJson();
      (void)ring.ToJson();
      (void)h.Snap();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(g.value(), int64_t{kThreads} * kPerThread);
  const HistogramSnapshot s = h.Snap();
  EXPECT_EQ(s.count, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(ring.recorded(), uint64_t{kThreads} * (kPerThread / 1000));
  // Every surviving seq number is unique.
  std::set<uint64_t> seqs;
  for (const TraceRecord& r : ring.Recent()) seqs.insert(r.seq);
  EXPECT_EQ(seqs.size(), ring.Recent().size());
}

}  // namespace
}  // namespace xee::obs
