// The observability layer (src/obs/): histogram bucketing and
// percentiles, the registry's one rendering (the Prometheus text
// exposition), and the span collector and store with its slow-request
// capture.
//
// The contract under test: registration is idempotent per name and label
// set, and the exposition parses (HELP/TYPE blocks, cumulative buckets,
// _count == sum of bucket increments) with integral values rendered as
// integers (net_test matches them textually), as the JSON number renderer
// they share with span JSON does.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cpdb::obs {
namespace {

// ----- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwoMicros) {
  EXPECT_EQ(Histogram::BucketOf(0.0), 0u);
  EXPECT_EQ(Histogram::BucketOf(0.9), 0u);    // [0, 1us)
  EXPECT_EQ(Histogram::BucketOf(1.0), 1u);    // [1, 2us)
  EXPECT_EQ(Histogram::BucketOf(1.9), 1u);
  EXPECT_EQ(Histogram::BucketOf(2.0), 2u);    // [2, 4us)
  EXPECT_EQ(Histogram::BucketOf(3.5), 2u);
  EXPECT_EQ(Histogram::BucketOf(4.0), 3u);
  EXPECT_EQ(Histogram::BucketOf(1000.0), 10u);  // [512, 1024us)
  // Everything past the covered range lands in the +Inf bucket.
  EXPECT_EQ(Histogram::BucketOf(1e12), Histogram::kBuckets - 1);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperUs(Histogram::kBuckets - 1)));
  EXPECT_EQ(Histogram::BucketUpperUs(0), 1.0);
  EXPECT_EQ(Histogram::BucketUpperUs(10), 1024.0);
}

TEST(HistogramTest, SnapshotCountsAndMean) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.MeanMicros(), 20.0, 0.01);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  Histogram::Snapshot s = h.Snap();
  // Log2 buckets give ~2x resolution: the estimate must land within the
  // bucket that holds the true percentile.
  double p50 = s.Percentile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  double p99 = s.Percentile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_EQ(Histogram::Snapshot{}.Percentile(0.5), 0.0);
}

// ----- Registry rendering ----------------------------------------------------

TEST(RegistryTest, SameNameAndLabelsReturnsSameObject) {
  Registry reg;
  Counter* a = reg.GetCounter("cpdb_x_total", "help");
  Counter* b = reg.GetCounter("cpdb_x_total", "other help");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct series.
  Histogram* h1 = reg.GetHistogram("cpdb_stage_us", "h", "stage=\"a\"");
  Histogram* h2 = reg.GetHistogram("cpdb_stage_us", "h", "stage=\"b\"");
  EXPECT_NE(h1, h2);
}

TEST(RegistryTest, PrometheusExpositionParses) {
  Registry reg;
  reg.GetCounter("cpdb_commits_total", "Transactions committed")->Inc(7);
  reg.GetGauge("cpdb_depth", "Queue depth")->Set(-3);
  reg.GetGauge("cpdb_tid", "Last tid")->Set(17);
  Histogram* h = reg.GetHistogram("cpdb_lat_us", "Latency", "op=\"get\"");
  h->Record(3.0);   // bucket [2,4us)
  h->Record(100.0);
  reg.SetCallback("cpdb_cb_total", "Callback counter", true,
                  [] { return 42.0; });
  reg.SetCallback("cpdb_frac", "Fractional gauge", false, [] { return 0.5; });

  std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# HELP cpdb_commits_total Transactions committed\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE cpdb_commits_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("cpdb_commits_total 7\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE cpdb_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("cpdb_depth -3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE cpdb_lat_us histogram\n"), std::string::npos);
  // Cumulative buckets: the le="4" bucket already contains the 3us
  // sample, the +Inf bucket contains everything.
  EXPECT_NE(out.find("cpdb_lat_us_bucket{op=\"get\",le=\"4\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cpdb_lat_us_bucket{op=\"get\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("cpdb_lat_us_count{op=\"get\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("cpdb_cb_total 42\n"), std::string::npos);
  // Integral values render with no decimal point, fractions with three
  // places.
  EXPECT_NE(out.find("cpdb_tid 17\n"), std::string::npos) << out;
  EXPECT_NE(out.find("cpdb_frac 0.500\n"), std::string::npos) << out;

  // Minimal line discipline: every non-comment line is `name[{labels}]
  // value`, every series name appears after a HELP and a TYPE.
  size_t pos = 0;
  while (pos < out.size()) {
    size_t eol = out.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated last line";
    std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) FAIL() << "blank line in exposition";
    if (line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(sp, 0u) << line;
  }
}

TEST(RegistryTest, JsonRendersIntegersWithoutDecimalPoint) {
  auto json = [](double v) {
    std::string out;
    AppendJsonNumber(&out, v);
    return out;
  };
  EXPECT_EQ(json(3), "3");
  EXPECT_EQ(json(17), "17");
  EXPECT_EQ(json(-3), "-3");
  EXPECT_EQ(json(0), "0");
  EXPECT_EQ(json(0.5), "0.500");
  EXPECT_EQ(json(2.25), "2.250");
  // JSON has no NaN or Infinity literal.
  EXPECT_EQ(json(std::nan("")), "0");
  EXPECT_EQ(json(HUGE_VAL), "0");

  // Span JSON takes its timings through the same renderer.
  Span span;
  span.span_id = 5;
  span.kind = "commit.seal";
  span.start_us = 100;
  span.dur_us = 2.5;
  span.cost_us = 7;
  std::string out = SpanStore::SpanJson(span);
  EXPECT_NE(out.find("\"start_us\":100,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"dur_us\":2.500,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"cost_us\":7"), std::string::npos) << out;
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
}

// ----- SpanCollector / SpanStore (request tracing) ---------------------------

TEST(SpanCollectorTest, InactiveCollectorIsANoOp) {
  SpanCollector none;  // default: trace_id 0
  EXPECT_FALSE(none.active());
  EXPECT_EQ(none.Open("server.PING", 0), 0u);
  none.Close(0);  // must not crash
  EXPECT_EQ(none.AppendTimed("commit.queue", 0, 1, 2), 0u);
  EXPECT_EQ(none.root_span_id(), 0u);
  EXPECT_TRUE(none.Take().empty());
}

TEST(SpanCollectorTest, NestsSpansAndSeedsIdsPastTheWireParent) {
  TraceContext ctx{/*trace_id=*/40, /*parent_span_id=*/10, /*sampled=*/true};
  SpanCollector col(ctx);
  ASSERT_TRUE(col.active());

  const uint64_t root = col.Open("server.GETMOD", ctx.parent_span_id);
  // Local ids start past the caller's parent id: the wire parent can
  // never collide with (and mis-nest under) a server-minted id.
  EXPECT_EQ(root, 11u);
  EXPECT_EQ(col.root_span_id(), root);
  const uint64_t child = col.Open("query.execute", root, "T/data");
  EXPECT_EQ(child, 12u);
  col.CloseWithCost(child, /*rows=*/3, /*round_trips=*/2, /*cost_us=*/7.5);
  col.Close(root);

  std::vector<Span> spans = col.Take();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, "server.GETMOD");
  EXPECT_EQ(spans[0].parent_span_id, 10u);
  EXPECT_EQ(spans[0].trace_id, 40u);
  EXPECT_GE(spans[0].dur_us, 0.0);
  EXPECT_EQ(spans[1].parent_span_id, root);
  EXPECT_EQ(spans[1].detail, "T/data");
  EXPECT_EQ(spans[1].rows, 3u);
  EXPECT_EQ(spans[1].round_trips, 2u);
  EXPECT_EQ(spans[1].cost_us, 7.5);
  // Children open after (and close within) their parent.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].dur_us, spans[0].dur_us);
}

TEST(SpanCollectorTest, CapsSpansPerRequestAndCountsDrops) {
  SpanCollector col(TraceContext{1, 0, true});
  const uint64_t root = col.Open("server.TRACEBACK", 0);
  for (size_t i = 1; i < SpanCollector::kMaxSpans; ++i) {
    EXPECT_NE(col.Open("query.loc_scan", root), 0u) << i;
  }
  // Full: a runaway provenance walk cannot turn one trace into an
  // allocation storm. Overflow is counted, not stored.
  EXPECT_EQ(col.Open("query.loc_scan", root), 0u);
  EXPECT_EQ(col.AppendTimed("commit.queue", root, 0, 1), 0u);
  EXPECT_EQ(col.dropped(), 2u);
  EXPECT_EQ(col.spans().size(), SpanCollector::kMaxSpans);
}

/// A ready-made three-span trace: root <- query, plus one orphan whose
/// parent id is not in the set (as if its parent got overflow-dropped).
std::vector<Span> MakeTrace(uint64_t trace_id, double root_dur) {
  SpanCollector col(TraceContext{trace_id, 0, true});
  uint64_t root = col.Open("server.GETMOD", 0);
  uint64_t q = col.Open("query.execute", root, "T/data/k1");
  col.CloseWithCost(q, 2, 1, 5.0);
  col.Close(root);
  std::vector<Span> spans = col.Take();
  spans[0].dur_us = root_dur;
  Span orphan;
  orphan.trace_id = trace_id;
  orphan.span_id = 999;
  orphan.parent_span_id = 777;  // unknown parent
  orphan.kind = "query.loc_scan";
  spans.push_back(orphan);
  return spans;
}

TEST(SpanStoreTest, TreeJsonNestsChildrenAndAdoptsOrphans) {
  std::string json = SpanStore::TreeJson(MakeTrace(42, 100));
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spans\":3"), std::string::npos);
  // The query span nests INSIDE the root's children array...
  size_t root_at = json.find("\"kind\":\"server.GETMOD\"");
  size_t child_at = json.find("\"kind\":\"query.execute\"");
  ASSERT_NE(root_at, std::string::npos);
  ASSERT_NE(child_at, std::string::npos);
  EXPECT_LT(root_at, child_at);
  EXPECT_NE(json.find("\"detail\":\"T/data/k1\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":2"), std::string::npos);
  // ...and the orphan is adopted by the root instead of vanishing.
  EXPECT_NE(json.find("\"kind\":\"query.loc_scan\""), std::string::npos);
  EXPECT_EQ(SpanStore::TreeJson({}), "{}");
}

TEST(SpanStoreTest, RecordsSampledTracesPerRootKind) {
  SpanStore store;
  // Unsampled + fast records nothing at all.
  store.Record(MakeTrace(1, 10), /*sampled=*/false);
  EXPECT_EQ(store.recorded(), 0u);
  EXPECT_EQ(store.slow_recorded(), 0u);

  for (uint64_t id = 2; id <= 11; ++id) {
    store.Record(MakeTrace(id, 10), /*sampled=*/true);
  }
  EXPECT_EQ(store.recorded(), 10u);
  std::string json = store.TracesJson();
  auto at = [&](uint64_t id) {
    return json.find("{\"trace_id\":" + std::to_string(id) + ",");
  };
  // The ring holds SpanStore::kRingCapacity = 8 per root kind; the eight
  // newest of the ten survive, rendered newest first.
  EXPECT_EQ(at(2), std::string::npos) << json;
  EXPECT_EQ(at(3), std::string::npos) << json;
  for (uint64_t id = 4; id <= 11; ++id) {
    EXPECT_NE(at(id), std::string::npos) << id << ": " << json;
  }
  EXPECT_LT(at(11), at(4));
  EXPECT_NE(json.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(json.find("\"slow\":[]"), std::string::npos);
}

TEST(SpanStoreTest, SlowThresholdCapturesEvenUnsampledTraces) {
  SpanStore store;
  store.SetSlowThresholdUs(1000);
  EXPECT_EQ(store.SlowThresholdUs(), 1000);
  // Record reports a slow capture, so the caller can count it by class.
  EXPECT_FALSE(store.Record(MakeTrace(1, 10), /*sampled=*/false));  // fast
  EXPECT_TRUE(store.Record(MakeTrace(2, 5000), /*sampled=*/false));  // slow
  EXPECT_EQ(store.recorded(), 0u);  // slow-only capture is not "sampled"
  EXPECT_EQ(store.slow_recorded(), 1u);
  std::string json = store.TracesJson();
  EXPECT_NE(json.find("\"slow_threshold_us\":1000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"slow_recorded\":1"), std::string::npos);
  size_t slow_at = json.find("\"slow\":[");
  ASSERT_NE(slow_at, std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":2", slow_at), std::string::npos);

  // A sampled AND slow trace lands in both surfaces.
  EXPECT_TRUE(store.Record(MakeTrace(3, 9000), /*sampled=*/true));
  EXPECT_EQ(store.recorded(), 1u);
  EXPECT_EQ(store.slow_recorded(), 2u);
  // Disabling stops slow capture without clearing history.
  store.SetSlowThresholdUs(0);
  EXPECT_FALSE(store.Record(MakeTrace(4, 9000), /*sampled=*/false));
  EXPECT_EQ(store.slow_recorded(), 2u);
}

}  // namespace
}  // namespace cpdb::obs
