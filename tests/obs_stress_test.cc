// Concurrency stress for the metrics primitives (runs under the `tsan`
// preset via the `concurrency` label): many threads hammer one
// histogram/counter/gauge, or the span store, while a scraper thread
// renders the registry (or TRACES) in a loop. The assertions are
// conservation laws — every recorded sample must be visible in the final
// snapshot — and the real check is ThreadSanitizer finding no race in
// the record paths or the render path.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cpdb::obs {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kPerThread = 20000;

TEST(ObsStressTest, ConcurrentRecordsAllLand) {
  Registry reg;
  Counter* counter = reg.GetCounter("cpdb_ops_total", "h", "", "ops");
  Gauge* gauge = reg.GetGauge("cpdb_level", "h", "", "level");
  Histogram* hist = reg.GetHistogram("cpdb_lat_us", "h", "", "lat_us");

  std::atomic<bool> stop{false};
  // Scraper: renders both surfaces concurrently with the writers. The
  // renders must be internally consistent enough to not crash or tear;
  // values are statistical by contract.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string p = reg.RenderPrometheus();
      std::string j = reg.RenderJson();
      EXPECT_NE(p.find("cpdb_ops_total"), std::string::npos);
      EXPECT_NE(j.find("\"ops\":"), std::string::npos);
    }
  });

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        hist->Record(static_cast<double>((t * kPerThread + i) % 4096));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(gauge->Value(), 0);  // equal +1/-1 thread counts
  Histogram::Snapshot s = hist->Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsStressTest, ConcurrentRegistrationIsIdempotent) {
  Registry reg;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        seen[t] = reg.GetCounter("cpdb_same_total", "h", "", "same");
        seen[t]->Inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), kThreads * 500u);
}

TEST(ObsStressTest, SpanStoreUnderConcurrentRecordAndRender) {
  // The one trace store carries commit traffic: every sampled or slow
  // write and read of a server lands here from its worker threads while
  // TRACES renders the rings.
  constexpr size_t kWriters = 4;
  constexpr size_t kTraces = 2000;
  constexpr size_t kSlowEvery = 100;  // slow trees also print to stderr
  SpanStore store(/*capacity=*/16, /*slow_capacity=*/8);
  store.SetSlowThresholdUs(1000);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = store.TracesJson(4);
      EXPECT_EQ(json.rfind("{\"slow_threshold_us\":1000,", 0), 0u) << json;
      EXPECT_EQ(json.back(), '}');
    }
  });
  std::vector<std::thread> writers;
  std::atomic<size_t> slow_seen{0};
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kTraces; ++i) {
        const bool slow = i % kSlowEvery == 0;
        SpanCollector col(TraceContext{t * kTraces + i + 1, 0, true});
        const uint64_t root =
            col.Open(t % 2 == 0 ? "server.COMMIT" : "server.GETMOD", 0);
        col.AppendTimed("commit.seal", root, 0, 1);
        col.Close(root);
        std::vector<Span> spans = col.Take();
        spans[0].dur_us = slow ? 5000 : 10;
        if (store.Record(std::move(spans), /*sampled=*/!slow)) {
          slow_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  // Conservation: every fast tree was sampled, every slow one captured.
  const size_t slow_total = kWriters * (kTraces / kSlowEvery);
  EXPECT_EQ(store.recorded(), kWriters * kTraces - slow_total);
  EXPECT_EQ(store.slow_recorded(), slow_total);
  EXPECT_EQ(slow_seen.load(), slow_total);
}

}  // namespace
}  // namespace cpdb::obs
