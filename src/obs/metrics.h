#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cpdb::obs {

/// Monotonic microsecond clock for latency measurement (steady, never
/// steps backwards). One call ~20ns; cheap enough for the commit path.
double NowMicros();

/// Lock-free monotonic counter. Record paths are one relaxed fetch_add;
/// readers see a value that is never behind what they already observed
/// through another metric (per-metric monotonicity, not cross-metric
/// ordering — scrapes are statistical, not transactional).
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Lock-free gauge (a value that can go both ways).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket log-scale latency histogram.
///
/// Buckets are powers of two in MICROSECONDS: bucket 0 holds values in
/// [0, 1us), bucket i holds [2^(i-1), 2^i) us, and the last bucket is the
/// +Inf overflow. 28 buckets cover 1us .. ~67s — WAL fsyncs, queue waits,
/// and whole-cohort applies all land mid-range with ~2x resolution, which
/// is what a log-scale latency histogram is for (exact percentiles stay
/// the benches' job; see bench/harness.h).
///
/// Record() is wait-free: one bit-scan plus two relaxed fetch_adds, no
/// locks, safe from any thread (the TSan-labeled obs stress test hammers
/// one histogram from 8 threads). Snapshots are point-in-time copies.
class Histogram {
 public:
  static constexpr size_t kBuckets = 28;

  void Record(double value_us) {
    size_t b = BucketOf(value_us);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(value_us <= 0
                          ? 0
                          : static_cast<uint64_t>(value_us * 1000.0),
                      std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// q in [0,1]. Linear interpolation inside the winning bucket; exact
    /// enough for p50/p99/p999 at 2x bucket resolution. 0 when empty.
    double Percentile(double q) const;
    double SumMicros() const { return static_cast<double>(sum_ns) / 1000.0; }
    double MeanMicros() const {
      return count == 0 ? 0.0 : SumMicros() / static_cast<double>(count);
    }
  };

  Snapshot Snap() const;

  /// Upper bound (exclusive) of bucket `i` in us; +Inf for the last.
  static double BucketUpperUs(size_t i);

  static size_t BucketOf(double value_us) {
    if (value_us < 1.0) return 0;
    uint64_t v = static_cast<uint64_t>(value_us);
    // floor(log2(v)) via bit width; bucket i covers [2^(i-1), 2^i).
    size_t b = 1;
    while (v >>= 1) ++b;
    return b >= kBuckets ? kBuckets - 1 : b;
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// The metrics registry: the ONE typed surface every subsystem exports
/// through (cpdb_lint's OBS-METRICS rule bans ad-hoc atomic counters in
/// src/service and src/net so this cannot silently drift from reality).
///
/// Each metric has one name, its Prometheus series name (+ optional
/// label set), and one rendering, the text exposition (RenderPrometheus)
/// that the `METRICS` wire verb returns.
///
/// Registration is mutex-guarded and idempotent (same name+labels+kind
/// returns the same object); record paths on the returned objects are
/// lock-free. Callbacks re-registered under the same identity replace
/// the previous function (a restarted Server re-binds its gauges).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `name` is the Prometheus series name (e.g. "cpdb_commits_total"),
  /// `labels` an optional `k="v"[,...]` set rendered inside the braces.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "") CPDB_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "") CPDB_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::string& labels = "") CPDB_EXCLUDES(mu_);

  /// A metric whose value is computed at scrape time — the bridge for
  /// state that already has an owner (queue stats, pool counters,
  /// durability stats). `monotonic` selects counter vs gauge semantics.
  void SetCallback(const std::string& name, const std::string& help,
                   bool monotonic, std::function<double()> fn,
                   const std::string& labels = "") CPDB_EXCLUDES(mu_);

  /// Prometheus text exposition format, one HELP/TYPE block per series
  /// name, histograms as cumulative `_bucket{le=...}` + `_sum`/`_count`.
  std::string RenderPrometheus() const CPDB_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Metric {
    std::string name;
    std::string labels;
    std::string help;
    Kind kind;
    bool monotonic = false;  ///< callbacks only
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    std::function<double()> fn;
  };

  Metric* Find(const std::string& name, const std::string& labels)
      CPDB_REQUIRES(mu_);
  /// Appends a new metric of `kind` with no sink yet; the caller sets it.
  Metric* Add(const std::string& name, const std::string& labels,
              const std::string& help, Kind kind) CPDB_REQUIRES(mu_);

  mutable Mutex mu_;
  /// Registration order preserved: exposition groups by first-seen name.
  std::vector<std::unique_ptr<Metric>> metrics_ CPDB_GUARDED_BY(mu_);
};

/// Appends one JSON number, trimming to integer rendering when the value
/// is integral (span JSON and the exposition's sample values).
void AppendJsonNumber(std::string* out, double v);

}  // namespace cpdb::obs
