#include "obs/metrics.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace cpdb::obs {

double NowMicros() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::micro>(
             clock::now().time_since_epoch())
      .count();
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the buckets.
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= rank) {
      double lo = i == 0 ? 0.0 : BucketUpperUs(i - 1);
      double hi = BucketUpperUs(i);
      if (std::isinf(hi)) return lo;  // overflow bucket: report its floor
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
    seen = next;
  }
  return BucketUpperUs(kBuckets - 2);  // unreachable when count > 0
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

double Histogram::BucketUpperUs(size_t i) {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return static_cast<double>(uint64_t{1} << i);
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");
    return;
  }
  char buf[64];
  // Counters and gauges come through as integral doubles; render them as
  // integers, so a counter reads "cpdb_commits_total 12", not "12.000".
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  out->append(buf);
}

namespace {

void AppendPromNumber(std::string* out, double v) {
  if (std::isinf(v)) {
    out->append(v > 0 ? "+Inf" : "-Inf");
    return;
  }
  AppendJsonNumber(out, v);
}

/// `name{labels}` or bare `name`; `extra` splices histogram `le` labels
/// next to the user labels.
void AppendSeries(std::string* out, const std::string& name,
                  const std::string& labels, const std::string& extra = "") {
  out->append(name);
  if (!labels.empty() || !extra.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra.empty()) out->push_back(',');
    out->append(extra);
    out->push_back('}');
  }
}

}  // namespace

Registry::Metric* Registry::Find(const std::string& name,
                                 const std::string& labels) {
  for (auto& m : metrics_) {
    if (m->name == name && m->labels == labels) return m.get();
  }
  return nullptr;
}

Registry::Metric* Registry::Add(const std::string& name,
                                const std::string& labels,
                                const std::string& help, Kind kind) {
  auto m = std::make_unique<Metric>();
  m->name = name;
  m->labels = labels;
  m->help = help;
  m->kind = kind;
  metrics_.push_back(std::move(m));
  return metrics_.back().get();
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              const std::string& labels) {
  MutexLock l(mu_);
  Metric* m = Find(name, labels);
  if (m == nullptr) {
    m = Add(name, labels, help, Kind::kCounter);
    m->counter = std::make_unique<Counter>();
  }
  return m->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const std::string& labels) {
  MutexLock l(mu_);
  Metric* m = Find(name, labels);
  if (m == nullptr) {
    m = Add(name, labels, help, Kind::kGauge);
    m->gauge = std::make_unique<Gauge>();
  }
  return m->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  MutexLock l(mu_);
  Metric* m = Find(name, labels);
  if (m == nullptr) {
    m = Add(name, labels, help, Kind::kHistogram);
    m->hist = std::make_unique<Histogram>();
  }
  return m->hist.get();
}

void Registry::SetCallback(const std::string& name, const std::string& help,
                           bool monotonic, std::function<double()> fn,
                           const std::string& labels) {
  MutexLock l(mu_);
  // Re-registration rebinds: a restarted Server (tests spin several up
  // against one Engine) replaces its predecessor's dangling closure.
  Metric* m = Find(name, labels);
  if (m == nullptr) m = Add(name, labels, help, Kind::kCallback);
  m->fn = std::move(fn);
  m->monotonic = monotonic;
}

std::string Registry::RenderPrometheus() const {
  MutexLock l(mu_);
  std::string out;
  out.reserve(4096);
  // HELP/TYPE once per series name, at its first occurrence; later
  // metrics with the same name (other label sets) append bare samples.
  auto first_of_name = [&](size_t idx) {
    for (size_t j = 0; j < idx; ++j) {
      if (metrics_[j]->name == metrics_[idx]->name) return false;
    }
    return true;
  };
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = *metrics_[i];
    if (first_of_name(i)) {
      out.append("# HELP ").append(m.name).append(" ").append(m.help);
      out.push_back('\n');
      out.append("# TYPE ").append(m.name).append(" ");
      switch (m.kind) {
        case Kind::kCounter:
          out.append("counter");
          break;
        case Kind::kHistogram:
          out.append("histogram");
          break;
        case Kind::kGauge:
          out.append("gauge");
          break;
        case Kind::kCallback:
          out.append(m.monotonic ? "counter" : "gauge");
          break;
      }
      out.push_back('\n');
    }
    switch (m.kind) {
      case Kind::kCounter: {
        AppendSeries(&out, m.name, m.labels);
        out.push_back(' ');
        AppendPromNumber(&out, static_cast<double>(m.counter->Value()));
        out.push_back('\n');
        break;
      }
      case Kind::kGauge: {
        AppendSeries(&out, m.name, m.labels);
        out.push_back(' ');
        AppendPromNumber(&out, static_cast<double>(m.gauge->Value()));
        out.push_back('\n');
        break;
      }
      case Kind::kCallback: {
        AppendSeries(&out, m.name, m.labels);
        out.push_back(' ');
        AppendPromNumber(&out, m.fn ? m.fn() : 0.0);
        out.push_back('\n');
        break;
      }
      case Kind::kHistogram: {
        Histogram::Snapshot s = m.hist->Snap();
        uint64_t cum = 0;
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
          cum += s.buckets[b];
          std::string le = "le=\"";
          {
            std::string num;
            AppendPromNumber(&num, Histogram::BucketUpperUs(b));
            le.append(num);
          }
          le.push_back('"');
          AppendSeries(&out, m.name + "_bucket", m.labels, le);
          out.push_back(' ');
          AppendPromNumber(&out, static_cast<double>(cum));
          out.push_back('\n');
        }
        AppendSeries(&out, m.name + "_sum", m.labels);
        out.push_back(' ');
        // Prometheus histogram sums carry the native unit — the series
        // name ends in _us, so export microseconds.
        AppendPromNumber(&out, s.SumMicros());
        out.push_back('\n');
        AppendSeries(&out, m.name + "_count", m.labels);
        out.push_back(' ');
        AppendPromNumber(&out, static_cast<double>(s.count));
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

}  // namespace cpdb::obs
