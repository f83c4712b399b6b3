#include "obs/report.h"

namespace cpdb::obs {

void Reporter::Start() {
  {
    MutexLock l(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  base_ = registry_->TakeSample();
  base_us_ = NowMicros();
  thread_ = std::thread([this] { Loop(); });
}

void Reporter::Stop() {
  {
    MutexLock l(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
  MutexLock l(mu_);
  running_ = false;
}

std::vector<std::string> Reporter::Rows() const {
  MutexLock l(mu_);
  return rows_;
}

void Reporter::FoldWindow(const Sample& prev, const Sample& cur, uint64_t seq,
                          double window_ms) {
  std::string delta = Registry::DeltaJson(prev, cur);
  // Splice the window metadata into the delta object: {"interval_seq":N,
  // "interval_ms":W, <delta fields>}.
  std::string row = "{\"interval_seq\":";
  AppendJsonNumber(&row, static_cast<double>(seq));
  row.append(",\"interval_ms\":");
  AppendJsonNumber(&row, window_ms);
  if (delta.size() > 2) {  // non-empty object: skip its '{'
    row.push_back(',');
    row.append(delta, 1, delta.size() - 1);
  } else {
    row.push_back('}');
  }
  MutexLock l(mu_);
  rows_.push_back(std::move(row));
}

void Reporter::Loop() {
  Sample prev = std::move(base_);
  double prev_us = base_us_;
  uint64_t seq = 0;
  for (;;) {
    bool stopping;
    {
      MutexLock l(mu_);
      if (!stop_) cv_.WaitFor(mu_, interval_ms_);
      stopping = stop_;
    }
    Sample cur = registry_->TakeSample();
    double now_us = NowMicros();
    double window_ms = (now_us - prev_us) / 1000.0;
    // On stop this is the final partial window, folded however short:
    // ticks recorded just before Stop() belong to it.
    FoldWindow(prev, cur, seq++, window_ms);
    if (stopping) return;
    prev = std::move(cur);
    prev_us = now_us;
  }
}

}  // namespace cpdb::obs
