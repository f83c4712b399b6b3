#include "service/engine.h"

namespace cpdb::service {

void Engine::WireMetrics() {
  // --- Commit-pipeline latency histograms (sinks wired into the layers
  // that own the measured sections; see each set_metrics contract).
  latch_.set_metrics(
      metrics_.GetHistogram("cpdb_latch_shared_wait_us",
                            "Contended shared-latch acquire wait (us)"),
      metrics_.GetHistogram("cpdb_latch_excl_wait_us",
                            "Exclusive-latch acquire wait (us) - the "
                            "group-commit combining window"));

  CommitQueue::Metrics qm;
  auto stage = [this](const char* name) {
    return metrics_.GetHistogram("cpdb_commit_stage_us",
                                 "Commit pipeline stage duration (us)",
                                 std::string("stage=\"") + name + "\"");
  };
  qm.queue_us = stage("queue");
  qm.apply_us = stage("apply");
  qm.seal_us = stage("seal");
  qm.wake_us = stage("wake");
  qm.total_us = stage("total");
  qm.cohort_size = metrics_.GetHistogram("cpdb_commit_cohort_size",
                                         "Members per group-commit cohort");

  const bool durable = backend_->db()->durable();
  if (durable) {
    backend_->db()->durability()->SetMetricSinks(
        metrics_.GetHistogram("cpdb_wal_append_us",
                              "WAL record append wall time (us)"),
        metrics_.GetHistogram("cpdb_wal_fsync_us",
                              "WAL fsync barrier wall time (us)"));
  }

  // --- Counters and gauges stored in the registry and bumped by the
  // layer that does the counted work, plus scrape-time callbacks over
  // state that already has one owner. The session pool and the network
  // server register the counters they bump themselves.
  metrics_.SetCallback(
      "cpdb_commit_queue_depth", "Committers enqueued behind the leader",
      false, [this] { return static_cast<double>(CommitQueueDepth()); });
  qm.commits = metrics_.GetCounter("cpdb_commits_total",
                                   "Transactions committed");
  qm.cohorts = metrics_.GetCounter("cpdb_cohorts_total",
                                   "Group-commit cohorts sealed");
  qm.combined = metrics_.GetCounter("cpdb_combined_total",
                                    "Commits that rode another leader's seal");
  qm.max_cohort = metrics_.GetGauge("cpdb_max_cohort",
                                    "Largest cohort sealed so far");
  queue_.set_metrics(qm);
  metrics_.SetCallback(
      "cpdb_last_tid", "Largest transaction id allocated", false,
      [this] { return static_cast<double>(LastAllocatedTid()); });
  metrics_.SetCallback(
      "cpdb_committed_tid", "Committed-state watermark tid", false,
      [this] { return static_cast<double>(CommittedTid()); });
  metrics_.SetCallback(
      "cpdb_traces_recorded_total", "Sampled request trace trees recorded",
      true, [this] { return static_cast<double>(spans_.recorded()); });
  metrics_.SetCallback("cpdb_durable", "1 when a durability engine is attached",
                       false, [durable] { return durable ? 1.0 : 0.0; });
  if (durable) {
    // Absent entirely on in-memory engines: a scraper should see no
    // series, not zeros.
    metrics_.SetCallback("cpdb_fsyncs_total", "fsync barriers issued", true,
                         [this] {
                           return static_cast<double>(
                               db()->durability()->stats().fsyncs);
                         });
    metrics_.SetCallback("cpdb_log_bytes_total", "Bytes appended to the WAL",
                         true, [this] {
                           return static_cast<double>(
                               db()->durability()->stats().log_bytes);
                         });
    metrics_.SetCallback("cpdb_replayed_commits_total",
                         "Log records recovery applied", true, [this] {
                           return static_cast<double>(
                               db()->durability()->stats().replayed_commits);
                         });
  }
}

}  // namespace cpdb::service
