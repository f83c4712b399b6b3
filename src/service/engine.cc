#include "service/engine.h"

namespace cpdb::service {

void Engine::WireMetrics() {
  // --- Commit-pipeline latency histograms (sinks wired into the layers
  // that own the measured sections; see each set_metrics contract).
  latch_.set_metrics(
      metrics_.GetHistogram("cpdb_latch_shared_wait_us",
                            "Contended shared-latch acquire wait (us)", "",
                            "latch_shared_wait_us"),
      metrics_.GetHistogram("cpdb_latch_excl_wait_us",
                            "Exclusive-latch acquire wait (us) - the "
                            "group-commit combining window",
                            "", "latch_excl_wait_us"));

  CommitQueue::Metrics qm;
  qm.queue_us =
      metrics_.GetHistogram("cpdb_commit_stage_us",
                            "Commit pipeline stage duration (us)",
                            "stage=\"queue\"", "commit_queue_us");
  qm.apply_us = metrics_.GetHistogram("cpdb_commit_stage_us",
                                      "Commit pipeline stage duration (us)",
                                      "stage=\"apply\"", "commit_apply_us");
  qm.seal_us = metrics_.GetHistogram("cpdb_commit_stage_us",
                                     "Commit pipeline stage duration (us)",
                                     "stage=\"seal\"", "commit_seal_us");
  qm.wake_us = metrics_.GetHistogram("cpdb_commit_stage_us",
                                     "Commit pipeline stage duration (us)",
                                     "stage=\"wake\"", "commit_wake_us");
  qm.total_us = metrics_.GetHistogram("cpdb_commit_stage_us",
                                      "Commit pipeline stage duration (us)",
                                      "stage=\"total\"", "commit_total_us");
  qm.cohort_size = metrics_.GetHistogram(
      "cpdb_commit_cohort_size", "Members per group-commit cohort", "",
      "cohort_size");

  if (backend_->db()->durable()) {
    backend_->db()->durability()->SetMetricSinks(
        metrics_.GetHistogram("cpdb_wal_append_us",
                              "WAL record append wall time (us)", "",
                              "wal_append_us"),
        metrics_.GetHistogram("cpdb_wal_fsync_us",
                              "WAL fsync barrier wall time (us)", "",
                              "wal_fsync_us"));
  }

  // --- Counters and gauges stored in the registry and bumped by the
  // layer that does the counted work, plus scrape-time callbacks over
  // state that already has one owner. The json_key names are the STATS
  // contract (OPERATOR_GUIDE.md), and registration order is its field
  // order: the server's StatsJson() renders from this registry, so the
  // names here ARE the wire fields.
  auto counter = [this](const char* name, const char* help,
                        const char* json_key) {
    return metrics_.GetCounter(name, help, "", json_key);
  };
  auto gauge = [this](const char* name, const char* help,
                      const char* json_key) {
    return metrics_.GetGauge(name, help, "", json_key);
  };
  auto cb = [this](const char* name, const char* help, bool monotonic,
                   std::function<double()> fn, const char* json_key) {
    metrics_.SetCallback(name, help, monotonic, std::move(fn), "", json_key);
  };
  cb("cpdb_commit_queue_depth", "Committers enqueued behind the leader",
     false, [this] { return static_cast<double>(CommitQueueDepth()); },
     "queue_depth");
  qm.commits = counter("cpdb_commits_total", "Transactions committed",
                       "commits");
  qm.cohorts = counter("cpdb_cohorts_total", "Group-commit cohorts sealed",
                       "cohorts");
  qm.combined = counter("cpdb_combined_total",
                        "Commits that rode another leader's seal", "combined");
  qm.max_cohort = gauge("cpdb_max_cohort", "Largest cohort sealed so far",
                        "max_cohort");
  queue_.set_metrics(qm);
  cb("cpdb_last_tid", "Largest transaction id allocated", false,
     [this] { return static_cast<double>(LastAllocatedTid()); }, "last_tid");
  cb("cpdb_committed_tid", "Committed-state watermark tid", false,
     [this] { return static_cast<double>(CommittedTid()); }, "committed_tid");
  cb("cpdb_latch_epoch", "Exclusive latch sections completed", false,
     [this] { return static_cast<double>(latch_.Epoch()); }, "epoch");
  // The snapshot counters are bumped by the session pool, which takes
  // the snapshots; they are registered here to keep their STATS position.
  counter("cpdb_snapshot_rebuilds_total", "Snapshots taken from the target",
          "snapshot_rebuilds");
  counter("cpdb_snapshot_rebuild_rows_total",
          "Rows the target shipped for snapshots", "snapshot_rebuild_rows");
  // The two slow counters are bumped by the network server, which knows
  // whether a slow span tree was a write or a read; they are registered
  // here to keep their STATS position.
  counter("cpdb_slow_commits_total",
          "APPLY/COMMIT requests past the --slow-ms threshold",
          "slow_commits");
  cb("cpdb_traces_recorded_total", "Sampled request trace trees recorded",
     true, [this] { return static_cast<double>(spans_.recorded()); },
     "traces_recorded");
  counter("cpdb_slow_queries_total",
          "Read requests past the --slow-ms threshold", "slow_queries");
  const bool durable = backend_->db()->durable();
  cb("cpdb_durable", "1 when a durability engine is attached", false,
     [durable] { return durable ? 1.0 : 0.0; }, "durable");
  if (durable) {
    // Absent entirely on in-memory engines — STATS omits the durability
    // fields there, and a scraper should see no series, not zeros.
    cb("cpdb_fsyncs_total", "fsync barriers issued", true,
       [this] {
         return static_cast<double>(db()->durability()->stats().fsyncs);
       },
       "fsyncs");
    cb("cpdb_log_bytes_total", "Bytes appended to the WAL", true,
       [this] {
         return static_cast<double>(db()->durability()->stats().log_bytes);
       },
       "log_bytes");
    cb("cpdb_replayed_commits_total", "Log records recovery applied", true,
       [this] {
         return static_cast<double>(
             db()->durability()->stats().replayed_commits);
       },
       "replayed_commits");
  }
}

}  // namespace cpdb::service
