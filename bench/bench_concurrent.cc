// Closed-loop multi-session driver for the service layer: N curator
// threads run transactions against ONE shared engine (src/service/),
// sweeping thread count x transaction length.
//
// What to look at:
//  * fsyncs_per_commit — the group-commit combining factor. At one
//    thread every commit pays its own fsync (ratio 1.0); with concurrent
//    committers the leader seals whole cohorts under one fsync and the
//    ratio drops below 1 (the PRISM-style opportunistic-combining win).
//  * commits_per_sec / ops_per_sec — real wall-clock throughput of the
//    closed loop (these are NOT simulated costs; the modelled round-trip
//    counters are reported alongside from the engine's cost aggregate).
//  * p50/p99_commit_us — real commit latency, including the queue wait
//    and the cohort's shared fsync.
//
// Runs durably by default because fsync combining is the point. The WAL
// lives in a mkdtemp scratch directory removed on exit (--durable=auto);
// --durable=DIR pins a directory (left behind for inspection), and
// --durable= (empty) measures the in-memory engine, where fsyncs are
// structurally zero.
//
// Each row also carries the engine's own stage-latency breakdown (queue
// wait, cohort apply, seal, wake; WAL fsync; exclusive-latch wait) read
// from the obs metrics registry, so BENCH_concurrent.json shows WHERE
// commit time went, not just how much there was.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cpdb/cpdb.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workload/zipf.h"

namespace {

using namespace cpdb;
using namespace cpdb::bench;
using tree::Path;
using update::Script;
using update::Update;

std::vector<size_t> ParseSizeList(const std::string& text,
                                  std::vector<size_t> def) {
  std::vector<size_t> out;
  std::string cur;
  for (char c : text + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::stoul(cur));
      cur.clear();
    } else if (c >= '0' && c <= '9') {
      cur += c;
    }
  }
  return out.empty() ? def : out;
}

provenance::Strategy ParseStrategy(const std::string& s) {
  if (s == "N") return provenance::Strategy::kNaive;
  if (s == "H") return provenance::Strategy::kHierarchical;
  if (s == "T") return provenance::Strategy::kTransactional;
  return provenance::Strategy::kHierarchicalTransactional;
}

bool PerOp(provenance::Strategy s) {
  return s == provenance::Strategy::kNaive ||
         s == provenance::Strategy::kHierarchical;
}

/// Transaction `txn` of thread `thread`: exactly `txn_len` update
/// operations inside the thread's own subtree T/t<thread> (disjoint
/// across threads — the curator model the service layer is exact for).
Script MakeTxn(size_t thread, size_t txn, size_t txn_len) {
  std::string root = "t" + std::to_string(thread);
  Path base = Path::MustParse("T").Child(root);
  Script script;
  if (txn == 0) {
    script.push_back(Update::Insert(Path::MustParse("T"), root));
    if (script.size() == txn_len) return script;
  }
  std::string n = "n" + std::to_string(txn);
  script.push_back(Update::Insert(base, n));
  while (script.size() < txn_len) {
    script.push_back(Update::Insert(
        base.Child(n), "f" + std::to_string(script.size()),
        tree::Value(static_cast<int64_t>(txn * 1000 + script.size()))));
  }
  return script;
}

/// How a transaction picks the node it edits. kSeq is the historical
/// default — txn i always creates the fresh node n<i> — and stays
/// byte-identical so the CI fsync/commit pins keep meaning the same
/// thing. kUniform/kZipf edit a bounded key space of --keys nodes per
/// thread, with kZipf concentrating edits on hot ranks (--theta): the
/// curator hot-record pattern the network load rig also models.
enum class KeyDist { kSeq, kUniform, kZipf };

/// Skewed variant of MakeTxn: the edited node is n<key> (possibly
/// revisited). Field labels carry the txn number so revisiting a hot
/// node adds fresh fields instead of colliding with an earlier insert.
Script MakeSkewedTxn(size_t thread, size_t txn, size_t txn_len, uint64_t key,
                     std::unordered_set<uint64_t>* created) {
  std::string root = "t" + std::to_string(thread);
  Path base = Path::MustParse("T").Child(root);
  Script script;
  if (txn == 0) {
    script.push_back(Update::Insert(Path::MustParse("T"), root));
    if (script.size() == txn_len) return script;
  }
  std::string n = "n" + std::to_string(key);
  if (created->insert(key).second) {
    script.push_back(Update::Insert(base, n));
    if (script.size() == txn_len) return script;
  }
  size_t k = 0;
  while (script.size() < txn_len) {
    script.push_back(Update::Insert(
        base.Child(n), "f" + std::to_string(txn) + "_" + std::to_string(k++),
        tree::Value(static_cast<int64_t>(txn * 1000 + script.size()))));
  }
  return script;
}

struct RunResult {
  size_t commits = 0;
  size_t ops = 0;
  double wall_ms = 0;
  size_t fsyncs = 0;
  size_t log_bytes = 0;
  // Engine registry counters and gauges (group commit, snapshots).
  size_t cohorts = 0, combined = 0, max_cohort = 0;
  size_t snapshot_rebuilds = 0, snapshot_rebuild_rows = 0;
  size_t sessions_built = 0;
  size_t sessions_refreshed = 0;
  relstore::CostSnapshot cost;  ///< engine aggregate over all sessions
  Percentiles commit_us;        ///< client-observed commit latency
  /// Engine-side stage breakdown (obs registry; per-run histograms).
  obs::Histogram::Snapshot stage_queue, stage_apply, stage_seal, stage_wake;
  obs::Histogram::Snapshot wal_fsync, latch_excl;
};

RunResult RunOnce(provenance::Strategy strategy, size_t threads,
                  size_t txn_len, size_t txns_per_thread,
                  const std::string& durable_dir, KeyDist dist, double theta,
                  uint64_t keys) {
  RunResult res;
  std::unique_ptr<relstore::Database> db;
  if (durable_dir.empty()) {
    db = std::make_unique<relstore::Database>("provdb");
  } else {
    std::error_code ec;
    std::filesystem::remove_all(durable_dir, ec);
    auto opened = relstore::Database::Open("provdb", durable_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "durable open: %s\n",
                   opened.status().ToString().c_str());
      std::exit(2);
    }
    db = std::move(opened).value();
  }
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", workload::GenMimiLike(200, 7));
  service::Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = strategy;
  service::SessionPool pool(&engine, opts);

  const storage::DurabilityStats durable0 = DurableStats(db.get());

  std::vector<std::vector<double>> latencies(threads);
  Stopwatch wall;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto acquired = pool.Acquire();
      if (!acquired.ok()) {
        std::fprintf(stderr, "acquire: %s\n",
                     acquired.status().ToString().c_str());
        std::exit(2);
      }
      std::unique_ptr<service::Session> session = std::move(*acquired);
      latencies[t].reserve(txns_per_thread);
      // theta=0 degenerates to uniform, so one sampler covers both
      // non-sequential distributions. Seeded per thread: reproducible,
      // but threads do not march over identical rank sequences.
      workload::ZipfGenerator sampler(
          keys, dist == KeyDist::kZipf ? theta : 0.0, 0x5EEDu + t);
      std::unordered_set<uint64_t> created;
      for (size_t i = 0; i < txns_per_thread; ++i) {
        Script script =
            dist == KeyDist::kSeq
                ? MakeTxn(t, i, txn_len)
                : MakeSkewedTxn(t, i, txn_len, sampler.NextScrambled(),
                                &created);
        Status st;
        Stopwatch commit_clock;
        if (PerOp(strategy)) {
          // The staged script IS the group-committed unit for N/H.
          st = session->ApplyScript(script);
        } else {
          st = session->ApplyScript(script);
          if (st.ok()) {
            commit_clock.Restart();
            st = session->Commit();
          }
        }
        if (!st.ok()) {
          std::fprintf(stderr, "txn: %s\n", st.ToString().c_str());
          std::exit(2);
        }
        latencies[t].push_back(commit_clock.ElapsedMicros());
      }
      pool.Release(std::move(session));
    });
  }
  for (auto& th : workers) th.join();
  res.wall_ms = wall.ElapsedMillis();

  res.commits = threads * txns_per_thread;
  res.ops = res.commits * txn_len;
  const storage::DurabilityStats durable1 = DurableStats(db.get());
  res.fsyncs = durable1.fsyncs - durable0.fsyncs;
  res.log_bytes = durable1.log_bytes - durable0.log_bytes;
  obs::Registry& reg = engine.metrics();
  auto count = [&reg](const char* name) {
    return static_cast<size_t>(reg.GetCounter(name, "")->Value());
  };
  auto level = [&reg](const char* name) {
    return static_cast<size_t>(reg.GetGauge(name, "")->Value());
  };
  res.cohorts = count("cpdb_cohorts_total");
  res.combined = count("cpdb_combined_total");
  res.max_cohort = level("cpdb_max_cohort");
  res.snapshot_rebuilds = count("cpdb_snapshot_rebuilds_total");
  res.snapshot_rebuild_rows = count("cpdb_snapshot_rebuild_rows_total");
  res.sessions_built = count("cpdb_sessions_built_total");
  res.sessions_refreshed = count("cpdb_sessions_refreshed_total");
  res.cost = engine.cost_totals().Snap();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  res.commit_us = ComputePercentiles(&all);

  // Engine-side stage breakdown. The histograms are per-run objects (one
  // registry per engine), so plain Snap() is already run-scoped.
  auto stage = [&](const char* labels) {
    return engine.metrics()
        .GetHistogram("cpdb_commit_stage_us", "", labels)
        ->Snap();
  };
  res.stage_queue = stage("stage=\"queue\"");
  res.stage_apply = stage("stage=\"apply\"");
  res.stage_seal = stage("stage=\"seal\"");
  res.stage_wake = stage("stage=\"wake\"");
  res.wal_fsync = engine.metrics().GetHistogram("cpdb_wal_fsync_us", "")->Snap();
  res.latch_excl =
      engine.metrics().GetHistogram("cpdb_latch_excl_wait_us", "")->Snap();

  Status closed = db->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "close: %s\n", closed.ToString().c_str());
    std::exit(2);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<size_t> thread_counts =
      ParseSizeList(flags.GetString("threads", "1,2,4,8"), {1, 2, 4, 8});
  std::vector<size_t> txn_lens =
      ParseSizeList(flags.GetString("txn-lens", "2,8"), {2, 8});
  size_t txns = static_cast<size_t>(flags.GetInt("txns", 100));
  provenance::Strategy strategy =
      ParseStrategy(flags.GetString("strategy", "HT"));
  std::string durable_dir = flags.GetString("durable", "auto");
  // "auto" (the default) keeps the WAL out of the checkout: a mkdtemp
  // scratch dir that the RAII handle removes on exit, litter-free even
  // when a sweep aborts mid-run.
  std::unique_ptr<ScratchDir> scratch;
  if (durable_dir == "auto") {
    scratch = std::make_unique<ScratchDir>("bench-concurrent");
    durable_dir = scratch->path() + "/wal";
  }
  std::string dist_name = flags.GetString("dist", "seq");
  KeyDist dist;
  if (dist_name == "seq") {
    dist = KeyDist::kSeq;
  } else if (dist_name == "uniform") {
    dist = KeyDist::kUniform;
  } else if (dist_name == "zipf") {
    dist = KeyDist::kZipf;
  } else {
    std::fprintf(stderr, "--dist must be seq, uniform, or zipf\n");
    return 2;
  }
  double theta = flags.GetDouble("theta", 0.99);
  uint64_t keys =
      static_cast<uint64_t>(std::max<int64_t>(1, flags.GetInt("keys", 1000)));

  JsonReport report("concurrent");
  report.config()
      .Set("strategy", provenance::StrategyShortName(strategy))
      .Set("txns_per_thread", txns)
      .Set("durable", !durable_dir.empty());
  // The distribution knobs appear in the config only when they are in
  // play, so a default (seq) run's config names no distribution.
  if (dist != KeyDist::kSeq) {
    report.config().Set("dist", dist_name).Set("keys", keys);
    if (dist == KeyDist::kZipf) report.config().Set("theta", theta);
  }

  PrintHeader("Service layer",
              "multi-session group commit (closed loop, real time)");
  std::printf("strategy=%s txns/thread=%zu durable=%s\n",
              provenance::StrategyShortName(strategy), txns,
              durable_dir.empty() ? "no" : durable_dir.c_str());
  if (dist != KeyDist::kSeq) {
    std::printf("dist=%s keys=%llu%s\n", dist_name.c_str(),
                static_cast<unsigned long long>(keys),
                dist == KeyDist::kZipf
                    ? (" theta=" + std::to_string(theta)).c_str()
                    : "");
  }
  std::printf("\n");
  std::printf("%-8s %-8s %9s %10s %8s %10s %9s %10s %10s %10s\n", "threads",
              "txn-len", "commits", "commits/s", "fsyncs", "fsync/cmt",
              "maxcohort", "p50(us)", "p99(us)", "p999(us)");

  for (size_t threads : thread_counts) {
    for (size_t txn_len : txn_lens) {
      RunResult r = RunOnce(strategy, threads, txn_len, txns, durable_dir,
                            dist, theta, keys);
      double commits_per_sec =
          r.wall_ms <= 0 ? 0 : r.commits / (r.wall_ms / 1000.0);
      double fsyncs_per_commit =
          r.commits == 0 ? 0 : static_cast<double>(r.fsyncs) / r.commits;
      std::printf(
          "%-8zu %-8zu %9zu %10.0f %8zu %10.3f %9zu %10.1f %10.1f %10.1f\n",
          threads, txn_len, r.commits, commits_per_sec, r.fsyncs,
          fsyncs_per_commit, r.max_cohort,
          r.commit_us.p50, r.commit_us.p99, r.commit_us.p999);
      JsonDict& row = report.AddRow();
      row.Set("threads", threads)
          .Set("txn_len", txn_len)
          .Set("commits", r.commits)
          .Set("ops", r.ops)
          .Set("wall_ms", r.wall_ms)
          .Set("commits_per_sec", commits_per_sec)
          .Set("ops_per_sec",
               r.wall_ms <= 0 ? 0.0 : r.ops / (r.wall_ms / 1000.0))
          .Set("fsyncs", r.fsyncs)
          .Set("fsyncs_per_commit", fsyncs_per_commit)
          .Set("log_bytes", r.log_bytes)
          .Set("cohorts", r.cohorts)
          .Set("combined_commits", r.combined)
          .Set("max_cohort", r.max_cohort)
          .Set("p50_commit_us", r.commit_us.p50)
          .Set("p99_commit_us", r.commit_us.p99)
          .Set("p999_commit_us", r.commit_us.p999)
          .Set("round_trips", r.cost.calls)
          .Set("rows_moved", r.cost.rows)
          .Set("write_round_trips", r.cost.write_calls)
          .Set("write_rows", r.cost.write_rows)
          .Set("snapshot_rebuilds", r.snapshot_rebuilds)
          .Set("snapshot_rebuild_rows", r.snapshot_rebuild_rows)
          .Set("sessions_built", r.sessions_built)
          .Set("sessions_refreshed", r.sessions_refreshed);
      // Engine-side stage breakdown (obs registry histograms): where the
      // p99 above was spent. Bucketed percentiles (~2x resolution).
      auto stage_cols = [&](const char* prefix,
                            const obs::Histogram::Snapshot& s) {
        row.Set(std::string(prefix) + "_p50_us", s.Percentile(0.50))
            .Set(std::string(prefix) + "_p99_us", s.Percentile(0.99))
            .Set(std::string(prefix) + "_mean_us", s.MeanMicros());
      };
      stage_cols("stage_queue", r.stage_queue);
      stage_cols("stage_apply", r.stage_apply);
      stage_cols("stage_seal", r.stage_seal);
      stage_cols("stage_wake", r.stage_wake);
      stage_cols("wal_fsync", r.wal_fsync);
      stage_cols("latch_excl_wait", r.latch_excl);
    }
  }

  report.WriteTo(flags.GetString("json", ""));
  return 0;
}
