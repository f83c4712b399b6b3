#pragma once

// Shared driver for the figure benchmarks: runs a random curation
// workload (Table 1's configurations) against one provenance strategy and
// reports storage and simulated-time statistics.
//
// Times are *simulated* client/server interaction costs (see
// relstore::CostParams): the paper's CPDB measured wall-clock time
// dominated by JDBC/SOAP round trips, which an in-process reproduction
// cannot exhibit. The cost model charges each modelled round trip and
// each transferred row; magnitudes are scaled down ~1000x (450 ms per
// Timber update -> 450 us), so *ratios* — the content of Figures 9-13 —
// are comparable while absolute numbers are not.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cpdb/cpdb.h"
#include "util/flags.h"
#include "util/sim_clock.h"

namespace cpdb::bench {

// ----- Machine-readable output ---------------------------------------------
//
// Every figure bench accepts `--json=<path>` and, when it is set, writes
// one JSON document
//
//   {"bench": "<name>", "config": {...}, "rows": [{...}, ...]}
//
// with per-row counters (ops, simulated wall time, modelled round trips,
// bytes) so BENCH_*.json perf-trajectory tracking can diff runs across
// PRs. Keys are stable; values are JSON numbers or strings. Every report
// also carries three provenance-of-the-measurement fields — "git_sha"
// (env CPDB_GIT_SHA, "unknown" otherwise), "utc_timestamp", and "run_id"
// (env CPDB_RUN_ID, "local" otherwise) — so a checked-in BENCH_*.json
// says which commit and which run produced it (tools/bench/record.sh
// sets both env vars). Since the
// batched write path, the op-time benches (fig9/fig10/fig12) additionally
// report measured write round trips and write rows (the CostModel's
// write-side counters) for the provenance store and the target database,
// so write batching can be differenced across runs the same way fig13
// differences read round trips.

// ----- Percentiles ---------------------------------------------------------

/// The percentile set every bench reports. One definition so
/// bench_concurrent and cpdb_bench_client (and anything after them) agree
/// on what "p999" means and no rig drops a quantile the others report.
struct Percentiles {
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Nearest-rank percentile of an ALREADY SORTED sample vector.
inline double PercentileOf(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(sorted.size() - 1, idx)];
}

/// Sorts `samples` in place and returns p50/p99/p999.
inline Percentiles ComputePercentiles(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Percentiles p;
  p.p50 = PercentileOf(*samples, 0.50);
  p.p99 = PercentileOf(*samples, 0.99);
  p.p999 = PercentileOf(*samples, 0.999);
  return p;
}

// ----- Scratch directories -------------------------------------------------

/// RAII temp directory for benches that open a durable store: created
/// under $TMPDIR (mkdtemp, so concurrent runs never collide), removed —
/// WAL, checkpoint and all — when the object dies. Exists because the
/// durable benches used to default their WAL directory into the CWD and
/// leave it behind, littering the repo checkout after every run.
class ScratchDir {
 public:
  /// `tag` shows up in the directory name for post-mortem debuggability.
  explicit ScratchDir(const std::string& tag) {
    std::error_code ec;
    std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    if (ec) base = ".";
    std::string tmpl = (base / ("cpdb-" + tag + "-XXXXXX")).string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) {
      path_ = buf.data();
    } else {
      // Still give the caller a usable (if non-unique) path; the bench
      // wipes it before opening anyway.
      path_ = tmpl.substr(0, tmpl.size() - 7) + "fallback";
    }
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Insertion-ordered string->value map rendered as one JSON object.
class JsonDict {
 public:
  JsonDict& Set(const std::string& key, const std::string& v) {
    items_.emplace_back(key, "\"" + JsonEscape(v) + "\"");
    return *this;
  }
  JsonDict& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  JsonDict& Set(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    items_.emplace_back(key, buf);
    return *this;
  }
  JsonDict& Set(const std::string& key, size_t v) {
    items_.emplace_back(key, std::to_string(v));
    return *this;
  }
  JsonDict& Set(const std::string& key, int64_t v) {
    items_.emplace_back(key, std::to_string(v));
    return *this;
  }
  JsonDict& Set(const std::string& key, int v) {
    return Set(key, static_cast<int64_t>(v));
  }
  JsonDict& Set(const std::string& key, bool v) {
    items_.emplace_back(key, v ? "true" : "false");
    return *this;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(items_[i].first) + "\":" + items_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// One bench's report: a config dict plus one dict per measured row.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonDict& config() { return config_; }
  JsonDict& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Where/when this report was produced, as a JSON fragment
  /// `"git_sha":...,"utc_timestamp":...,"run_id":...`. git_sha and
  /// run_id come from the environment (record.sh exports them); the
  /// timestamp is computed here so even ad-hoc local runs are datable.
  static std::string MetaFragment() {
    const char* sha = std::getenv("CPDB_GIT_SHA");
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    char stamp[32] = "unknown";
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    const char* run = std::getenv("CPDB_RUN_ID");
    JsonDict meta;
    meta.Set("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown")
        .Set("utc_timestamp", stamp)
        .Set("run_id", run != nullptr && *run != '\0' ? run : "local");
    std::string obj = meta.ToString();  // "{...}" -> strip the braces
    return obj.substr(1, obj.size() - 2);
  }

  std::string ToString() const {
    std::string out = "{\"bench\":\"" + JsonEscape(bench_) + "\"";
    out += "," + MetaFragment();
    out += ",\"config\":" + config_.ToString();
    out += ",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ",";
      out += rows_[i].ToString();
    }
    out += "]}\n";
    return out;
  }

  /// Writes the report to `path`; a no-op (returning true) when `path` is
  /// empty, so benches can call it unconditionally.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string body = ToString();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("\nJSON report written to %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  JsonDict config_;
  std::vector<JsonDict> rows_;
};

struct RunConfig {
  provenance::Strategy strategy = provenance::Strategy::kNaive;
  workload::Pattern pattern = workload::Pattern::kMix;
  workload::DeletePolicy delete_policy = workload::DeletePolicy::kRandom;
  bool include_deletes = true;
  size_t steps = 3500;
  size_t txn_len = 5;  ///< commit every N ops (paper default)
  uint64_t seed = 42;
  size_t target_entries = 1500;  ///< MiMI-like entries in T
  size_t source_entries = 3000;  ///< OrganelleDB-like entries in S1
  bool use_indexes = true;       ///< provenance-store indexing
  /// When non-empty, the provenance Database opens DURABLY in this
  /// directory (wiped first so runs are comparable): one WAL group commit
  /// + fsync per transaction, reported via the fsync/log-bytes counters.
  /// Empty (the default) keeps the in-memory store and its exact PR 3
  /// numbers.
  std::string durable_dir;
};

struct OpTiming {
  double total_us = 0;
  size_t count = 0;
  double Avg() const { return count == 0 ? 0.0 : total_us / count; }
};

struct RunStats {
  size_t applied = 0;
  size_t adds = 0, deletes = 0, copies = 0, commits = 0;
  size_t prov_rows = 0;
  size_t prov_bytes = 0;
  size_t prov_round_trips = 0;  ///< modelled provenance-store round trips
  size_t prov_rows_moved = 0;   ///< rows transferred over those round trips
  size_t prov_write_trips = 0;  ///< write-side subset (WriteRecords etc.)
  size_t prov_write_rows = 0;   ///< rows carried by those write trips
  size_t target_write_trips = 0;  ///< target native write calls
  size_t target_write_rows = 0;   ///< rows/nodes carried by target writes
  size_t prov_fsyncs = 0;     ///< durable mode: fsync barriers issued
  size_t prov_log_bytes = 0;  ///< durable mode: bytes appended to the WAL
  double target_us = 0;   ///< simulated target-database interaction
  double prov_us = 0;     ///< simulated provenance-store interaction
  OpTiming add_prov, del_prov, copy_prov, commit_prov;
  double dataset_avg_us = 0;  ///< avg target time per operation
  double real_ms = 0;         ///< actual CPU time of the run

  /// Session kept alive so callers can run queries afterwards.
  std::unique_ptr<relstore::Database> prov_db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<wrap::TreeSourceDb> source;
  std::unique_ptr<Editor> editor;
};

/// The durability engine's counters (WAL records, fsyncs, log bytes), or
/// zeros for an in-memory database.
inline storage::DurabilityStats DurableStats(relstore::Database* db) {
  return db->durability() != nullptr ? db->durability()->stats()
                                     : storage::DurabilityStats{};
}

inline RunStats RunWorkload(const RunConfig& cfg) {
  RunStats st;
  Stopwatch wall;
  if (cfg.durable_dir.empty()) {
    st.prov_db = std::make_unique<relstore::Database>("provdb");
  } else {
    std::error_code ec;
    std::filesystem::remove_all(cfg.durable_dir, ec);
    auto opened = relstore::Database::Open("provdb", cfg.durable_dir);
    if (!opened.ok()) {
      // Fail loudly: a zeroed RunStats would print as plausible
      // "zero durability overhead" numbers and exit 0.
      std::fprintf(stderr, "durable open: %s\n",
                   opened.status().ToString().c_str());
      std::exit(2);
    }
    st.prov_db = std::move(opened).value();
  }
  st.backend = std::make_unique<provenance::ProvBackend>(st.prov_db.get(),
                                                         cfg.use_indexes);
  st.target = std::make_unique<wrap::TreeTargetDb>(
      "T", workload::GenMimiLike(cfg.target_entries, cfg.seed * 31 + 1));
  st.source = std::make_unique<wrap::TreeSourceDb>(
      "S1", workload::GenOrganelleLike(cfg.source_entries,
                                       cfg.seed * 31 + 2));
  EditorOptions opts;
  opts.strategy = cfg.strategy;
  opts.enable_archive = false;  // the paper's runs do not archive
  auto editor = Editor::Create(st.target.get(), st.backend.get(), opts);
  if (!editor.ok()) {
    std::fprintf(stderr, "editor: %s\n",
                 editor.status().ToString().c_str());
    return st;
  }
  st.editor = std::move(editor).value();
  if (!st.editor->MountSource(st.source.get()).ok()) return st;

  workload::GenOptions gen_opts;
  gen_opts.pattern = cfg.pattern;
  gen_opts.delete_policy = cfg.delete_policy;
  gen_opts.include_deletes = cfg.include_deletes;
  gen_opts.seed = cfg.seed;
  workload::UpdateGenerator gen(&st.editor->universe(), gen_opts);

  auto prov_cost = [&] { return st.prov_db->cost().ElapsedMicros(); };
  auto tgt_cost = [&] { return st.target->cost().ElapsedMicros(); };

  for (size_t i = 0; i < cfg.steps; ++i) {
    bool skipped = false;
    auto u = gen.Next(&skipped);
    if (!u.has_value()) {
      if (skipped) continue;
      break;
    }
    double p0 = prov_cost();
    Status applied = st.editor->ApplyUpdate(*u);
    if (!applied.ok()) continue;
    double dp = prov_cost() - p0;

    update::ApplyEffect effect;
    OpTiming* slot = nullptr;
    switch (u->kind) {
      case update::OpKind::kInsert:
        effect.inserted.push_back(u->AffectedPath());
        slot = &st.add_prov;
        break;
      case update::OpKind::kDelete:
        slot = &st.del_prov;
        break;
      case update::OpKind::kCopy: {
        const tree::Tree* pasted = st.editor->universe().Find(u->target);
        if (pasted != nullptr) {
          pasted->Visit([&](const tree::Path& rel, const tree::Tree&) {
            effect.copied.emplace_back(u->target.Concat(rel),
                                       u->source.Concat(rel));
          });
        }
        slot = &st.copy_prov;
        break;
      }
    }
    slot->total_us += dp;
    slot->count += 1;
    gen.OnApplied(*u, effect);
    ++st.applied;

    if (cfg.txn_len > 0 && st.applied % cfg.txn_len == 0) {
      double c0 = prov_cost();
      if (st.editor->Commit().ok()) {
        st.commit_prov.total_us += prov_cost() - c0;
        st.commit_prov.count += 1;
        ++st.commits;
      }
    }
  }
  double c0 = prov_cost();
  if (st.editor->Commit().ok() && st.editor->store()->RecordCount() > 0) {
    double dc = prov_cost() - c0;
    if (dc > 0) {
      st.commit_prov.total_us += dc;
      st.commit_prov.count += 1;
      ++st.commits;
    }
  }

  st.adds = gen.adds();
  st.deletes = gen.deletes();
  st.copies = gen.copies();
  st.prov_rows = st.editor->store()->RecordCount();
  st.prov_bytes = st.editor->store()->PhysicalBytes();
  st.prov_round_trips = st.prov_db->cost().Calls();
  st.prov_rows_moved = st.prov_db->cost().RowsMoved();
  st.prov_write_trips = st.prov_db->cost().WriteCalls();
  st.prov_write_rows = st.prov_db->cost().WriteRows();
  const storage::DurabilityStats durable = DurableStats(st.prov_db.get());
  st.prov_fsyncs = durable.fsyncs;
  st.prov_log_bytes = durable.log_bytes;
  st.target_write_trips = st.target->cost().WriteCalls();
  st.target_write_rows = st.target->cost().WriteRows();
  st.prov_us = prov_cost();
  st.target_us = tgt_cost();
  st.dataset_avg_us = st.applied == 0 ? 0 : st.target_us / st.applied;
  st.real_ms = wall.ElapsedMillis();
  return st;
}

constexpr provenance::Strategy kAllStrategies[] = {
    provenance::Strategy::kNaive, provenance::Strategy::kHierarchical,
    provenance::Strategy::kTransactional,
    provenance::Strategy::kHierarchicalTransactional};

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("Reproduction of Buneman/Chapman/Cheney, SIGMOD 2006.\n");
  std::printf("Times are simulated round-trip costs (see bench/harness.h);\n");
  std::printf("compare ratios with the paper, not absolute values.\n");
  std::printf("=============================================================\n");
}

}  // namespace cpdb::bench
