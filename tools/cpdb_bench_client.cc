// cpdb_bench_client: the operator-grade load rig for cpdb_serve.
//
// Drives the network protocol end to end — real sockets, real pipelining,
// real latency — sweeping the client-side queue depth (the PRISM batching
// knob: how many transactions one connection keeps in flight before
// draining responses). Keys are chosen per connection from a Zipfian or
// uniform distribution (src/workload/zipf.h), transactions are
// APPLY...COMMIT pipelines against the server's relational "data" table,
// and a fraction of transactions append a GetMod read so the mix touches
// the provenance query path too.
//
// Modes:
//   --mode=load    QD sweep, prints a table and writes the harness
//                  --json schema (bench "net_service"), one row per QD
//   --mode=digest  reads a deterministic digest of the server's committed
//                  state (GetMod + Get + TraceBack) to --digest=PATH; run
//                  before SIGTERM and after restart, diff for equality
//   --mode=ping    retries PING until the server answers or
//                  --timeout-sec expires (CI readiness gate)
//   --mode=stats / --mode=metrics / --mode=traces
//                  one admin verb round-trip, body to stdout (flat JSON,
//                  Prometheus text exposition, assembled trace trees —
//                  the "slow" array holds slow commits and queries alike)
//   --mode=explain run one query with EXPLAIN (--explain=getmod|
//                  traceback|get --path=T/...) and print its span tree +
//                  cost counters as JSON
//
// Load flags: --host --port --connections --qd=1,2,4,8,16,32 --txns
// --txn-len --keys --dist=zipf|uniform --theta --rate (open-loop target
// txns/sec across all connections; 0 = closed loop) --read-frac --seed
// --json --trace-sample=N (stamp a TraceContext on every Nth traceable
// request per connection; 0 = off) --retry-max=N. Digest flags:
// --connections --keys --digest. See OPERATOR_GUIDE.md for recipes.
//
// Overload is part of the contract, not an error: shed transactions
// (typed RETRY from admission control) are counted and reported as
// `shed_txns`. The rig never retries in-line — that would corrupt the
// pipeline's response accounting — but with --retry-max=N (default 4)
// each shed transaction is retried after the measured window drains,
// with the client library's capped exponential backoff + jitter; retry
// attempts and eventual commits are reported as `retry_txns` /
// `retried_committed`. --retry-max=0 restores fail-fast.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "util/flags.h"
#include "workload/zipf.h"

namespace {

using namespace cpdb;
using bench::JsonReport;
using tree::Path;
using tree::Value;
using update::Update;

constexpr size_t kFields = 4;       ///< f1..f4, matches cpdb_serve's schema
constexpr size_t kChurnEvery = 32;  ///< row delete+reinsert cadence per key

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

struct Options {
  std::string host = "127.0.0.1";
  int port = 7170;
  std::string mode = "load";
  size_t connections = 4;
  std::vector<size_t> qds = {1, 2, 4, 8, 16, 32};
  size_t txns = 200;
  size_t txn_len = 4;
  size_t keys = 64;
  std::string dist = "zipf";
  double theta = 0.99;
  double rate = 0;  ///< open-loop target txns/sec across all connections
  double read_frac = 0.1;
  uint64_t seed = 42;
  std::string json;
  std::string digest;
  double timeout_sec = 10;
  /// 1-in-N deterministic trace sampling per connection (0 = off).
  uint64_t trace_sample = 0;
  /// Post-drain retry attempts per shed transaction (0 = fail-fast).
  size_t retry_max = 4;
  /// --mode=explain: which verb to explain, at which path.
  std::string explain = "getmod";
  std::string path = "T";
};

std::string KeyName(size_t conn, size_t key) {
  return "c" + std::to_string(conn) + "_k" + std::to_string(key);
}

std::string FieldName(size_t f) { return "f" + std::to_string(f + 1); }

/// Client-side mirror of one key's row state. Kept optimistically in sync
/// with the server; a shed or partially rejected transaction marks the
/// key dirty, and the next transaction on it rebuilds the row from
/// scratch (delete + fresh insert) instead of guessing.
struct KeyState {
  bool created = false;
  bool occupied[kFields] = {false, false, false, false};
  size_t next_field = 0;
  size_t txn_count = 0;
  /// Keys start dirty: the server may already hold this row from an
  /// earlier sweep step or run, so the first transaction on every key is
  /// a rebuild rather than a guess.
  bool dirty = true;
};

/// One in-flight (pipelined) transaction awaiting its responses.
struct InflightTxn {
  size_t key = 0;
  size_t responses = 0;  ///< frames to Recv for this transaction
  double t0_us = 0;      ///< scheduled (open loop) or send start (closed)
  bool expect_errors = false;  ///< resync txn: rejections are planned
};

struct ConnStats {
  size_t sent = 0;
  size_t committed = 0;
  size_t shed = 0;
  size_t errored = 0;
  size_t resyncs = 0;
  size_t reads = 0;
  size_t read_errors = 0;
  size_t transport_errors = 0;
  size_t retry_txns = 0;          ///< retry attempts sent (post-drain pass)
  size_t retried_committed = 0;   ///< shed txns that committed on retry
  std::vector<double> latencies_us;  ///< committed txns only
  std::vector<size_t> shed_keys;     ///< keys of shed txns, for the retry pass
};

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds transaction number `txn_count` for `key` and applies the
/// expected effect to `st` optimistically (pipelined generation cannot
/// wait for the outcome; failures mark the key dirty and resync later).
std::vector<Update> MakeTxn(size_t conn, size_t key, KeyState* st,
                            size_t txn_len, size_t* op_seq,
                            bool* expect_errors) {
  Path table = Path::MustParse("T/data");
  std::string k = KeyName(conn, key);
  Path row = table.Child(k);
  std::vector<Update> ops;
  *expect_errors = false;

  bool rebuild = st->dirty || (st->created && st->txn_count > 0 &&
                               st->txn_count % kChurnEvery == 0);
  if (rebuild) {
    // Row rewrite: drop whatever the server has (the delete may be
    // rejected if the row never made it — that is fine on a resync) and
    // start the row over. Resets the field cycle.
    *expect_errors = st->dirty;
    ops.push_back(Update::Delete(table, k));
    ops.push_back(Update::Insert(table, k));
    st->created = true;
    st->dirty = false;
    for (size_t f = 0; f < kFields; ++f) st->occupied[f] = false;
    st->next_field = 0;
  } else if (!st->created) {
    ops.push_back(Update::Insert(table, k));
    st->created = true;
  }
  while (ops.size() < txn_len) {
    size_t f = st->next_field % kFields;
    if (st->occupied[f]) {
      // The relational mapping updates a field by delete + re-insert
      // (INSERT into an occupied column is a domain error by design).
      ops.push_back(Update::Delete(row, FieldName(f)));
      st->occupied[f] = false;
    } else {
      ops.push_back(Update::Insert(
          row, FieldName(f),
          Value("v" + std::to_string(conn) + "_" + std::to_string((*op_seq)++))));
      st->occupied[f] = true;
      st->next_field++;
    }
  }
  st->txn_count++;
  return ops;
}

/// Receives every response of the oldest in-flight transaction and
/// settles the books: latency on full commit, shed on RETRY, dirty-key
/// resync on unexpected rejection.
bool CompleteOldest(net::Client* client, std::deque<InflightTxn>* window,
                    std::vector<KeyState>* keys, ConnStats* stats) {
  InflightTxn txn = window->front();
  window->pop_front();
  bool any_retry = false;
  bool any_error = false;
  for (size_t i = 0; i < txn.responses; ++i) {
    auto resp = client->Recv();
    if (!resp.ok()) {
      stats->transport_errors++;
      return false;  // connection is gone; caller stops this thread
    }
    if (resp->code == net::RespCode::kRetry ||
        resp->code == net::RespCode::kDraining) {
      any_retry = true;
    } else if (resp->code == net::RespCode::kError) {
      any_error = true;
    }
  }
  if (any_retry) {
    stats->shed++;
    stats->shed_keys.push_back(txn.key);
    (*keys)[txn.key].dirty = true;
  } else if (any_error && !txn.expect_errors) {
    stats->errored++;
    (*keys)[txn.key].dirty = true;
  } else {
    stats->committed++;
    stats->latencies_us.push_back(NowMicros() - txn.t0_us);
  }
  return true;
}

/// Post-drain retry pass: each transaction shed during the measured
/// window is regenerated (the shed key is dirty, so MakeTxn rebuilds the
/// row) and re-sent synchronously, backing off with the client library's
/// capped exponential + jitter between attempts. Runs AFTER the measured
/// window so retries never skew the latency sample, and the admission
/// decision is transaction-atomic on the server, so re-sending the whole
/// APPLY...COMMIT pipeline is the correct retry unit.
void RetryShedTxns(const Options& opt, size_t conn, net::Client* client,
                   std::vector<KeyState>* keys, size_t* op_seq,
                   ConnStats* stats) {
  if (opt.retry_max == 0 || stats->shed_keys.empty()) return;
  net::RetryPolicy policy;
  policy.max_attempts = opt.retry_max;
  policy.jitter_seed = opt.seed * 0x9e3779b9u + conn;
  for (size_t key : stats->shed_keys) {
    for (size_t attempt = 1; attempt <= opt.retry_max; ++attempt) {
      bool expect_errors = false;
      std::vector<Update> ops =
          MakeTxn(conn, key, &(*keys)[key], opt.txn_len, op_seq,
                  &expect_errors);
      bool send_ok = true;
      for (const Update& u : ops) {
        if (!client->Send(net::Request::Apply(u)).ok()) send_ok = false;
      }
      if (!client->Send(net::Request::Commit()).ok()) send_ok = false;
      if (!send_ok) {
        stats->transport_errors++;
        return;
      }
      stats->retry_txns++;
      bool any_retry = false;
      bool any_error = false;
      for (size_t i = 0; i < ops.size() + 1; ++i) {
        auto resp = client->Recv();
        if (!resp.ok()) {
          stats->transport_errors++;
          return;
        }
        if (resp->code == net::RespCode::kRetry ||
            resp->code == net::RespCode::kDraining) {
          any_retry = true;
        } else if (resp->code == net::RespCode::kError) {
          any_error = true;
        }
      }
      if (!any_retry) {
        if (any_error && !expect_errors) {
          stats->errored++;
          (*keys)[key].dirty = true;
        } else {
          stats->retried_committed++;
        }
        break;
      }
      (*keys)[key].dirty = true;  // shed again; back off and go around
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int64_t>(net::RetryBackoffMs(policy, attempt, key))));
    }
  }
}

/// One connection's closed- or open-loop run at queue depth `qd`.
ConnStats RunConnection(const Options& opt, size_t conn, size_t qd) {
  ConnStats stats;
  net::Client client;
  Status st = client.Connect(opt.host, opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "conn %zu: %s\n", conn, st.ToString().c_str());
    stats.transport_errors++;
    return stats;
  }
  if (opt.trace_sample > 0) {
    client.set_trace_sampling(opt.trace_sample,
                              opt.seed * 0x85ebca6bu + conn);
  }

  std::vector<KeyState> keys(opt.keys);
  workload::ZipfGenerator zipf(opt.keys, opt.dist == "zipf" ? opt.theta : 0.0,
                               opt.seed * 1315423911u + conn);
  Rng rng(opt.seed * 2654435761u + conn);
  std::deque<InflightTxn> window;
  size_t op_seq = 0;

  const double conn_rate =
      opt.rate > 0 ? opt.rate / static_cast<double>(opt.connections) : 0;
  const auto start = std::chrono::steady_clock::now();
  const double start_us = NowMicros();

  for (size_t i = 0; i < opt.txns; ++i) {
    while (window.size() >= qd) {
      if (!CompleteOldest(&client, &window, &keys, &stats)) return stats;
    }
    double sched_us = start_us;
    if (conn_rate > 0) {
      // Open loop: transaction i is DUE at start + i/rate, whether or not
      // the server kept up; latency is measured from the due time, so
      // server-side queueing is charged to the server (no coordinated
      // omission).
      sched_us = start_us + i * 1e6 / conn_rate;
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(static_cast<int64_t>(
                      i * 1e6 / conn_rate)));
    }

    size_t key = opt.dist == "zipf" ? zipf.NextScrambled()
                                    : rng.NextIndex(opt.keys);
    if (keys[key].dirty && keys[key].txn_count > 0) {
      stats.resyncs++;  // MakeTxn clears the flag
    }
    bool expect_errors = false;
    std::vector<Update> ops =
        MakeTxn(conn, key, &keys[key], opt.txn_len, &op_seq, &expect_errors);

    InflightTxn txn;
    txn.key = key;
    txn.expect_errors = expect_errors;
    txn.t0_us = conn_rate > 0 ? sched_us : NowMicros();
    bool send_ok = true;
    for (const Update& u : ops) {
      if (!client.Send(net::Request::Apply(u)).ok()) send_ok = false;
    }
    if (!client.Send(net::Request::Commit()).ok()) send_ok = false;
    txn.responses = ops.size() + 1;
    if (send_ok && rng.NextBool(opt.read_frac)) {
      if (client.Send(net::Request::GetMod(
                          Path::MustParse("T/data").Child(KeyName(conn, key))))
              .ok()) {
        txn.responses++;
        stats.reads++;
      }
    }
    if (!send_ok) {
      stats.transport_errors++;
      return stats;
    }
    stats.sent++;
    window.push_back(txn);
  }
  while (!window.empty()) {
    if (!CompleteOldest(&client, &window, &keys, &stats)) return stats;
  }
  RetryShedTxns(opt, conn, &client, &keys, &op_seq, &stats);
  return stats;
}

int RunLoad(const Options& opt) {
  JsonReport report("net_service");
  report.config()
      .Set("host", opt.host)
      .Set("port", opt.port)
      .Set("connections", opt.connections)
      .Set("txns_per_connection", opt.txns)
      .Set("txn_len", opt.txn_len)
      .Set("keys_per_connection", opt.keys)
      .Set("dist", opt.dist)
      .Set("theta", opt.theta)
      .Set("rate", opt.rate)
      .Set("read_frac", opt.read_frac)
      .Set("seed", static_cast<size_t>(opt.seed))
      .Set("trace_sample", static_cast<size_t>(opt.trace_sample))
      .Set("retry_max", opt.retry_max);

  bench::PrintHeader("Network service",
                     "latency under load over TCP (queue-depth sweep)");
  std::printf("server=%s:%d conns=%zu txns/conn=%zu txn-len=%zu dist=%s "
              "theta=%.2f rate=%s\n\n",
              opt.host.c_str(), opt.port, opt.connections, opt.txns,
              opt.txn_len, opt.dist.c_str(), opt.theta,
              opt.rate > 0 ? (std::to_string(opt.rate) + "/s").c_str()
                           : "closed-loop");
  std::printf("%-6s %9s %9s %7s %7s %10s %11s %11s %11s\n", "qd", "txns",
              "txn/s", "shed", "errors", "p50(us)", "p99(us)", "p999(us)",
              "reads");

  bool failed = false;
  for (size_t qd : opt.qds) {
    std::vector<ConnStats> per_conn(opt.connections);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < opt.connections; ++c) {
      threads.emplace_back(
          [&, c] { per_conn[c] = RunConnection(opt, c, qd); });
    }
    for (auto& t : threads) t.join();
    double wall_ms = wall.ElapsedMillis();

    ConnStats total;
    std::vector<double> lat;
    for (const ConnStats& s : per_conn) {
      total.sent += s.sent;
      total.committed += s.committed;
      total.shed += s.shed;
      total.errored += s.errored;
      total.resyncs += s.resyncs;
      total.reads += s.reads;
      total.read_errors += s.read_errors;
      total.transport_errors += s.transport_errors;
      total.retry_txns += s.retry_txns;
      total.retried_committed += s.retried_committed;
      lat.insert(lat.end(), s.latencies_us.begin(), s.latencies_us.end());
    }
    bench::Percentiles pcts = bench::ComputePercentiles(&lat);
    double p50 = pcts.p50, p99 = pcts.p99, p999 = pcts.p999;
    double txn_per_sec =
        wall_ms <= 0 ? 0 : total.committed / (wall_ms / 1000.0);
    if (total.transport_errors > 0) failed = true;

    std::printf("%-6zu %9zu %9.0f %7zu %7zu %10.1f %11.1f %11.1f %11zu\n",
                qd, total.committed, txn_per_sec, total.shed, total.errored,
                p50, p99, p999, total.reads);
    report.AddRow()
        .Set("qd", qd)
        .Set("txns_sent", total.sent)
        .Set("txns_committed", total.committed)
        .Set("shed_txns", total.shed)
        .Set("error_txns", total.errored)
        .Set("resync_txns", total.resyncs)
        .Set("retry_txns", total.retry_txns)
        .Set("retried_committed", total.retried_committed)
        .Set("reads", total.reads)
        .Set("transport_errors", total.transport_errors)
        .Set("wall_ms", wall_ms)
        .Set("txns_per_sec", txn_per_sec)
        .Set("ops_per_sec",
             wall_ms <= 0 ? 0.0
                          : total.committed * opt.txn_len / (wall_ms / 1000.0))
        .Set("rate_target", opt.rate)
        .Set("rate_achieved",
             wall_ms <= 0 ? 0.0 : total.sent / (wall_ms / 1000.0))
        .Set("p50_txn_us", p50)
        .Set("p99_txn_us", p99)
        .Set("p999_txn_us", p999);
  }

  report.WriteTo(opt.json);
  return failed ? 1 : 0;
}

/// Deterministic rendering of the server's committed state, for
/// before/after-restart comparison. Everything here is stable across a
/// drain + reopen: GetMod tid sets are sorted, Get subtrees render from
/// ordered maps, TraceBack walks records newest-first.
int RunDigest(const Options& opt) {
  net::Client client;
  Status st = client.Connect(opt.host, opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "digest: %s\n", st.ToString().c_str());
    return 1;
  }
  std::FILE* f = std::fopen(opt.digest.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "digest: cannot write %s\n", opt.digest.c_str());
    return 1;
  }
  auto tids_line = [&](const Path& p) {
    auto tids = client.GetMod(p);
    std::string line = "getmod " + p.ToString() + ":";
    if (!tids.ok()) {
      line += " <" + tids.status().ToString() + ">";
    } else {
      for (int64_t t : *tids) line += " " + std::to_string(t);
    }
    std::fprintf(f, "%s\n", line.c_str());
  };
  tids_line(Path::MustParse("T"));
  for (size_t c = 0; c < opt.connections; ++c) {
    for (size_t k = 0; k < opt.keys; ++k) {
      Path row = Path::MustParse("T/data").Child(KeyName(c, k));
      auto got = client.Get(row);
      std::fprintf(f, "get %s: %s\n", row.ToString().c_str(),
                   got.ok() ? got->c_str()
                            : ("<" + got.status().ToString() + ">").c_str());
      tids_line(row);
      if (k < 2) {
        auto trace = client.TraceBack(row);
        std::fprintf(f, "traceback %s:\n%s\n", row.ToString().c_str(),
                     trace.ok()
                         ? trace->c_str()
                         : ("<" + trace.status().ToString() + ">").c_str());
      }
    }
  }
  std::fclose(f);
  std::printf("digest written to %s\n", opt.digest.c_str());
  return 0;
}

/// One admin verb round-trip, body printed to stdout. Covers STATS
/// (flat JSON), METRICS (Prometheus text exposition), and TRACES
/// (assembled trace trees, slow requests included) so an operator with
/// only this binary can read every telemetry surface.
int RunAdminVerb(const Options& opt) {
  net::Client client;
  Status st = client.Connect(opt.host, opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.mode.c_str(), st.ToString().c_str());
    return 1;
  }
  Result<std::string> body = opt.mode == "stats"     ? client.Stats()
                             : opt.mode == "metrics" ? client.Metrics()
                                                     : client.Traces();
  if (!body.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.mode.c_str(),
                 body.status().ToString().c_str());
    return 1;
  }
  std::fputs(body->c_str(), stdout);
  if (!body->empty() && body->back() != '\n') std::fputc('\n', stdout);
  return 0;
}

/// Runs one query server-side with EXPLAIN and prints the span tree +
/// cost counters JSON ("why is this query slow" without a sampled load).
int RunExplain(const Options& opt) {
  net::ReqType verb = opt.explain == "traceback" ? net::ReqType::kTraceBack
                      : opt.explain == "get"     ? net::ReqType::kGet
                                                 : net::ReqType::kGetMod;
  auto parsed = Path::Parse(opt.path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "explain: bad --path: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  net::Client client;
  Status st = client.Connect(opt.host, opt.port);
  if (!st.ok()) {
    std::fprintf(stderr, "explain: %s\n", st.ToString().c_str());
    return 1;
  }
  auto body = client.Explain(verb, *parsed);
  if (!body.ok()) {
    std::fprintf(stderr, "explain: %s\n", body.status().ToString().c_str());
    return 1;
  }
  std::fputs(body->c_str(), stdout);
  if (!body->empty() && body->back() != '\n') std::fputc('\n', stdout);
  return 0;
}

/// Retries PING until the server answers (CI readiness gate).
int RunPing(const Options& opt) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(opt.timeout_sec * 1000));
  for (;;) {
    net::Client client;
    if (client.Connect(opt.host, opt.port).ok() && client.Ping().ok()) {
      std::printf("pong from %s:%d\n", opt.host.c_str(), opt.port);
      return 0;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "ping: no server at %s:%d after %.1fs\n",
                   opt.host.c_str(), opt.port, opt.timeout_sec);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.host = flags.GetString("host", opt.host);
  opt.port = static_cast<int>(flags.GetInt("port", opt.port));
  opt.mode = flags.GetString("mode", opt.mode);
  opt.connections =
      static_cast<size_t>(flags.GetInt("connections", opt.connections));
  opt.qds = ParseSizeList(flags.GetString("qd", "1,2,4,8,16,32"), opt.qds);
  opt.txns = static_cast<size_t>(flags.GetInt("txns", opt.txns));
  opt.txn_len = static_cast<size_t>(flags.GetInt("txn-len", opt.txn_len));
  opt.keys = static_cast<size_t>(flags.GetInt("keys", opt.keys));
  opt.dist = flags.GetString("dist", opt.dist);
  opt.theta = flags.GetDouble("theta", opt.theta);
  opt.rate = flags.GetDouble("rate", opt.rate);
  opt.read_frac = flags.GetDouble("read-frac", opt.read_frac);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", opt.seed));
  opt.json = flags.GetString("json", "");
  opt.digest = flags.GetString("digest", "digest.txt");
  opt.timeout_sec = flags.GetDouble("timeout-sec", opt.timeout_sec);
  opt.trace_sample =
      static_cast<uint64_t>(flags.GetInt("trace-sample", 0));
  opt.retry_max = static_cast<size_t>(
      flags.GetInt("retry-max", static_cast<int64_t>(opt.retry_max)));
  opt.explain = flags.GetString("explain", opt.explain);
  opt.path = flags.GetString("path", opt.path);
  if (opt.txn_len < 2) opt.txn_len = 2;  // room for a row op + a field op

  if (opt.mode == "digest") return RunDigest(opt);
  if (opt.mode == "ping") return RunPing(opt);
  if (opt.mode == "explain") return RunExplain(opt);
  if (opt.mode == "stats" || opt.mode == "metrics" || opt.mode == "traces") {
    return RunAdminVerb(opt);
  }
  if (opt.mode != "load") {
    // A mistyped or retired mode must not silently start a load run.
    std::fprintf(stderr, "unknown --mode=%s\n", opt.mode.c_str());
    return 2;
  }
  return RunLoad(opt);
}
