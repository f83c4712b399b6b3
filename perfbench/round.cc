// perfbench_round: the in-process half of the CPDB benchmark. run.py
// starts and stops the servers, runs this binary once per round, and turns
// the raw samples it prints into metrics. Each invocation runs ONE round
// and prints ONE flat JSON object on stdout (bench::JsonDict): scalars,
// sample vectors as space-separated strings, and the server's METRICS and
// TRACES bodies verbatim as strings.
//
//   perfbench_round --mode=serve_write --port=N --server-pid=P --seed=S
//                   [--trace-every=N]
//   perfbench_round --mode=serve_read --port=N --server-pid=P --seed=S
//                   [--trace-every=N]
//   perfbench_round --mode=paper_curation --seed=S [--trace-every=N]
//
// Every client is closed-loop: a curator sends its next request only after
// the previous reply arrived, and each request is timed at the client.
// --trace-every=N stamps a trace context on every Nth traceable request of
// each connection and polls the server's TRACES rings while the round runs
// (paper_curation instead traces every Nth query in-process). run.py
// dedupes the polled bodies by trace id.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpdb/cpdb.h"
#include "harness.h"
#include "net/client.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace {

using namespace cpdb;
using bench::JsonDict;
using tree::Path;
using tree::Value;
using update::Update;

// ----- Workload shape (see README.md) ---------------------------------------

constexpr size_t kCurators = 4;          ///< serve_write connections
constexpr size_t kTxnLen = 8;            ///< APPLYs per transaction
constexpr size_t kKeysPerCurator = 1000;
constexpr double kTheta = 0.99;          ///< zipf skew of keys and row paths
constexpr size_t kFields = 4;            ///< f1..f4 of cpdb_serve's table
constexpr size_t kChurnEvery = 32;       ///< row delete+reinsert cadence
constexpr size_t kWriteTxns = 2000;      ///< serve_write window, all conns
constexpr size_t kPreloadTxns = 1000;    ///< serve_read history, all conns
constexpr size_t kReaders = 3;           ///< serve_read query connections
constexpr size_t kReadsPerReader = 6000;
constexpr size_t kCurationOps = 14000;   ///< paper_curation updates (Fig. 8)
constexpr size_t kCurationTxnLen = 5;
constexpr size_t kCurationQueries = 1000; ///< locations; 3 verbs each
constexpr size_t kTargetEntries = 3000;  ///< MiMI-like T
constexpr size_t kSourceEntries = 6000;  ///< OrganelleDB-like S1
constexpr size_t kSetUps = 5;            ///< paper_curation set-ups per round
constexpr size_t kOpsPerMark = 700;      ///< paper_curation CPU mark cadence
constexpr size_t kQueriesPerMark = 300;
constexpr size_t kMarks = 10;            ///< CPU marks per serve window
constexpr int kReferenceReps = 8;
constexpr int kTracePollMs = 25;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread in microseconds (steal excluded, as in
/// ProcessCpuS).
double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

/// CPU time (user + system) of every thread of process `pid`, in seconds,
/// from the scheduler's per-task run time. Time the hypervisor steals from
/// a virtual CPU is not counted there, so on a shared host this stays
/// steady where wall time does not.
double ProcessCpuS(int pid) {
  double ns = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns / 1e9;
}

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Thread CPU time of a fixed computation that does not depend on the
/// repository's code: string keys into a std::map, a sort, and lookups,
/// about 2 MB of pointer-chasing like the stores' own. The cheapest of
/// kReferenceReps repetitions, in microseconds. run.py divides CPU figures
/// by it, because on a shared host the speed of the CPU itself drifts by
/// tens of percent over minutes.
double ReferenceCpuUs() {
  static volatile uint64_t sink = 0;
  double best = 0;
  for (int rep = 0; rep < kReferenceReps; ++rep) {
    const double c0 = ThreadCpuUs();
    uint64_t x = 88172645463325252ULL;
    std::map<std::string, int> m;
    std::vector<std::string> keys;
    for (int i = 0; i < 5000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      keys.push_back("k" + std::to_string(x % 100000) + "/" +
                     std::to_string(i & 63));
      m[keys.back()] += i;
    }
    std::sort(keys.begin(), keys.end());
    for (const auto& k : keys) sink = sink + static_cast<uint64_t>(m[k]);
    const double dt = ThreadCpuUs() - c0;
    if (rep == 0 || dt < best) best = dt;
  }
  return best;
}

/// A sample vector as one space-separated string (run.py splits it).
std::string Joined(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, i == 0 ? "%.3f" : " %.3f", v[i]);
    out += buf;
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "perfbench_round: %s: %s\n", what,
               st.ToString().c_str());
  return 2;
}

/// CPU time of the system under test at fixed points of a window's
/// progress, with the requests completed by then. Every round of one seed
/// runs the same work, so run.py can line the stretches between marks up
/// across rounds. Starts with a (0, 0) mark.
class CpuMarks {
 public:
  CpuMarks() { Add(0, 0); }
  void Add(double cpu_s, size_t requests) {
    cpu_us_.push_back(cpu_s * 1e6);
    requests_.push_back(static_cast<double>(requests));
  }
  void Emit(JsonDict* j) const {
    j->Set("cpu_marks_us", Joined(cpu_us_))
        .Set("request_marks", Joined(requests_));
  }

 private:
  std::vector<double> cpu_us_, requests_;
};

/// Server CPU at every `every`-th unit of window progress (commits on
/// serve_write, reads on serve_read). Client threads tick it concurrently;
/// each mark has its own slot.
class ServerCpuMarks {
 public:
  ServerCpuMarks(int pid, size_t every, size_t total)
      : pid_(pid), every_(every), slots_(total / every - 1) {}
  void Start() { base_ = ProcessCpuS(pid_); }
  void AddRequests(size_t n) { requests_ += n; }
  void Tick() {
    const size_t p = ++progress_;
    if (p % every_ == 0 && p / every_ <= slots_.size()) {
      slots_[p / every_ - 1] = {ProcessCpuS(pid_) - base_, requests_.load()};
    }
  }
  /// Closes the window; its end is the last mark.
  CpuMarks Finish() const {
    CpuMarks marks;
    for (const auto& [cpu_s, requests] : slots_) {
      if (requests > 0) marks.Add(cpu_s, requests);
    }
    marks.Add(ProcessCpuS(pid_) - base_, requests_.load());
    return marks;
  }

 private:
  int pid_;
  size_t every_;
  double base_ = 0;
  std::atomic<size_t> progress_{0}, requests_{0};
  std::vector<std::pair<double, size_t>> slots_;
};

// ----- Server surfaces -------------------------------------------------------

/// Polls TRACES on its own connection until stopped. The rings are bounded,
/// so a poll only sees the newest traces of each root kind; polling while
/// the round runs and deduping by trace id later gives a sample.
class TracePoller {
 public:
  TracePoller(int port, bool enabled) {
    if (!enabled) return;
    if (!client_.Connect("127.0.0.1", port).ok()) {
      failed_ = true;
      return;
    }
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        auto body = client_.Traces();
        if (!body.ok()) {
          failed_ = true;
          return;
        }
        bodies_.push_back(std::move(*body));
        std::this_thread::sleep_for(std::chrono::milliseconds(kTracePollMs));
      }
    });
  }
  ~TracePoller() { Stop(); }
  TracePoller(const TracePoller&) = delete;
  TracePoller& operator=(const TracePoller&) = delete;

  /// Takes one last poll so the tail of the round is sampled too.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
    auto body = client_.Traces();
    if (body.ok()) bodies_.push_back(std::move(*body));
  }
  const std::vector<std::string>& bodies() const { return bodies_; }
  bool failed() const { return failed_; }

 private:
  net::Client client_;
  std::atomic<bool> stop_{false};
  bool failed_ = false;
  std::vector<std::string> bodies_;
  std::thread thread_;
};

/// Adds trace bodies as "trace.0", "trace.1", ... (run.py collects them).
void EmitTraces(JsonDict* j, const std::vector<std::string>& bodies) {
  for (size_t i = 0; i < bodies.size(); ++i) {
    j->Set("trace." + std::to_string(i), bodies[i]);
  }
}

// ----- Curators --------------------------------------------------------------

// The transaction shape is cpdb_bench_client's (same key names, field
// cycle and churn cadence), so its --mode=digest reads the rows written
// here. Unlike that pipelined rig, a curator here is synchronous and keeps
// an exact mirror of every row for the GET check.

std::string KeyName(size_t curator, size_t key) {
  return "c" + std::to_string(curator) + "_k" + std::to_string(key);
}

/// Client-side mirror of one row: what a GET must render after commit.
struct RowMirror {
  bool created = false;
  std::optional<std::string> fields[kFields];
  size_t next_field = 0;
  size_t txns = 0;

  /// The server's canonical rendering (null fields are omitted).
  std::string Render() const {
    if (!created) return "<absent>";
    std::string out = "{";
    bool first = true;
    for (size_t f = 0; f < kFields; ++f) {
      if (!fields[f].has_value()) continue;
      if (!first) out += ", ";
      first = false;
      out += "f" + std::to_string(f + 1) + ": " +
             tree::Tree(Value(*fields[f])).ToString();
    }
    return out + "}";
  }
};

/// Client-observed latencies of one connection, in microseconds.
struct Samples {
  std::vector<double> txn_us, apply_us, commit_us, query_us;
  std::map<std::string, std::vector<double>> query_verb_us;  ///< in-process
  size_t failed = 0;
  size_t empty_getmods = 0;
};

/// One closed-loop curator on its own connection and key namespace. Every
/// transaction is kTxnLen synchronous APPLYs plus a COMMIT on one zipf key.
class Curator {
 public:
  Curator(size_t id, uint64_t seed)
      : id_(id),
        rows_(kKeysPerCurator),
        zipf_(kKeysPerCurator, kTheta, seed * 1315423911u + id) {}

  Status Connect(int port, uint64_t trace_every, uint64_t seed) {
    if (trace_every > 0) {
      client_.set_trace_sampling(trace_every, seed * 0x85ebca6bu + id_ + 1);
    }
    return client_.Connect("127.0.0.1", port);
  }

  /// Runs one transaction; false on any non-OK reply or transport error.
  bool RunTxn(Samples* out) {
    const size_t key = zipf_.NextScrambled();
    RowMirror& row = rows_[key];
    const std::string k = KeyName(id_, key);
    const Path table = Path::MustParse("T/data");
    const Path row_path = table.Child(k);
    std::vector<Update> ops;
    if (row.created && row.txns > 0 && row.txns % kChurnEvery == 0) {
      ops.push_back(Update::Delete(table, k));
      ops.push_back(Update::Insert(table, k));
      row = RowMirror{true, {}, 0, row.txns};
    } else if (!row.created) {
      ops.push_back(Update::Insert(table, k));
      row.created = true;
    }
    while (ops.size() < kTxnLen) {
      const size_t f = row.next_field % kFields;
      const std::string label = "f" + std::to_string(f + 1);
      if (row.fields[f].has_value()) {
        // The relational mapping updates a field by delete + re-insert.
        ops.push_back(Update::Delete(row_path, label));
        row.fields[f].reset();
      } else {
        std::string v =
            "v" + std::to_string(id_) + "_" + std::to_string(op_seq_++);
        ops.push_back(Update::Insert(row_path, label, Value(v)));
        row.fields[f] = std::move(v);
        row.next_field++;
      }
    }
    row.txns++;

    const double t0 = NowUs();
    for (const Update& u : ops) {
      const double a0 = NowUs();
      if (!Ok(client_.Call(net::Request::Apply(u)))) return Fail(out);
      out->apply_us.push_back(NowUs() - a0);
    }
    const double c0 = NowUs();
    if (!Ok(client_.Call(net::Request::Commit()))) return Fail(out);
    const double t1 = NowUs();
    out->commit_us.push_back(t1 - c0);
    out->txn_us.push_back(t1 - t0);
    ++committed_;
    return true;
  }

  void Disconnect() { client_.Close(); }
  size_t id() const { return id_; }
  size_t committed() const { return committed_; }
  const RowMirror& row(size_t key) const { return rows_[key]; }
  size_t TxnsOn(size_t key) const { return rows_[key].txns; }

 private:
  static bool Ok(const Result<net::Response>& r) {
    return r.ok() && r->code == net::RespCode::kOk;
  }
  static bool Fail(Samples* out) {
    out->failed++;
    return false;
  }

  size_t id_;
  net::Client client_;
  std::vector<RowMirror> rows_;
  workload::ZipfGenerator zipf_;
  size_t op_seq_ = 0;
  size_t committed_ = 0;
};

using Curators = std::vector<std::unique_ptr<Curator>>;

/// Runs `txns` transactions on each curator in parallel, one thread each,
/// ticking `marks` (if any) once per commit.
void RunCurators(Curators* curators, size_t txns,
                 std::vector<Samples>* samples, ServerCpuMarks* marks) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < curators->size(); ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < txns; ++i) {
        if (!(*curators)[c]->RunTxn(&(*samples)[c])) return;
        if (marks != nullptr) {
          marks->AddRequests(kTxnLen + 1);
          marks->Tick();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

Samples Merge(const std::vector<Samples>& parts) {
  Samples all;
  auto cat = [](std::vector<double>* into, const std::vector<double>& from) {
    into->insert(into->end(), from.begin(), from.end());
  };
  for (const Samples& s : parts) {
    cat(&all.txn_us, s.txn_us);
    cat(&all.apply_us, s.apply_us);
    cat(&all.commit_us, s.commit_us);
    cat(&all.query_us, s.query_us);
    all.failed += s.failed;
    all.empty_getmods += s.empty_getmods;
  }
  return all;
}

size_t Committed(const Curators& curators) {
  size_t n = 0;
  for (const auto& c : curators) n += c->committed();
  return n;
}

std::vector<std::pair<size_t, size_t>> TouchedRows(const Curators& curators) {
  std::vector<std::pair<size_t, size_t>> rows;
  for (const auto& c : curators) {
    for (size_t key = 0; key < kKeysPerCurator; ++key) {
      if (c->TxnsOn(key) > 0) rows.emplace_back(c->id(), key);
    }
  }
  return rows;
}

/// GETs every row the curators wrote and counts the ones whose answer
/// differs from the client's mirror. Not timed.
size_t MirrorMismatches(net::Client* client, const Curators& curators) {
  size_t mismatches = 0;
  for (const auto& [c, k] : TouchedRows(curators)) {
    auto got = client->Get(Path::MustParse("T/data").Child(KeyName(c, k)));
    if (!got.ok() || *got != curators[c]->row(k).Render()) mismatches++;
  }
  return mismatches;
}

/// Issues one query verb and records its client-observed latency. GETMOD
/// answers that list no tid are counted: every queried row was written.
bool TimedQuery(net::Client* client, net::ReqType verb, const Path& p,
                Samples* out) {
  net::Request req = verb == net::ReqType::kGetMod ? net::Request::GetMod(p)
                     : verb == net::ReqType::kGet  ? net::Request::Get(p)
                                                   : net::Request::TraceBack(p);
  const double t0 = NowUs();
  auto resp = client->Call(req);
  const double dt = NowUs() - t0;
  if (!resp.ok() || resp->code != net::RespCode::kOk) {
    out->failed++;
    return false;
  }
  if (verb == net::ReqType::kGetMod) {
    auto tids = net::DecodeTids(resp->body);
    if (!tids.ok() || tids->empty()) out->empty_getmods++;
  }
  out->query_us.push_back(dt);
  return true;
}

constexpr net::ReqType kReadVerbs[] = {net::ReqType::kGetMod,
                                       net::ReqType::kTraceBack,
                                       net::ReqType::kGet};

void EmitSamples(JsonDict* j, const Samples& s) {
  j->Set("txn_us", Joined(s.txn_us))
      .Set("apply_us", Joined(s.apply_us))
      .Set("commit_us", Joined(s.commit_us))
      .Set("query_us", Joined(s.query_us))
      .Set("failed", s.failed)
      .Set("empty_getmods", s.empty_getmods);
  for (const auto& [verb, v] : s.query_verb_us) {
    j->Set("query_us." + verb, Joined(v));
  }
}

struct ServeOptions {
  int port = 0;
  int server_pid = 0;
  uint64_t seed = 1;
  uint64_t trace_every = 0;
};

Status ConnectAll(const ServeOptions& opt, size_t n, Curators* curators) {
  for (size_t c = 0; c < n; ++c) {
    curators->push_back(std::make_unique<Curator>(c, opt.seed));
    Status st = curators->back()->Connect(opt.port, opt.trace_every, opt.seed);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// ----- serve_write -----------------------------------------------------------

/// 4 curators commit kWriteTxns transactions into an empty store, then
/// every written row is checked against the curators' mirrors.
int RunServeWrite(const ServeOptions& opt) {
  const double setup_cpu_s = ProcessCpuS(opt.server_pid);
  Curators curators;
  Status st = ConnectAll(opt, kCurators, &curators);
  if (!st.ok()) return Fatal("connect", st);
  net::Client admin;
  st = admin.Connect("127.0.0.1", opt.port);
  if (!st.ok()) return Fatal("connect", st);

  auto m0 = admin.Metrics();
  if (!m0.ok()) return Fatal("metrics", m0.status());
  TracePoller poller(opt.port, opt.trace_every > 0);
  std::vector<Samples> parts(kCurators);
  ServerCpuMarks marks(opt.server_pid, kWriteTxns / kMarks, kWriteTxns);
  marks.Start();
  const double w0 = NowUs();
  RunCurators(&curators, kWriteTxns / kCurators, &parts, &marks);
  const double window_s = (NowUs() - w0) / 1e6;
  const CpuMarks cpu = marks.Finish();
  poller.Stop();
  auto m1 = admin.Metrics();
  if (!m1.ok()) return Fatal("metrics", m1.status());

  JsonDict j;
  j.Set("reference_us", ReferenceCpuUs())
      .Set("setup_cpu_s", setup_cpu_s)
      .Set("window_s", window_s)
      .Set("committed", Committed(curators))
      .Set("applies", Committed(curators) * kTxnLen)
      .Set("mirror_mismatches", MirrorMismatches(&admin, curators))
      .Set("poll_failed", poller.failed())
      .Set("m0", *m0)
      .Set("m1", *m1);
  cpu.Emit(&j);
  EmitSamples(&j, Merge(parts));
  EmitTraces(&j, poller.bodies());
  std::printf("%s\n", j.ToString().c_str());
  return 0;
}

// ----- serve_read ------------------------------------------------------------

/// Preloads kPreloadTxns serve_write-shaped transactions (part of set-up),
/// then runs 3 reader connections issuing GETMOD, TRACEBACK and GET in
/// equal shares on zipf-chosen preloaded rows while curator 0 keeps
/// committing, closed-loop and unpaced, until the readers are done.
int RunServeRead(const ServeOptions& opt) {
  Curators curators;
  Status st = ConnectAll(opt, kCurators, &curators);
  if (!st.ok()) return Fatal("connect", st);
  std::vector<Samples> preload(kCurators);
  RunCurators(&curators, kPreloadTxns / kCurators, &preload, nullptr);
  const double setup_cpu_s = ProcessCpuS(opt.server_pid);
  const Samples preload_all = Merge(preload);
  const size_t preload_committed = Committed(curators);

  // Row paths ranked hottest-first by preload traffic: zipf rank r reads
  // the r-th hottest row, so reads and writes share their hot set.
  std::vector<std::pair<size_t, size_t>> ranked = TouchedRows(curators);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const auto& a, const auto& b) {
                     return curators[a.first]->TxnsOn(a.second) >
                            curators[b.first]->TxnsOn(b.second);
                   });

  // Only curator 0 writes during the window; the others disconnect.
  for (size_t c = 1; c < kCurators; ++c) curators[c]->Disconnect();
  std::vector<std::unique_ptr<net::Client>> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<net::Client>());
    if (opt.trace_every > 0) {
      readers.back()->set_trace_sampling(opt.trace_every,
                                         opt.seed * 0x27d4eb2fu + r + 1);
    }
    st = readers.back()->Connect("127.0.0.1", opt.port);
    if (!st.ok()) return Fatal("connect", st);
  }
  net::Client admin;
  st = admin.Connect("127.0.0.1", opt.port);
  if (!st.ok()) return Fatal("connect", st);

  auto m0 = admin.Metrics();
  if (!m0.ok()) return Fatal("metrics", m0.status());
  TracePoller poller(opt.port, opt.trace_every > 0);
  std::vector<Samples> parts(kReaders + 1);
  std::atomic<size_t> readers_left{kReaders};
  ServerCpuMarks marks(opt.server_pid, kReaders * kReadsPerReader / kMarks,
                       kReaders * kReadsPerReader);
  marks.Start();
  const double w0 = NowUs();
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      workload::ZipfGenerator zipf(ranked.size(), kTheta,
                                   opt.seed * 2654435761u + 101 + r);
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const auto& [c, k] = ranked[zipf.Next()];
        const Path p = Path::MustParse("T/data").Child(KeyName(c, k));
        if (!TimedQuery(readers[r].get(), kReadVerbs[(i + r) % 3], p,
                        &parts[r])) {
          break;
        }
        marks.AddRequests(1);
        marks.Tick();
      }
      readers_left--;
    });
  }
  threads.emplace_back([&] {
    while (readers_left.load() > 0 && curators[0]->RunTxn(&parts[kReaders])) {
      marks.AddRequests(kTxnLen + 1);
    }
  });
  for (auto& t : threads) t.join();
  const double window_s = (NowUs() - w0) / 1e6;
  const CpuMarks cpu = marks.Finish();
  poller.Stop();
  auto m1 = admin.Metrics();
  if (!m1.ok()) return Fatal("metrics", m1.status());
  Samples window = Merge(parts);
  window.failed += preload_all.failed;
  const size_t committed = Committed(curators) - preload_committed;

  JsonDict j;
  j.Set("reference_us", ReferenceCpuUs())
      .Set("setup_cpu_s", setup_cpu_s)
      .Set("window_s", window_s)
      .Set("committed", committed)
      .Set("applies", committed * kTxnLen)
      .Set("preload_committed", preload_committed)
      .Set("preload_applies", preload_committed * kTxnLen)
      .Set("mirror_mismatches", MirrorMismatches(&admin, curators))
      .Set("poll_failed", poller.failed())
      .Set("m0", *m0)
      .Set("m1", *m1);
  cpu.Emit(&j);
  EmitSamples(&j, window);
  EmitTraces(&j, poller.bodies());
  std::printf("%s\n", j.ToString().c_str());
  return 0;
}

// ----- paper_curation --------------------------------------------------------

/// Everything paper_curation sets up before its first update. Members are
/// declared in dependency order, so destruction tears the editor and the
/// generator down before the stores they point into.
struct Curation {
  std::unique_ptr<relstore::Database> prov_db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<wrap::TreeSourceDb> source;
  std::unique_ptr<Editor> editor;
  std::unique_ptr<workload::UpdateGenerator> gen;
};

/// Generates T and S1, creates a strategy-H editor on an in-memory store
/// and mounts S1: the paper's set-up, as bench::RunWorkload does it.
Status SetUpCuration(uint64_t seed, Curation* c) {
  c->prov_db = std::make_unique<relstore::Database>("provdb");
  c->backend = std::make_unique<provenance::ProvBackend>(c->prov_db.get());
  c->target = std::make_unique<wrap::TreeTargetDb>(
      "T", workload::GenMimiLike(kTargetEntries, seed * 31 + 1));
  c->source = std::make_unique<wrap::TreeSourceDb>(
      "S1", workload::GenOrganelleLike(kSourceEntries, seed * 31 + 2));
  EditorOptions eopts;
  eopts.strategy = provenance::Strategy::kHierarchical;
  auto created = Editor::Create(c->target.get(), c->backend.get(), eopts);
  if (!created.ok()) return created.status();
  c->editor = std::move(created).value();
  Status st = c->editor->MountSource(c->source.get());
  if (!st.ok()) return st;
  workload::GenOptions gopts;
  gopts.pattern = workload::Pattern::kMix;
  gopts.seed = seed;
  c->gen = std::make_unique<workload::UpdateGenerator>(&c->editor->universe(),
                                                       gopts);
  return Status::OK();
}

/// The paper's Table-1 "mix" (random inserts, deletes and copy-pastes from
/// S1 into T) under strategy H with an in-memory store, committed every
/// kCurationTxnLen ops, followed by GetSrc/GetMod/GetHist on random target
/// locations. The loop is bench::RunWorkload's, with every Editor and
/// QueryEngine call timed directly; modelled counts come from the
/// CostModel and are reported under modelled_ names.
int RunPaperCuration(uint64_t seed, uint64_t trace_every) {
  // Set-up is short, so it runs kSetUps times and reports the cheapest; the
  // last one is used.
  std::unique_ptr<Curation> cur;
  std::vector<double> setup_cpu_s;
  for (size_t i = 0; i < kSetUps; ++i) {
    cur.reset();
    cur = std::make_unique<Curation>();
    const double u0 = ThreadCpuUs();
    Status st = SetUpCuration(seed, cur.get());
    if (!st.ok()) return Fatal("set-up", st);
    setup_cpu_s.push_back((ThreadCpuUs() - u0) / 1e6);
  }
  Editor* editor = cur->editor.get();
  workload::UpdateGenerator& gen = *cur->gen;
  relstore::Database& prov_db = *cur->prov_db;

  Samples out;
  std::vector<double> op_us;
  CpuMarks marks;
  double txn_acc = 0;
  size_t applied = 0, txns = 0;
  double ops_s = 0, ops_cpu_s = 0;
  const relstore::CostSnapshot c0 = prov_db.cost().Snap();
  const size_t tw0 = cur->target->cost().WriteCalls();
  auto commit = [&] {
    const double u0 = ThreadCpuUs();
    const double t0 = NowUs();
    Status cst = editor->Commit();
    const double dt = NowUs() - t0;
    ops_cpu_s += (ThreadCpuUs() - u0) / 1e6;
    ops_s += dt / 1e6;
    if (!cst.ok()) {
      out.failed++;
      return;
    }
    out.commit_us.push_back(dt);
    out.txn_us.push_back(txn_acc + dt);
    txn_acc = 0;
    ++txns;
  };
  while (applied < kCurationOps) {
    bool skipped = false;
    auto u = gen.Next(&skipped);
    if (!u.has_value()) {
      if (skipped) continue;
      break;
    }
    const double u0 = ThreadCpuUs();
    const double t0 = NowUs();
    Status ast = editor->ApplyUpdate(*u);
    const double dt = NowUs() - t0;
    ops_cpu_s += (ThreadCpuUs() - u0) / 1e6;
    if (!ast.ok()) {
      out.failed++;  // the generator only proposes updates that apply
      continue;
    }
    ops_s += dt / 1e6;
    op_us.push_back(dt);
    txn_acc += dt;
    update::ApplyEffect effect;
    if (u->kind == update::OpKind::kInsert) {
      effect.inserted.push_back(u->AffectedPath());
    } else if (u->kind == update::OpKind::kCopy) {
      const tree::Tree* pasted = editor->universe().Find(u->target);
      if (pasted != nullptr) {
        pasted->Visit([&](const Path& rel, const tree::Tree&) {
          effect.copied.emplace_back(u->target.Concat(rel),
                                     u->source.Concat(rel));
        });
      }
    }
    gen.OnApplied(*u, effect);
    if (++applied % kCurationTxnLen == 0) commit();
    if (applied % kOpsPerMark == 0) marks.Add(ops_cpu_s, applied + txns);
  }
  if (applied % kCurationTxnLen != 0) commit();
  if (applied % kOpsPerMark != 0) marks.Add(ops_cpu_s, applied + txns);
  const relstore::CostSnapshot c1 = prov_db.cost().Snap();
  const size_t tw1 = cur->target->cost().WriteCalls();

  // Query phase on random locations of the final target tree.
  std::vector<Path> all;
  editor->TargetView()->Visit([&](const Path& rel, const tree::Tree&) {
    if (!rel.IsRoot()) all.push_back(Path({std::string("T")}).Concat(rel));
  });
  Rng rng(seed * 7 + 3);
  std::vector<Path> locs;
  for (size_t i = 0; i < kCurationQueries && !all.empty(); ++i) {
    locs.push_back(all[rng.NextIndex(all.size())]);
  }
  query::QueryEngine* q = editor->query();
  uint64_t digest = kFnvBasis;
  std::vector<std::string> traces;
  double queries_s = 0, queries_cpu_s = 0;
  size_t query_no = 0;
  for (const Path& p : locs) {
    for (const char* verb : {"GETSRC", "GETMOD", "GETHIST"}) {
      const bool traced = trace_every > 0 && query_no++ % trace_every == 0;
      obs::SpanCollector tracer(obs::TraceContext{query_no, 0, true});
      uint64_t root = 0;
      if (traced) {
        root = tracer.Open("query.execute", 0, p.ToString());
        q->set_tracer(&tracer, root);
      }
      std::string answer;
      bool ok = true;
      const double u0 = ThreadCpuUs();
      const double t0 = NowUs();
      if (verb[3] == 'S') {
        auto r = q->GetSrc(p);
        ok = r.ok();
        if (ok) answer = r->has_value() ? std::to_string(**r) : "-";
      } else {
        auto r = verb[3] == 'M' ? q->GetMod(p) : q->GetHist(p);
        ok = r.ok();
        if (ok) {
          for (int64_t t : *r) answer += std::to_string(t) + ",";
        }
      }
      const double dt = NowUs() - t0;
      queries_cpu_s += (ThreadCpuUs() - u0) / 1e6;
      if (traced) {
        q->set_tracer(nullptr, 0);
        tracer.Close(root);
        traces.push_back("{\"traces\":[" +
                         obs::SpanStore::TreeJson(tracer.spans()) + "]}");
      }
      if (!ok) {
        out.failed++;
        continue;
      }
      queries_s += dt / 1e6;
      out.query_us.push_back(dt);
      if (out.query_us.size() % kQueriesPerMark == 0) {
        marks.Add(ops_cpu_s + queries_cpu_s,
                  applied + txns + out.query_us.size());
      }
      out.query_verb_us[verb].push_back(dt);
      digest = Fnv(digest, std::string(verb) + " " + p.ToString() + " " +
                               answer + "\n");
    }
  }
  const relstore::CostSnapshot c2 = prov_db.cost().Snap();

  JsonDict j;
  j.Set("reference_us", ReferenceCpuUs())
      .Set("setup_cpu_s", *std::min_element(setup_cpu_s.begin(), setup_cpu_s.end()))
      .Set("window_s", ops_s + queries_s)
      .Set("ops_s", ops_s)
      .Set("queries_s", queries_s)
      .Set("committed", txns)
      .Set("applies", applied)
      .Set("adds", gen.adds())
      .Set("deletes", gen.deletes())
      .Set("copies", gen.copies())
      .Set("prov_records", editor->store()->RecordCount())
      .Set("prov_bytes", editor->store()->PhysicalBytes())
      .Set("modelled_round_trips", c1.calls - c0.calls)
      .Set("modelled_write_trips", c1.write_calls - c0.write_calls)
      .Set("modelled_rows", c1.rows - c0.rows)
      .Set("modelled_query_round_trips", c2.calls - c1.calls)
      .Set("modelled_target_write_trips", tw1 - tw0)
      .Set("peak_rss_mb", PeakRssMb())
      .Set("digest", Hex(digest))
      .Set("op_us", Joined(op_us));
  marks.Emit(&j);
  EmitSamples(&j, out);
  EmitTraces(&j, traces);
  std::printf("%s\n", j.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string mode = flags.GetString("mode", "");
  ServeOptions opt;
  opt.port = static_cast<int>(flags.GetInt("port", 0));
  opt.server_pid = static_cast<int>(flags.GetInt("server-pid", 0));
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.trace_every = static_cast<uint64_t>(flags.GetInt("trace-every", 0));
  if (mode == "serve_write") return RunServeWrite(opt);
  if (mode == "serve_read") return RunServeRead(opt);
  if (mode == "paper_curation") return RunPaperCuration(opt.seed, opt.trace_every);
  std::fprintf(stderr, "perfbench_round: unknown --mode=%s\n", mode.c_str());
  return 2;
}
