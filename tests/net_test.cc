// The network service (src/net/): framing, protocol coding, and the TCP
// server over service::Engine — exercised over REAL sockets.
//
// The robustness contract under test (mirrors tests/durability_test.cc's
// corruption style, but through the wire): a torn, oversized, or
// bit-flipped frame yields ONE typed error response followed by
// connection close — never a crash, never a partially applied message,
// and never damage to other connections. On top of that: pipelined
// request ordering, admission-control RETRY that sheds whole
// transactions atomically, and the graceful-drain + reopen round trip
// recovering bit-identical state through the socket.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "provenance/store.h"
#include "relstore/cost_model.h"
#include "service/commit_queue.h"
#include "service/session.h"
#include "storage/durable.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/mutex.h"

namespace cpdb {
namespace {

using net::Client;
using net::Request;
using net::RespCode;
using net::Response;
using net::Server;
using net::ServerOptions;
using service::Engine;
using service::SessionPool;
using testutil::TempDir;
using tree::Path;
using tree::Value;
using update::Update;

/// `payload` as one wire frame.
std::string Framed(const std::string& payload) {
  std::string out;
  EncodeFrame(payload, &out);
  return out;
}

// ----- Protocol unit tests ---------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  std::vector<Request> reqs = {
      Request::Ping(),
      Request::Apply(Update::Insert(Path::MustParse("T/data"), "k1")),
      Request::Apply(Update::Insert(Path::MustParse("T/data/k1"), "f1",
                                    Value("hello"))),
      Request::Apply(Update::Insert(Path::MustParse("T/data/k1"), "f2",
                                    Value(static_cast<int64_t>(-42)))),
      Request::Apply(Update::Delete(Path::MustParse("T/data"), "k1")),
      Request::Apply(Update::Copy(Path::MustParse("S1/a"),
                                  Path::MustParse("T/data/b"))),
      Request::Commit(),
      Request::Abort(),
      Request::GetMod(Path::MustParse("T/data/k1")),
      Request::TraceBack(Path::MustParse("T")),
      Request::Get(Path::MustParse("T/data")),
      Request::Checkpoint(),
      Request::Drain(),
  };
  for (const Request& req : reqs) {
    std::string wire;
    net::EncodeRequest(req, &wire);
    auto back = net::DecodeRequest(wire);
    ASSERT_TRUE(back.ok()) << net::ReqTypeName(req.type);
    EXPECT_EQ(back->type, req.type);
    EXPECT_EQ(back->update, req.update) << net::ReqTypeName(req.type);
    EXPECT_EQ(back->path.ToString(), req.path.ToString());
  }
}

TEST(ProtocolTest, ResponseRoundTrip) {
  for (const Response& resp :
       {Response::Ok(), Response::Ok("body text"),
        Response::Error("it broke"), Response::Retry("busy")}) {
    std::string wire;
    net::EncodeResponse(resp, &wire);
    auto back = net::DecodeResponse(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->code, resp.code);
    EXPECT_EQ(back->body, resp.body);
  }
}

TEST(ProtocolTest, DecodersAreStrict) {
  std::string wire;
  net::EncodeRequest(Request::GetMod(Path::MustParse("T/x")), &wire);
  EXPECT_FALSE(net::DecodeRequest(wire + "x").ok());  // trailing byte
  EXPECT_FALSE(net::DecodeRequest(wire.substr(0, wire.size() - 1)).ok());
  EXPECT_FALSE(net::DecodeRequest("").ok());
  EXPECT_FALSE(net::DecodeRequest("\x7f").ok());  // unknown type tag

  std::string resp;
  net::EncodeResponse(Response::Ok("abc"), &resp);
  EXPECT_FALSE(net::DecodeResponse(resp + "y").ok());
  EXPECT_FALSE(net::DecodeResponse("\x09").ok());  // out-of-range code
  // Code 3 named DRAINING, which no server sends: refused like code 9.
  EXPECT_FALSE(net::DecodeResponse(std::string("\x03\x00", 2)).ok());
}

TEST(ProtocolTest, RetiredTagIsRejectedLikeAnUnknownOne) {
  // Tag 8 named STATS, whose metrics METRICS exports alone, and tag 12 a
  // verb whose records now live in TRACES. Each decodes to the same typed
  // error as an out-of-range tag, bare or with a trace context, so it can
  // never reach the server's verb dispatch.
  auto unknown = net::DecodeRequest("\x7f");
  ASSERT_FALSE(unknown.ok());
  for (uint64_t tag : {uint64_t{8}, uint64_t{12}}) {
    SCOPED_TRACE(tag);
    EXPECT_FALSE(net::IsReqType(tag));
    std::string bare(1, static_cast<char>(tag));
    std::string traced;
    PutVarint64(&traced, tag | 0x80);
    traced += std::string("\x05\x00\x01", 3);  // trace 5, parent 0, sampled
    for (const std::string& wire : {bare, traced}) {
      auto retired = net::DecodeRequest(wire);
      ASSERT_FALSE(retired.ok());
      EXPECT_EQ(retired.status().code(), unknown.status().code());
      EXPECT_NE(retired.status().ToString().find("unknown type " +
                                                 std::to_string(tag)),
                std::string::npos)
          << retired.status().ToString();
    }
  }
  // Their neighbours are live verbs.
  for (Request req : {Request::Get(Path::MustParse("T")),
                      Request::Checkpoint(), Request::Metrics(),
                      Request::Traces()}) {
    std::string wire;
    net::EncodeRequest(req, &wire);
    EXPECT_TRUE(net::DecodeRequest(wire).ok()) << net::ReqTypeName(req.type);
  }
}

TEST(ProtocolTest, TraceContextRoundTrip) {
  // The 0x80 tag bit carries an optional trace context on ANY verb.
  for (Request req :
       {Request::GetMod(Path::MustParse("T/data/k1")), Request::Commit(),
        Request::Apply(Update::Insert(Path::MustParse("T/data"), "k")),
        Request::Explain(net::ReqType::kGet, Path::MustParse("T/data"))}) {
    req.trace = obs::TraceContext{0x1234abcdULL, 77, true};
    std::string wire;
    net::EncodeRequest(req, &wire);
    auto back = net::DecodeRequest(wire);
    ASSERT_TRUE(back.ok()) << net::ReqTypeName(req.type);
    EXPECT_EQ(back->type, req.type);
    EXPECT_EQ(back->trace.trace_id, req.trace.trace_id);
    EXPECT_EQ(back->trace.parent_span_id, req.trace.parent_span_id);
    EXPECT_EQ(back->trace.sampled, req.trace.sampled);
    EXPECT_EQ(back->path.ToString(), req.path.ToString());
  }
  // An untraced request decodes with an invalid (absent) context and
  // costs zero extra wire bytes.
  std::string bare, traced;
  Request req = Request::GetMod(Path::MustParse("T/x"));
  net::EncodeRequest(req, &bare);
  req.trace = obs::TraceContext{9, 0, false};
  net::EncodeRequest(req, &traced);
  EXPECT_GT(traced.size(), bare.size());
  auto back = net::DecodeRequest(bare);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->trace.valid());
}

TEST(ProtocolTest, TraceContextDecoderIsStrict) {
  Request req = Request::GetMod(Path::MustParse("T/x"));
  req.trace = obs::TraceContext{42, 7, true};
  std::string wire;
  net::EncodeRequest(req, &wire);
  auto ok = net::DecodeRequest(wire);
  ASSERT_TRUE(ok.ok());

  // Trace tag bit set but the context truncated away entirely. (The
  // flagged tag is a two-byte varint: 0x85 0x01 for GETMOD|0x80.)
  EXPECT_FALSE(net::DecodeRequest(wire.substr(0, 2)).ok());
  // Zero trace id means "absent" everywhere else; on the wire it is a
  // contradiction (the tag bit promised a context) and must fail.
  std::string zero_id = wire;
  ASSERT_EQ(zero_id[2], 42);  // single-byte varint trace_id after the tag
  zero_id[2] = 0;
  EXPECT_FALSE(net::DecodeRequest(zero_id).ok());
  // The sampled flag is one byte, 0 or 1 — anything else is malformed.
  std::string bad_flag = wire;
  ASSERT_EQ(bad_flag[4], 1);  // sampled byte follows the two id varints
  bad_flag[4] = 2;
  EXPECT_FALSE(net::DecodeRequest(bad_flag).ok());
}

TEST(ProtocolTest, ExplainRoundTripAndVerbValidation) {
  for (net::ReqType verb : {net::ReqType::kGetMod, net::ReqType::kTraceBack,
                            net::ReqType::kGet}) {
    std::string wire;
    net::EncodeRequest(Request::Explain(verb, Path::MustParse("T/data/k1")),
                       &wire);
    auto back = net::DecodeRequest(wire);
    ASSERT_TRUE(back.ok()) << net::ReqTypeName(verb);
    EXPECT_EQ(back->type, net::ReqType::kExplain);
    EXPECT_EQ(back->explain_verb, verb);
    EXPECT_EQ(back->path.ToString(), "T/data/k1");
  }
  // EXPLAIN only explains the query verbs: COMMIT (or worse, EXPLAIN
  // itself) as the inner verb is rejected at decode time.
  for (net::ReqType verb : {net::ReqType::kCommit, net::ReqType::kExplain,
                            net::ReqType::kMetrics}) {
    std::string wire;
    net::EncodeRequest(Request::Explain(verb, Path::MustParse("T/x")), &wire);
    EXPECT_FALSE(net::DecodeRequest(wire).ok()) << net::ReqTypeName(verb);
  }
}

TEST(ProtocolTest, TidsDeltaCoding) {
  for (const std::vector<int64_t>& tids :
       {std::vector<int64_t>{}, std::vector<int64_t>{7},
        std::vector<int64_t>{1, 2, 3, 100, 10000, 10001}}) {
    std::string wire;
    net::EncodeTids(tids, &wire);
    auto back = net::DecodeTids(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, tids);
  }
  EXPECT_FALSE(net::DecodeTids("\x05").ok());  // count without payload
}

TEST(ProtocolTest, TidsCountPastBodyIsInvalidArgument) {
  // A GETMOD answer body holding only a huge count: every tid takes at
  // least one byte, so the count is refused before anything is reserved.
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 60}) {
    std::string wire;
    PutVarint64(&wire, count);
    auto back = net::DecodeTids(wire);
    ASSERT_FALSE(back.ok()) << count;
    EXPECT_TRUE(back.status().IsInvalidArgument()) << back.status();
  }
}

// ----- End-to-end over real sockets ------------------------------------------

/// A live server over one (in-memory or durable) store with the same
/// "data" table cpdb_serve fronts.
struct NetRig {
  explicit NetRig(const std::string& dir = "", ServerOptions opts = {},
                  service::SessionOptions sopts = {}) {
    if (dir.empty()) {
      db = std::make_unique<relstore::Database>("curated");
    } else {
      auto opened = relstore::Database::Open("curated", dir);
      EXPECT_TRUE(opened.ok()) << opened.status().ToString();
      db = std::move(opened).value();
    }
    if (!db->GetTable("data").ok()) {
      relstore::Schema schema(
          {{"id", relstore::ColumnType::kString, false},
           {"f1", relstore::ColumnType::kString, true},
           {"f2", relstore::ColumnType::kString, true}});
      EXPECT_TRUE(testutil::CreateKeyedTable(db.get(), "data", schema).ok());
    }
    backend = std::make_unique<provenance::ProvBackend>(db.get());
    target = std::make_unique<wrap::RelationalTargetDb>(
        "T", db.get(), std::vector<std::string>{"data"});
    engine = std::make_unique<Engine>(backend.get(), target.get());
    pool = std::make_unique<SessionPool>(engine.get(), sopts);
    server = std::make_unique<Server>(engine.get(), pool.get(), opts);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~NetRig() {
    if (server != nullptr) server->Stop();
    server.reset();
    pool.reset();
    engine.reset();
    target.reset();
    backend.reset();
    if (db != nullptr) {
      EXPECT_TRUE(db->Close().ok());
    }
  }

  int port() const { return server->port(); }

  std::unique_ptr<relstore::Database> db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::RelationalTargetDb> target;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SessionPool> pool;
  std::unique_ptr<Server> server;
};

/// A server or engine counter, read from the registry that stores it.
uint64_t Count(const NetRig& rig, const char* name) {
  return rig.engine->metrics().GetCounter(name, "")->Value();
}

/// Raw TCP connect for the fault-injection tests (all actual byte
/// movement still goes through net/frame.h helpers).
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

TEST(NetServerTest, PingApplyCommitQuery) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  Path table = Path::MustParse("T/data");
  ASSERT_TRUE(client.Apply(Update::Insert(table, "k1")).ok());
  ASSERT_TRUE(
      client.Apply(Update::Insert(table.Child("k1"), "f1", Value("v1"))).ok());
  ASSERT_TRUE(client.Commit().ok());

  auto tids = client.GetMod(table.Child("k1"));
  ASSERT_TRUE(tids.ok()) << tids.status().ToString();
  EXPECT_EQ(*tids, std::vector<int64_t>{1});

  auto got = client.Get(table.Child("k1"));
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->find("v1"), std::string::npos);

  auto trace = client.TraceBack(table.Child("k1").Child("f1"));
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->find("tid=1"), std::string::npos);

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("\ncpdb_last_tid 1\n"), std::string::npos)
      << *metrics;
  // The snapshot surface is visible to operators: the committed
  // watermark and the pool's snapshot count ride METRICS.
  EXPECT_NE(metrics->find("\ncpdb_committed_tid 1\n"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\ncpdb_snapshot_rebuilds_total "),
            std::string::npos)
      << *metrics;

  // A fresh connection (fresh snapshot) sees the committed row rendered
  // EXACTLY like the committing session did: GET's canonical rendering
  // hides the NULL columns a relational snapshot materializes, so the
  // two forms agree byte-for-byte (what digest comparison relies on).
  Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", rig.port()).ok());
  auto got2 = other.Get(table.Child("k1"));
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(*got2, *got);
}

TEST(NetServerTest, AbortDiscardsStagedTransaction) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  Path table = Path::MustParse("T/data");
  ASSERT_TRUE(client.Apply(Update::Insert(table, "doomed")).ok());
  ASSERT_TRUE(client.Abort().ok());
  ASSERT_TRUE(client.Apply(Update::Insert(table, "kept")).ok());
  ASSERT_TRUE(client.Commit().ok());
  auto got = client.Get(table);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->find("doomed"), std::string::npos) << *got;
  EXPECT_NE(got->find("kept"), std::string::npos);
}

TEST(NetServerTest, PipelinedResponsesArriveInOrder) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  Path table = Path::MustParse("T/data");
  // One burst: create two rows in one transaction, then read both back —
  // 5 requests on the wire before the first Recv.
  ASSERT_TRUE(client.Send(Request::Apply(Update::Insert(table, "a"))).ok());
  ASSERT_TRUE(client.Send(Request::Apply(Update::Insert(table, "b"))).ok());
  ASSERT_TRUE(client.Send(Request::Commit()).ok());
  ASSERT_TRUE(client.Send(Request::Get(table.Child("a"))).ok());
  ASSERT_TRUE(client.Send(Request::Get(table.Child("z"))).ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = client.Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kOk) << i << ": " << resp->body;
  }
  auto got_a = client.Recv();
  ASSERT_TRUE(got_a.ok());
  EXPECT_EQ(got_a->code, RespCode::kOk);
  EXPECT_NE(got_a->body, "<absent>");
  auto got_z = client.Recv();
  ASSERT_TRUE(got_z.ok());
  EXPECT_EQ(got_z->body, "<absent>");  // order held: the z-read is last
}

// ----- Robustness: protocol violations over the wire -------------------------

/// Sends `bytes` raw, expects one typed error response and then EOF, and
/// proves the server survived by committing over a fresh connection.
void ExpectErrorThenClose(NetRig* rig, const std::string& bytes) {
  int fd = RawConnect(rig->port());
  ASSERT_TRUE(net::WriteRaw(fd, bytes).ok());
  FrameReader reader(net::kMaxFramePayload);
  std::string payload;
  Status st = net::ReadFrame(fd, &reader, &payload);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto resp = net::DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, RespCode::kError);
  // ...and nothing after it: the server closed the connection.
  EXPECT_TRUE(net::ReadFrame(fd, &reader, &payload).IsUnavailable());
  ::close(fd);

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", rig->port()).ok());
  EXPECT_TRUE(probe.Ping().ok());
}

TEST(NetRobustnessTest, GarbageBytesGetTypedErrorAndClose) {
  NetRig rig;
  ExpectErrorThenClose(&rig, std::string(64, '\xff'));
  EXPECT_GE(Count(rig, "cpdb_bad_frames_total"), 1u);
}

TEST(NetRobustnessTest, OversizedFrameGetsTypedErrorAndClose) {
  NetRig rig;
  std::string wire;
  PutVarint64(&wire, net::kMaxFramePayload + 1);
  wire += std::string(8, 'x');
  ExpectErrorThenClose(&rig, wire);
}

TEST(NetRobustnessTest, BitFlippedFrameGetsTypedErrorAndClose) {
  NetRig rig;
  std::string req;
  net::EncodeRequest(Request::Ping(), &req);
  std::string wire = Framed(req);
  wire[wire.size() - 1] ^= 0x01;
  ExpectErrorThenClose(&rig, wire);
}

TEST(NetRobustnessTest, UndecodableRequestGetsErrorAndClose) {
  // Perfectly framed, meaningless payload: decoder (not framing) rejects.
  NetRig rig;
  ExpectErrorThenClose(&rig, Framed("\x7f not a request"));
  EXPECT_GE(Count(rig, "cpdb_bad_requests_total"), 1u);
  // The retired tags 8 and 12 are just as undecodable over the wire.
  ExpectErrorThenClose(&rig, Framed(std::string(1, '\x08')));
  EXPECT_GE(Count(rig, "cpdb_bad_requests_total"), 2u);
  ExpectErrorThenClose(&rig, Framed(std::string(1, '\x0c')));
  EXPECT_GE(Count(rig, "cpdb_bad_requests_total"), 3u);
}

TEST(NetRobustnessTest, ViolationMidPipelineNeverPartiallyApplies) {
  // A valid APPLY staged on the connection, then garbage before the
  // COMMIT: the APPLY's OK must arrive first (pipeline order), then the
  // typed error, then close — and the staged transaction must be gone
  // (the lease-return aborts it), never half-committed.
  NetRig rig;
  Path table = Path::MustParse("T/data");
  int fd = RawConnect(rig.port());
  std::string apply;
  net::EncodeRequest(Request::Apply(Update::Insert(table, "torn")), &apply);
  ASSERT_TRUE(net::WriteRaw(fd, Framed(apply) + std::string(64, '\xff')).ok());
  FrameReader reader(net::kMaxFramePayload);
  std::string payload;
  ASSERT_TRUE(net::ReadFrame(fd, &reader, &payload).ok());
  auto first = net::DecodeResponse(payload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, RespCode::kOk);  // the APPLY itself
  ASSERT_TRUE(net::ReadFrame(fd, &reader, &payload).ok());
  auto second = net::DecodeResponse(payload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, RespCode::kError);
  EXPECT_TRUE(net::ReadFrame(fd, &reader, &payload).IsUnavailable());
  ::close(fd);

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", rig.port()).ok());
  auto got = probe.Get(table);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->find("torn"), std::string::npos) << *got;
  auto tids = probe.GetMod(table);
  ASSERT_TRUE(tids.ok());
  EXPECT_TRUE(tids->empty());
}

TEST(NetRobustnessTest, TornFrameThenEofJustCloses) {
  NetRig rig;
  std::string req;
  net::EncodeRequest(Request::Ping(), &req);
  std::string wire = Framed(req);
  int fd = RawConnect(rig.port());
  ASSERT_TRUE(net::WriteRaw(fd, wire.substr(0, wire.size() / 2)).ok());
  ::close(fd);  // EOF with half a frame buffered: no response owed
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", rig.port()).ok());
  EXPECT_TRUE(probe.Ping().ok());
}

// ----- Admission control -----------------------------------------------------

/// Parks the group-commit leader inside its seal until Release(), so
/// later committers queue behind it. WaitStalled() reports once a leader
/// is parked: a follower must be sent only after that, because RunCohort
/// drops the queue mutex to take the exclusive latch before it drains the
/// queue, and a follower that arrives in that window joins the leader's
/// cohort instead of queueing. The destructor releases the leader, so
/// even an early ASSERT cannot leave the rig's teardown waiting on it.
class LeaderStall {
 public:
  explicit LeaderStall(NetRig* rig) {
    service::CommitQueue::TestHooks hooks;
    hooks.before_seal = [this](size_t) {
      MutexLock l(mu_);
      stalled_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(mu_);
    };
    rig->engine->commit_queue().set_test_hooks(hooks);
  }
  ~LeaderStall() { Release(); }
  LeaderStall(const LeaderStall&) = delete;
  LeaderStall& operator=(const LeaderStall&) = delete;

  /// True once a leader is parked in its seal; gives up after ~5 s.
  bool WaitStalled() {
    MutexLock l(mu_);
    for (int i = 0; i < 500 && !stalled_; ++i) cv_.WaitFor(mu_, 10);
    return stalled_;
  }

  void Release() {
    MutexLock l(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool stalled_ = false;
  bool released_ = false;
};

TEST(NetServerTest, OverloadShedsWholeTransactionsWithRetry) {
  ServerOptions opts;
  opts.max_queue_depth = 0;  // any waiting committer triggers shedding
  NetRig rig("", opts);
  Path table = Path::MustParse("T/data");

  Client a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(c.Connect("127.0.0.1", rig.port()).ok());

  // Lease A's and B's sessions BEFORE stalling the leader: building a
  // session snapshots under a shared latch grant, which would park the
  // worker behind the stalled exclusive holder and keep B's COMMIT from
  // ever reaching the queue. (C stays sessionless on purpose — shedding
  // must answer before acquisition.)
  for (Client* warm : {&a, &b}) {
    ASSERT_TRUE(warm->Apply(Update::Insert(table, "warm")).ok());
    ASSERT_TRUE(warm->Abort().ok());
  }

  // Stall the group-commit leader inside the seal so followers pile up.
  LeaderStall stall(&rig);

  // A: commits and becomes the (stalled) leader.
  ASSERT_TRUE(a.Send(Request::Apply(Update::Insert(table, "a1"))).ok());
  ASSERT_TRUE(a.Send(Request::Commit()).ok());
  ASSERT_TRUE(stall.WaitStalled());
  // B: enqueues behind the stalled leader -> queue depth 1.
  ASSERT_TRUE(b.Send(Request::Apply(Update::Insert(table, "b1"))).ok());
  ASSERT_TRUE(b.Send(Request::Commit()).ok());
  for (int i = 0; i < 500 && rig.engine->CommitQueueDepth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(rig.engine->CommitQueueDepth(), 0u);

  // C: every request of the incoming transaction is shed with RETRY —
  // the first APPLY decides, the rest follow (transaction-atomic).
  ASSERT_TRUE(c.Send(Request::Apply(Update::Insert(table, "c1"))).ok());
  ASSERT_TRUE(
      c.Send(Request::Apply(Update::Insert(table.Child("c1"), "f1",
                                           Value("v"))))
          .ok());
  ASSERT_TRUE(c.Send(Request::Commit()).ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = c.Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kRetry) << i << ": " << resp->body;
  }

  stall.Release();
  for (Client* stalled : {&a, &b}) {
    for (int i = 0; i < 2; ++i) {
      auto resp = stalled->Recv();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->code, RespCode::kOk) << resp->body;
    }
  }
  rig.engine->commit_queue().set_test_hooks({});
  EXPECT_GE(Count(rig, "cpdb_retries_total"), 3u);

  // The shed transaction left no trace; the next one on C commits fine.
  ASSERT_TRUE(c.Apply(Update::Insert(table, "c2")).ok());
  ASSERT_TRUE(c.Commit().ok());
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", rig.port()).ok());
  auto got = probe.Get(table);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->find("c1"), std::string::npos) << *got;
  EXPECT_NE(got->find("c2"), std::string::npos);
  EXPECT_NE(got->find("a1"), std::string::npos);
  EXPECT_NE(got->find("b1"), std::string::npos);
}

/// A per-op (strategy H) rig whose commit queue sheds as soon as any
/// committer waits.
NetRig PerOpSheddingRig() {
  ServerOptions opts;
  opts.max_queue_depth = 0;
  service::SessionOptions sopts;
  sopts.strategy = provenance::Strategy::kHierarchical;
  return NetRig("", opts, sopts);
}

/// Parks `leader`'s APPLY in its seal and queues `follower`'s behind it,
/// so the commit queue stays at depth 1 until the stall is released.
void ParkLeaderAndQueueFollower(NetRig* rig, LeaderStall* stall,
                                Client* leader, Client* follower) {
  const Path table = Path::MustParse("T/data");
  ASSERT_TRUE(leader->Send(Request::Apply(Update::Insert(table, "l1"))).ok());
  ASSERT_TRUE(stall->WaitStalled());
  ASSERT_TRUE(
      follower->Send(Request::Apply(Update::Insert(table, "f1"))).ok());
  for (int i = 0; i < 500 && rig->engine->CommitQueueDepth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(rig->engine->CommitQueueDepth(), 1u);
}

TEST(NetServerTest, PerOpShedEndsWithItsApply) {
  // Under N/H every APPLY is a whole transaction, so a shed one leaves
  // nothing open: once the queue drains, the next APPLY is admitted
  // without a COMMIT or ABORT first.
  NetRig rig = PerOpSheddingRig();
  const Path table = Path::MustParse("T/data");
  Client a, b, c;
  for (Client* client : {&a, &b, &c}) {
    ASSERT_TRUE(client->Connect("127.0.0.1", rig.port()).ok());
  }
  // Lease A's and B's sessions before the stall (see
  // OverloadShedsWholeTransactionsWithRetry); C stays fresh.
  ASSERT_TRUE(a.Get(table).ok());
  ASSERT_TRUE(b.Get(table).ok());
  LeaderStall stall(&rig);
  ASSERT_NO_FATAL_FAILURE(ParkLeaderAndQueueFollower(&rig, &stall, &a, &b));
  auto shed = c.Call(Request::Apply(Update::Insert(table, "c1")));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, RespCode::kRetry) << shed->body;

  stall.Release();
  for (Client* stalled : {&a, &b}) {
    auto resp = stalled->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kOk) << resp->body;
  }
  rig.engine->commit_queue().set_test_hooks({});
  ASSERT_EQ(rig.engine->CommitQueueDepth(), 0u);

  auto retried = c.Call(Request::Apply(Update::Insert(table, "c1")));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->code, RespCode::kOk) << retried->body;
  auto got = c.Get(table);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->find("c1"), std::string::npos) << *got;
}

TEST(NetServerTest, PerOpApplyFacesAdmissionEveryTime) {
  // A connection whose earlier APPLY was admitted has no transaction open
  // under N/H, so its next APPLY faces the queue bound like any other.
  NetRig rig = PerOpSheddingRig();
  const Path table = Path::MustParse("T/data");
  Client a, b, c;
  for (Client* client : {&a, &b, &c}) {
    ASSERT_TRUE(client->Connect("127.0.0.1", rig.port()).ok());
  }
  ASSERT_TRUE(a.Get(table).ok());
  ASSERT_TRUE(b.Get(table).ok());
  ASSERT_TRUE(c.Apply(Update::Insert(table, "c1")).ok());
  const uint64_t retries0 = Count(rig, "cpdb_retries_total");
  LeaderStall stall(&rig);
  ASSERT_NO_FATAL_FAILURE(ParkLeaderAndQueueFollower(&rig, &stall, &a, &b));
  ASSERT_TRUE(c.Send(Request::Apply(Update::Insert(table, "c2"))).ok());
  // Wait for C's answer to be counted as a RETRY, or for its APPLY to
  // join the queue behind the parked leader.
  for (int i = 0; i < 500 && Count(rig, "cpdb_retries_total") == retries0 &&
                  rig.engine->CommitQueueDepth() < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rig.engine->CommitQueueDepth(), 1u);

  stall.Release();
  for (Client* stalled : {&a, &b}) {
    auto resp = stalled->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kOk) << resp->body;
  }
  rig.engine->commit_queue().set_test_hooks({});
  auto shed = c.Recv();
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, RespCode::kRetry) << shed->body;
  auto got = c.Get(table);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->find("c2"), std::string::npos) << *got;
}

// ----- Leader/followers: each request runs on the worker that reads it -------

/// One request's frame, as a client puts it on the wire.
std::string FramedRequest(const Request& req) {
  std::string payload;
  net::EncodeRequest(req, &payload);
  return Framed(payload);
}

/// Reads one response frame off a raw socket.
Response ReadResponse(int fd, FrameReader* reader) {
  std::string payload;
  Status st = net::ReadFrame(fd, reader, &payload);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto resp = net::DecodeResponse(payload);
  EXPECT_TRUE(resp.ok());
  return resp.ok() ? *resp : Response::Error("undecodable");
}

TEST(NetServerTest, BurstLargerThanOneReadIsAnsweredInOrder) {
  // 2,000 APPLYs and a COMMIT in one write: the server reads 16 KiB at a
  // time, so frames straddle reads and several workers may take turns on
  // the connection; every request must still run, once, in order.
  NetRig rig;
  Path table = Path::MustParse("T/data");
  constexpr int kRows = 1000;
  // The field insert fails unless its row insert ran before it, so each
  // OK also proves the order.
  std::string wire;
  for (int i = 0; i < kRows; ++i) {
    const std::string key = "k" + std::to_string(i);
    const Path row = table.Child(key);
    const Value value("v" + key);
    wire += FramedRequest(Request::Apply(Update::Insert(table, key)));
    wire += FramedRequest(Request::Apply(Update::Insert(row, "f1", value)));
  }
  wire += FramedRequest(Request::Commit());
  wire += FramedRequest(Request::Get(table.Child("k999")));
  ASSERT_GT(wire.size(), 3u * 16384);

  int fd = RawConnect(rig.port());
  ASSERT_TRUE(net::WriteRaw(fd, wire).ok());
  FrameReader reader(net::kMaxFramePayload);
  for (int i = 0; i < 2 * kRows + 1; ++i) {
    Response resp = ReadResponse(fd, &reader);
    ASSERT_EQ(resp.code, RespCode::kOk) << i << ": " << resp.body;
  }
  Response got = ReadResponse(fd, &reader);
  EXPECT_EQ(got.code, RespCode::kOk);
  EXPECT_NE(got.body.find("vk999"), std::string::npos) << got.body;
  ::close(fd);
  EXPECT_EQ(Count(rig, "cpdb_requests_total"),
            static_cast<uint64_t>(2 * kRows + 2));
}

TEST(NetServerTest, SlowReaderGetsEveryResponseOnceItReads) {
  // Pipelined GETs whose answers far exceed the socket buffers and the
  // connection's backlog cap: the server parks the connection on
  // EPOLLOUT (and stops reading it) until the client reads, then resumes.
  ServerOptions opts;
  opts.max_conn_outbuf = 256u << 10;
  NetRig rig("", opts);
  Path table = Path::MustParse("T/data");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  const Value filler(std::string(200, 'x'));
  for (int i = 0; i < 200; ++i) {
    const std::string key = "row" + std::to_string(i);
    ASSERT_TRUE(client.Apply(Update::Insert(table, key)).ok());
    const Path row = table.Child(key);
    ASSERT_TRUE(client.Apply(Update::Insert(row, "f1", filler)).ok());
  }
  ASSERT_TRUE(client.Commit().ok());
  auto expected = client.Get(table);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 40000u);

  constexpr int kGets = 200;  // ~8 MB of answers
  for (int i = 0; i < kGets; ++i) {
    ASSERT_TRUE(client.Send(Request::Get(table)).ok());
  }
  // Let the server fill the socket buffers and park on them.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < kGets; ++i) {
    auto resp = client.Recv();
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    ASSERT_EQ(resp->code, RespCode::kOk) << i;
    ASSERT_EQ(resp->body, *expected) << i;
  }
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, PingIsAnsweredWhileALeaderIsParkedInItsSeal) {
  NetRig rig;
  Path table = Path::MustParse("T/data");
  Client a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", rig.port()).ok());
  LeaderStall stall(&rig);
  ASSERT_TRUE(a.Send(Request::Apply(Update::Insert(table, "a1"))).ok());
  ASSERT_TRUE(a.Send(Request::Commit()).ok());
  ASSERT_TRUE(stall.WaitStalled());
  // A's commit occupies one worker; the others keep serving. (Only verbs
  // that take no latch: the parked leader holds it exclusively.)
  EXPECT_TRUE(b.Ping().ok());
  EXPECT_TRUE(b.Metrics().ok());
  stall.Release();
  for (int i = 0; i < 2; ++i) {
    auto resp = a.Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, RespCode::kOk) << resp->body;
  }
  rig.engine->commit_queue().set_test_hooks({});
}

TEST(NetServerTest, OneWorkerServesInterleavedTransactions) {
  ServerOptions opts;
  opts.workers = 1;
  NetRig rig("", opts);
  Path table = Path::MustParse("T/data");
  Client clients[3];
  for (Client& c : clients) {
    ASSERT_TRUE(c.Connect("127.0.0.1", rig.port()).ok());
  }
  // Interleave three transactions request by request, each connection
  // pipelining its own, then collect every answer.
  std::vector<Request> txns[3];
  for (int i = 0; i < 3; ++i) {
    const std::string key = "c" + std::to_string(i);
    const Update field = Update::Insert(table.Child(key), "f1", Value(key));
    txns[i].push_back(Request::Apply(Update::Insert(table, key)));
    txns[i].push_back(Request::Apply(field));
    txns[i].push_back(Request::Commit());
  }
  for (int step = 0; step < 3; ++step) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(clients[i].Send(txns[i][step]).ok());
    }
  }
  for (Client& c : clients) {
    for (int step = 0; step < 3; ++step) {
      auto resp = c.Recv();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->code, RespCode::kOk) << step << ": " << resp->body;
    }
  }
  EXPECT_EQ(Count(rig, "cpdb_commits_total"), 3u);
  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", rig.port()).ok());
  for (const char* key : {"c0", "c1", "c2"}) {
    auto got = probe.Get(table.Child(key));
    ASSERT_TRUE(got.ok());
    EXPECT_NE(got->find(key), std::string::npos) << *got;
  }
}

TEST(NetServerTest, PooledSessionTracesRowsCommittedByOthers) {
  // A session returned to the pool comes back refreshed past other
  // connections' commits; TRACEBACK through it must see them.
  NetRig rig;
  Path row = Path::MustParse("T/data/k1");
  Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", rig.port()).ok());
  {
    Client idle;
    ASSERT_TRUE(idle.Connect("127.0.0.1", rig.port()).ok());
    ASSERT_TRUE(writer.Get(row).ok());  // both lease a session
    ASSERT_TRUE(idle.Get(row).ok());
    ASSERT_TRUE(
        writer.Apply(Update::Insert(Path::MustParse("T/data"), "k1")).ok());
    ASSERT_TRUE(writer.Commit().ok());
  }  // idle closes; its session goes back to the pool
  auto closed = [&] { return Count(rig, "cpdb_connections_closed_total"); };
  for (int i = 0; i < 500 && closed() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(closed(), 1u);

  Client third;
  ASSERT_TRUE(third.Connect("127.0.0.1", rig.port()).ok());
  auto got = third.Get(row);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(*got, "<absent>");
  // The idle connection's session, refreshed in place over the
  // relational target, not a new one.
  EXPECT_EQ(Count(rig, "cpdb_sessions_built_total"), 2u);
  EXPECT_EQ(Count(rig, "cpdb_sessions_refreshed_total"), 1u);
  auto trace = third.TraceBack(row);
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->find("tid=1 op=I"), std::string::npos) << *trace;
}

TEST(NetServerTest, StartRefusesOutOfRangeOptions) {
  // Start refuses each option before it opens a descriptor or starts a
  // worker, so no thread is started for any of these counts.
  relstore::Database db("curated");
  provenance::ProvBackend backend(&db);
  wrap::TreeTargetDb target("T", tree::Tree());
  Engine engine(&backend, &target);
  SessionPool pool(&engine, service::SessionOptions{});
  auto refused = [&](ServerOptions opts) {
    Server server(&engine, &pool, opts);
    return server.Start();
  };
  for (size_t workers : {size_t{0}, SIZE_MAX}) {
    ServerOptions opts;
    opts.workers = workers;
    Status st = refused(opts);
    EXPECT_TRUE(st.IsInvalidArgument()) << workers << ": " << st.ToString();
  }
  for (int port : {-1, 70000}) {
    ServerOptions opts;
    opts.port = port;
    Status st = refused(opts);
    EXPECT_TRUE(st.IsInvalidArgument()) << port << ": " << st.ToString();
  }
}

TEST(NetServerTest, DrainAnswersTheCommitAlreadyRunning) {
  // A drain that starts while a commit is parked in its seal closes the
  // idle connection at once, but answers the running transaction before
  // closing its connection, and only then checkpoints and returns.
  TempDir dir("net_drain_running");
  NetRig rig(dir.path());
  Path table = Path::MustParse("T/data");
  Client a, idle;
  ASSERT_TRUE(a.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(idle.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(idle.Ping().ok());
  LeaderStall stall(&rig);
  ASSERT_TRUE(a.Send(Request::Apply(Update::Insert(table, "a1"))).ok());
  ASSERT_TRUE(a.Send(Request::Commit()).ok());
  ASSERT_TRUE(stall.WaitStalled());

  rig.server->BeginDrain();
  EXPECT_FALSE(idle.Ping().ok());  // closed, not answered
  stall.Release();
  for (int i = 0; i < 2; ++i) {
    auto resp = a.Recv();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->code, RespCode::kOk) << resp->body;
  }
  EXPECT_FALSE(a.Ping().ok());
  rig.server->Wait();
  rig.engine->commit_queue().set_test_hooks({});
  EXPECT_EQ(Count(rig, "cpdb_commits_total"), 1u);
  EXPECT_GT(rig.db->durability()->stats().checkpoints, 0u);
}

// ----- Graceful drain + reopen -----------------------------------------------

std::string DigestVia(Client* client) {
  std::string out;
  auto tids = client->GetMod(Path::MustParse("T"));
  EXPECT_TRUE(tids.ok());
  for (int64_t t : *tids) out += std::to_string(t) + ",";
  out += "\n";
  for (const char* key : {"k1", "k2", "k3"}) {
    Path row = Path::MustParse("T/data").Child(key);
    auto got = client->Get(row);
    EXPECT_TRUE(got.ok());
    out += *got + "\n";
    auto mods = client->GetMod(row);
    EXPECT_TRUE(mods.ok());
    for (int64_t t : *mods) out += std::to_string(t) + ",";
    out += "\n";
    auto trace = client->TraceBack(row);
    EXPECT_TRUE(trace.ok());
    out += *trace + "\n";
  }
  return out;
}

TEST(NetServerTest, DrainRecoversBitIdenticalStateThroughTheSocket) {
  TempDir dir("net_drain");
  std::string digest_before;
  {
    NetRig rig(dir.path());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    Path table = Path::MustParse("T/data");
    for (const char* key : {"k1", "k2", "k3"}) {
      ASSERT_TRUE(client.Apply(Update::Insert(table, key)).ok());
      ASSERT_TRUE(
          client.Apply(Update::Insert(table.Child(key), "f1",
                                      Value(std::string("val-") + key)))
              .ok());
      ASSERT_TRUE(client.Commit().ok());
    }
    // Mutate k2 in a later transaction so the provenance is layered.
    ASSERT_TRUE(
        client.Apply(Update::Delete(Path::MustParse("T/data/k2"), "f1")).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(Path::MustParse("T/data/k2"), "f2",
                                    Value("rewritten")))
            .ok());
    ASSERT_TRUE(client.Commit().ok());

    digest_before = DigestVia(&client);

    // DRAIN over the wire (the SIGTERM path calls the same BeginDrain).
    ASSERT_TRUE(client.Drain().ok());
    rig.server->Wait();
    // The drain finished in-flight work, flushed, and checkpointed.
    EXPECT_GT(rig.db->durability()->stats().checkpoints, 0u);
  }
  {
    NetRig rig(dir.path());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    EXPECT_EQ(DigestVia(&client), digest_before);
    // And the reopened engine keeps numbering where the drained one
    // stopped: a new commit gets a fresh tid, visible via GetMod.
    ASSERT_TRUE(
        client.Apply(Update::Insert(Path::MustParse("T/data"), "k4")).ok());
    ASSERT_TRUE(client.Commit().ok());
    auto tids = client.GetMod(Path::MustParse("T"));
    ASSERT_TRUE(tids.ok());
    EXPECT_EQ(tids->back(), 5);
  }
}

TEST(NetServerTest, PasteOverATupleAnswersTheSameAcrossRestart) {
  // A paste replaces the whole tuple in the universe, so the relational
  // target must drop the columns the pasted subtree lacks: otherwise the
  // acknowledged answer changes once the store is reopened.
  TempDir dir("net_paste");
  const Path table = Path::MustParse("T/data");
  std::string before;
  {
    NetRig rig(dir.path());
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    ASSERT_TRUE(client.Apply(Update::Insert(table, "k1")).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(table.Child("k1"), "f1", Value("a"))).ok());
    ASSERT_TRUE(client.Apply(Update::Insert(table, "k2")).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(table.Child("k2"), "f1", Value("x"))).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(table.Child("k2"), "f2", Value("y"))).ok());
    ASSERT_TRUE(client.Commit().ok());
    ASSERT_TRUE(
        client.Apply(Update::Copy(table.Child("k1"), table.Child("k2"))).ok());
    ASSERT_TRUE(client.Commit().ok());
    auto got = client.Get(table.Child("k2"));
    ASSERT_TRUE(got.ok());
    before = *got;
    EXPECT_NE(before.find("\"a\""), std::string::npos) << before;
    EXPECT_EQ(before.find("\"y\""), std::string::npos) << before;
    ASSERT_TRUE(client.Drain().ok());
    rig.server->Wait();
  }
  NetRig rig(dir.path());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  auto after = client.Get(table.Child("k2"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, before);
}

// ----- Observability over the wire -------------------------------------------

TEST(NetObservabilityTest, MetricsVerbServesPrometheusExposition) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  Path table = Path::MustParse("T/data");
  ASSERT_TRUE(client.Apply(Update::Insert(table, "m1")).ok());
  ASSERT_TRUE(client.Commit().ok());

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& m = *metrics;
  // The acceptance surface: commit pipeline, cohort distribution, latch
  // waits, gauges, and per-verb request latency all expose as properly
  // typed series.
  EXPECT_NE(m.find("# TYPE cpdb_commits_total counter\n"), std::string::npos)
      << m;
  EXPECT_NE(m.find("cpdb_commits_total 1\n"), std::string::npos);
  EXPECT_NE(m.find("# TYPE cpdb_commit_stage_us histogram\n"),
            std::string::npos);
  EXPECT_NE(m.find("cpdb_commit_stage_us_count{stage=\"total\"} 1\n"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("cpdb_commit_cohort_size_count 1\n"), std::string::npos);
  EXPECT_NE(m.find("# TYPE cpdb_latch_excl_wait_us histogram\n"),
            std::string::npos);
  EXPECT_NE(m.find("# TYPE cpdb_max_cohort gauge\n"), std::string::npos);
  EXPECT_NE(m.find("cpdb_request_us_bucket{verb=\"COMMIT\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("cpdb_requests_total"), std::string::npos);
  // Every per-verb series names a live verb: the retired tags have none.
  EXPECT_EQ(m.find("verb=\"?\""), std::string::npos) << m;
  // In-memory rig: the durability series must be ABSENT, not zero.
  EXPECT_EQ(m.find("cpdb_fsyncs_total"), std::string::npos);
  EXPECT_NE(m.find("cpdb_durable 0\n"), std::string::npos);
}

TEST(NetObservabilityTest, DurableServerExposesWalSeries) {
  TempDir dir("net_metrics_wal");
  NetRig rig(dir.path());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(
      client.Apply(Update::Insert(Path::MustParse("T/data"), "w1")).ok());
  ASSERT_TRUE(client.Commit().ok());

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("# TYPE cpdb_wal_fsync_us histogram\n"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("cpdb_durable 1\n"), std::string::npos);
  // One commit at one thread = exactly one seal = one fsync series point.
  EXPECT_NE(metrics->find("\ncpdb_wal_fsync_us_count 1\n"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\ncpdb_fsyncs_total "), std::string::npos);
}

/// The `# TYPE <name> <type>` lines of an exposition.
std::set<std::string> TypeLines(const std::string& exposition) {
  std::set<std::string> lines;
  for (size_t at = exposition.find("# TYPE "); at != std::string::npos;
       at = exposition.find("# TYPE ", at + 1)) {
    lines.insert(exposition.substr(at, exposition.find('\n', at) - at));
  }
  return lines;
}

/// The OPERATOR_GUIDE metrics catalogue: every series a server exports,
/// with its type.
std::set<std::string> MetricsContract(bool durable) {
  std::set<std::string> lines;
  auto type = [&lines](const std::string& name, const char* kind) {
    lines.insert("# TYPE " + name + " " + kind);
  };
  for (const char* h :
       {"cpdb_latch_excl_wait_us", "cpdb_latch_shared_wait_us",
        "cpdb_commit_stage_us", "cpdb_commit_cohort_size",
        "cpdb_request_us"}) {
    type(h, "histogram");
  }
  for (const char* c :
       {"cpdb_commits_total", "cpdb_cohorts_total", "cpdb_combined_total",
        "cpdb_snapshot_rebuilds_total", "cpdb_snapshot_rebuild_rows_total",
        "cpdb_slow_commits_total", "cpdb_traces_recorded_total",
        "cpdb_slow_queries_total", "cpdb_sessions_built_total",
        "cpdb_sessions_reused_total", "cpdb_sessions_refreshed_total",
        "cpdb_connections_accepted_total", "cpdb_connections_closed_total",
        "cpdb_requests_total", "cpdb_retries_total", "cpdb_bad_frames_total",
        "cpdb_bad_requests_total"}) {
    type(c, "counter");
  }
  for (const char* g :
       {"cpdb_commit_queue_depth", "cpdb_max_cohort", "cpdb_last_tid",
        "cpdb_committed_tid", "cpdb_durable", "cpdb_server_draining",
        "cpdb_inflight_bytes"}) {
    type(g, "gauge");
  }
  if (durable) {
    type("cpdb_wal_fsync_us", "histogram");
    type("cpdb_wal_append_us", "histogram");
    type("cpdb_fsyncs_total", "counter");
    type("cpdb_log_bytes_total", "counter");
    type("cpdb_replayed_commits_total", "counter");
  }
  return lines;
}

TEST(NetObservabilityTest, MetricsSeriesAreTheOperatorGuideContract) {
  for (bool durable : {true, false}) {
    SCOPED_TRACE(durable ? "durable" : "in-memory");
    TempDir dir("net_metrics_contract");
    NetRig rig(durable ? dir.path() : "");
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(Path::MustParse("T/data"), "g1")).ok());
    ASSERT_TRUE(client.Commit().ok());
    auto metrics = client.Metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    // Exact set, so the durable series are also pinned ABSENT in memory.
    EXPECT_EQ(TypeLines(*metrics), MetricsContract(durable)) << *metrics;
    EXPECT_NE(metrics->find("\ncpdb_commits_total 1\n"), std::string::npos)
        << *metrics;
  }
}

// ----- End-to-end request tracing --------------------------------------------

/// The span's own fields (its children excluded) of the first span of
/// `kind` inside a TRACES/EXPLAIN JSON dump; "" when there is none.
std::string SpanText(const std::string& json, const std::string& kind) {
  size_t at = json.find("\"kind\":\"" + kind + "\"");
  if (at == std::string::npos) return "";
  size_t begin = json.rfind("{\"span_id\":", at);
  return json.substr(begin, json.find(",\"children\":", at) - begin);
}

/// Extracts the numeric value of `field` (e.g. "\"rows\":",
/// "\"start_us\":") from the first span object of `kind`. Returns -1
/// when the kind or field is missing.
double SpanField(const std::string& json, const std::string& kind,
                 const std::string& field) {
  std::string span = SpanText(json, kind);
  size_t at = span.find(field);
  if (at == std::string::npos) return -1;
  return std::strtod(span.c_str() + at + field.size(), nullptr);
}

/// The detail string of the first span of `kind`; "" when absent.
std::string SpanDetail(const std::string& json, const std::string& kind) {
  const std::string key = "\"detail\":\"";
  std::string span = SpanText(json, kind);
  size_t at = span.find(key);
  if (at == std::string::npos) return "";
  at += key.size();
  return span.substr(at, span.find('"', at) - at);
}

/// The first commit tree in `json`: commit.execute's four stage children
/// abut — each starts where the previous one ended — and fit inside it,
/// to within 1 us (the JSON renders micros to three decimals).
void ExpectCommitStagesAbut(const std::string& json) {
  const double exec_start =
      SpanField(json, "commit.execute", "\"start_us\":");
  const double exec_end =
      exec_start + SpanField(json, "commit.execute", "\"dur_us\":");
  ASSERT_GT(exec_start, 0) << json;
  double prev_end = exec_start;
  for (const char* kind :
       {"commit.queue", "commit.apply", "commit.seal", "commit.wake"}) {
    SCOPED_TRACE(kind);
    const double start = SpanField(json, kind, "\"start_us\":");
    const double dur = SpanField(json, kind, "\"dur_us\":");
    ASSERT_GE(dur, 0) << json;
    if (std::string(kind) == "commit.queue") {
      EXPECT_GE(start + 1.0, exec_start) << json;  // enqueued after open
    } else {
      EXPECT_NEAR(start, prev_end, 1.0) << json;
    }
    prev_end = start + dur;
  }
  EXPECT_LE(prev_end, exec_end + 1.0) << json;
}

/// The TRACES dump from its "slow" array on; "" when that array is empty.
std::string SlowArray(const std::string& traces) {
  size_t at = traces.find("\"slow\":[{");
  return at == std::string::npos ? "" : traces.substr(at);
}

TEST(NetObservabilityTest, SlowCommitLandsInTracesSlowArray) {
  NetRig rig;
  service::CommitQueue::TestHooks hooks;
  hooks.before_seal = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  rig.engine->commit_queue().set_test_hooks(hooks);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(
      client.Apply(Update::Insert(Path::MustParse("T/data"), "slow")).ok());
  // Armed after the APPLY, so the COMMIT is the one watched request.
  rig.engine->spans().SetSlowThresholdUs(1000);  // 1ms
  ASSERT_TRUE(client.Commit().ok());

  auto traces = client.Traces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_NE(traces->find("\"slow_recorded\":1"), std::string::npos)
      << *traces;
  // The slow commit is a span tree in the one store, captured unsampled:
  // the slow array's one root is the COMMIT.
  const std::string slow = SlowArray(*traces);
  ASSERT_NE(slow, "") << *traces;
  EXPECT_EQ(slow.find("\"kind\":\"server."),
            slow.find("\"kind\":\"server.COMMIT\""))
      << *traces;
  EXPECT_NE(slow.find("\"kind\":\"commit.seal\""), std::string::npos);
  EXPECT_EQ(SpanField(slow, "commit.execute", "\"tid\":"), 1) << slow;
  // The one COMMIT formed a cohort of one and led it.
  EXPECT_EQ(SpanDetail(slow, "commit.execute"), "cohort_size=1 leader=1")
      << slow;
  ExpectCommitStagesAbut(slow);
  // The slow-commit counter rides the metrics surface too.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("cpdb_slow_commits_total 1\n"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("cpdb_slow_queries_total 0\n"), std::string::npos);
}

TEST(NetObservabilityTest, SlowStrategyHApplyLandsInTracesSlowArray) {
  // Per-op strategies commit inside APPLY: the same commit.execute tree
  // hangs under server.APPLY.
  service::SessionOptions sopts;
  sopts.strategy = provenance::Strategy::kHierarchical;
  NetRig rig("", {}, sopts);
  service::CommitQueue::TestHooks hooks;
  hooks.before_seal = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  rig.engine->commit_queue().set_test_hooks(hooks);
  rig.engine->spans().SetSlowThresholdUs(1000);  // 1ms

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(
      client.Apply(Update::Insert(Path::MustParse("T/data"), "h1")).ok());

  auto traces = client.Traces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  const std::string slow = SlowArray(*traces);
  ASSERT_NE(slow, "") << *traces;
  EXPECT_EQ(slow.find("\"kind\":\"server."),
            slow.find("\"kind\":\"server.APPLY\""))
      << *traces;
  EXPECT_EQ(SpanField(slow, "commit.execute", "\"tid\":"), 1) << slow;
  EXPECT_EQ(SpanDetail(slow, "commit.execute").rfind("cohort_size=1 ", 0), 0u)
      << slow;
  ExpectCommitStagesAbut(slow);
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("cpdb_slow_commits_total 1\n"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("cpdb_slow_queries_total 0\n"), std::string::npos);
}

TEST(NetTracingTest, SampledGetModProducesFullTraceTree) {
  NetRig rig;
  Path table = Path::MustParse("T/data");
  Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(writer.Apply(Update::Insert(table, "k1")).ok());
  ASSERT_TRUE(
      writer.Apply(Update::Insert(table.Child("k1"), "f1", Value("v"))).ok());
  ASSERT_TRUE(writer.Commit().ok());

  // A FRESH connection so the traced request also pays (and records)
  // session acquisition: the trace shows server -> session -> query.
  Client traced;
  ASSERT_TRUE(traced.Connect("127.0.0.1", rig.port()).ok());
  traced.set_trace_sampling(1, /*seed=*/42);
  auto tids = traced.GetMod(table.Child("k1"));
  ASSERT_TRUE(tids.ok()) << tids.status().ToString();
  ASSERT_NE(traced.last_trace_id(), 0u);
  EXPECT_GE(rig.engine->spans().recorded(), 1u);

  auto traces = traced.Traces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  // The whole tree hangs under the client's trace id...
  EXPECT_NE(traces->find("\"trace_id\":" +
                         std::to_string(traced.last_trace_id())),
            std::string::npos)
      << *traces;
  // ...with the server root and every stage the request went through.
  for (const char* kind :
       {"server.GETMOD", "session.acquire", "session.latch_wait",
        "query.execute"}) {
    EXPECT_NE(traces->find(std::string("\"kind\":\"") + kind + "\""),
              std::string::npos)
        << kind << " missing in " << *traces;
  }
  // The query span is cost-attributed from the session CostModel: the
  // provenance scan fetched at least one row over at least one call.
  EXPECT_GE(SpanField(*traces, "query.execute", "\"rows\":"), 1);
  EXPECT_GE(SpanField(*traces, "query.execute", "\"round_trips\":"), 1);
  // The trace counter rides the metrics surface.
  auto metrics = traced.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("cpdb_traces_recorded_total"), std::string::npos);
}

TEST(NetTracingTest, UnsampledRequestsRecordNothing) {
  NetRig rig;
  Path table = Path::MustParse("T/data");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(client.Apply(Update::Insert(table, "k1")).ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.GetMod(table.Child("k1")).ok());
  ASSERT_TRUE(client.Get(table).ok());

  // No sampling armed, no slow threshold: the span store never sees a
  // single span (the null-tracer fast path).
  EXPECT_EQ(client.last_trace_id(), 0u);
  EXPECT_EQ(rig.engine->spans().recorded(), 0u);
  EXPECT_EQ(rig.engine->spans().slow_recorded(), 0u);
  auto traces = client.Traces();
  ASSERT_TRUE(traces.ok());
  EXPECT_NE(traces->find("\"recorded\":0"), std::string::npos) << *traces;
  EXPECT_NE(traces->find("\"traces\":[]"), std::string::npos) << *traces;
}

TEST(NetTracingTest, ExplainMatchesSessionCostModelAcrossStrategies) {
  const provenance::Strategy kStrategies[] = {
      provenance::Strategy::kNaive, provenance::Strategy::kHierarchical,
      provenance::Strategy::kTransactional,
      provenance::Strategy::kHierarchicalTransactional};
  for (provenance::Strategy strategy : kStrategies) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    service::SessionOptions sopts;
    sopts.strategy = strategy;
    NetRig rig("", {}, sopts);
    Path table = Path::MustParse("T/data");
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    ASSERT_TRUE(client.Apply(Update::Insert(table, "k1")).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(table.Child("k1"), "f1", Value("v")))
            .ok());
    ASSERT_TRUE(client.Commit().ok());

    // Measure the SAME query against the SAME committed state through an
    // independent session's CostModel — the EXPLAIN counters must agree.
    uint64_t want_rows = 0, want_calls = 0;
    {
      auto acquired = rig.pool->Acquire();
      ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
      std::unique_ptr<service::Session> s = std::move(*acquired);
      auto guard = s->ReadLock();
      relstore::CostSnapshot before = s->cost().Snap();
      auto mods = s->query()->GetMod(table.Child("k1"));
      ASSERT_TRUE(mods.ok()) << mods.status().ToString();
      relstore::CostSnapshot after = s->cost().Snap();
      want_rows = after.rows - before.rows;
      want_calls = after.calls - before.calls;
    }
    ASSERT_GE(want_calls, 1u);  // the comparison must not be vacuous

    auto explained = client.Explain(net::ReqType::kGetMod, table.Child("k1"));
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_NE(explained->find("\"kind\":\"server.EXPLAIN\""),
              std::string::npos)
        << *explained;
    EXPECT_NE(explained->find("\"detail\":\"GETMOD\""), std::string::npos);
    EXPECT_EQ(SpanField(*explained, "query.execute", "\"rows\":"),
              static_cast<double>(want_rows))
        << *explained;
    EXPECT_EQ(SpanField(*explained, "query.execute", "\"round_trips\":"),
              static_cast<double>(want_calls))
        << *explained;
  }
}

TEST(NetTracingTest, SlowQueryLandsInSlowRing) {
  NetRig rig;
  // Sub-microsecond threshold: every query is an offender. The capture
  // must work WITHOUT client-side sampling — that is the whole point of
  // the server-side slow watch.
  rig.engine->spans().SetSlowThresholdUs(0.001);
  Path table = Path::MustParse("T/data");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(client.Apply(Update::Insert(table, "s1")).ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_TRUE(client.GetMod(table.Child("s1")).ok());

  EXPECT_GE(rig.engine->spans().slow_recorded(), 1u);
  // Slow-only capture: nothing was sampled, so the recent rings (and the
  // sampled-trace counter) stay empty.
  EXPECT_EQ(rig.engine->spans().recorded(), 0u);
  auto traces = client.Traces();
  ASSERT_TRUE(traces.ok());
  EXPECT_NE(traces->find("\"slow_threshold_us\":"), std::string::npos);
  size_t slow_at = traces->find("\"slow\":[{");
  ASSERT_NE(slow_at, std::string::npos) << *traces;
  EXPECT_NE(traces->find("\"kind\":\"server.GETMOD\"", slow_at),
            std::string::npos)
      << *traces;
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("cpdb_slow_queries_total"), std::string::npos);
}

TEST(NetTracingTest, SampledCommitLinksQueueStageSpans) {
  NetRig rig;
  Path table = Path::MustParse("T/data");
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  client.set_trace_sampling(1, /*seed=*/7);
  ASSERT_TRUE(client.Apply(Update::Insert(table, "c1")).ok());
  ASSERT_TRUE(client.Commit().ok());
  ASSERT_NE(client.last_trace_id(), 0u);

  auto traces = client.Traces();
  ASSERT_TRUE(traces.ok());
  // The commit trace carries its path through the group-commit pipeline:
  // the queue appends its stage spans under the session's commit.execute.
  for (const char* kind :
       {"server.COMMIT", "commit.execute", "commit.queue", "commit.apply",
        "commit.seal", "commit.wake"}) {
    EXPECT_NE(traces->find(std::string("\"kind\":\"") + kind + "\""),
              std::string::npos)
        << kind << " missing in " << *traces;
  }
  // commit.execute carries the committed tid and the cohort detail.
  EXPECT_EQ(SpanField(*traces, "commit.execute", "\"tid\":"), 1);
  EXPECT_EQ(SpanDetail(*traces, "commit.execute"), "cohort_size=1 leader=1");
}

TEST(NetTracingTest, CommitStagesAbutInsideCommitExecute) {
  // Two sampled connections commit concurrently, so the traces include
  // whatever cohort shapes the race produces; every commit tree's stages
  // are cut at the leader's shared stamps and abut regardless.
  NetRig rig;
  Path table = Path::MustParse("T/data");
  constexpr int kTxns = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
      client.set_trace_sampling(1, /*seed=*/11 + w);
      for (int i = 0; i < kTxns; ++i) {
        ASSERT_TRUE(client
                        .Apply(Update::Insert(
                            table, "w" + std::to_string(w) + "_" +
                                       std::to_string(i)))
                        .ok());
        ASSERT_TRUE(client.Commit().ok());
      }
    });
  }
  for (auto& th : writers) th.join();

  Client reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", rig.port()).ok());
  auto traces = reader.Traces();
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  const std::string root = "\"kind\":\"server.COMMIT\"";
  int trees = 0;
  for (size_t at = traces->find(root); at != std::string::npos;
       at = traces->find(root, at + 1)) {
    SCOPED_TRACE(trees);
    ExpectCommitStagesAbut(traces->substr(at));
    ++trees;
  }
  EXPECT_EQ(trees, 2 * kTxns);
}

// ----- Client retry/backoff --------------------------------------------------

TEST(NetRetryTest, BackoffIsCappedJitteredAndDeterministic) {
  net::RetryPolicy policy;
  policy.base_backoff_ms = 2;
  policy.max_backoff_ms = 250;
  policy.jitter_seed = 99;
  for (size_t attempt = 1; attempt <= 12; ++attempt) {
    uint64_t base = policy.base_backoff_ms;
    for (size_t i = 1; i < attempt && base < policy.max_backoff_ms; ++i) {
      base *= 2;
    }
    if (base > policy.max_backoff_ms) base = policy.max_backoff_ms;
    const uint64_t ms = net::RetryBackoffMs(policy, attempt, /*salt=*/5);
    // Within +/-25% of the capped exponential...
    EXPECT_GE(ms, base - base / 4) << "attempt " << attempt;
    EXPECT_LE(ms, base + base / 4) << "attempt " << attempt;
    // ...and reproducible: the jitter is a hash, not a clock.
    EXPECT_EQ(ms, net::RetryBackoffMs(policy, attempt, 5));
  }
  // Different connections (seeds) must not back off in lockstep forever.
  net::RetryPolicy other = policy;
  other.jitter_seed = 100;
  bool differs = false;
  for (size_t attempt = 5; attempt <= 12 && !differs; ++attempt) {
    differs = net::RetryBackoffMs(other, attempt, 5) !=
              net::RetryBackoffMs(policy, attempt, 5);
  }
  EXPECT_TRUE(differs);
}

TEST(NetServerTest, DrainingServerRejectsNewWork) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  rig.server->BeginDrain();
  rig.server->Wait();
  // The drained server closed its listener and every connection.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", rig.port()).ok() &&
               late.Ping().ok());
}

// A failed seal publishes nothing and stops the engine: the watermark
// stays put, the pool hands out no session, and every session verb
// answers Unavailable while the admin verbs still answer. The WAL append
// fails on a file-size limit, set in a child process so that no other
// test runs under it.
TEST(NetServerTest, FailedSealPublishesNothingAndStopsTheEngine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        auto check = [](bool ok, const char* what) {
          if (ok) return;
          std::fprintf(stderr, "check failed: %s\n", what);
          std::_Exit(1);
        };
        TempDir dir("net_failed_seal");
        NetRig rig(dir.path());
        Client client;
        check(client.Connect("127.0.0.1", rig.port()).ok(), "connect");
        const Path table = Path::MustParse("T/data");
        check(client.Apply(Update::Insert(table, "kept")).ok() &&
                  client.Commit().ok(),
              "the first commit succeeds");
        check(rig.engine->CommittedTid() == 1, "the first commit is published");

        // Cap this process's files at the log's size, so the next seal's
        // append fails (EFBIG, with SIGXFSZ ignored); lift the cap again
        // once the commit has answered.
        const uint64_t wal_size = std::filesystem::file_size(
            storage::Durability::WalPath(dir.path()));
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit saved{};
        check(::getrlimit(RLIMIT_FSIZE, &saved) == 0, "getrlimit");
        rlimit cap = saved;
        cap.rlim_cur = static_cast<rlim_t>(wal_size);
        check(::setrlimit(RLIMIT_FSIZE, &cap) == 0, "setrlimit");
        check(client.Apply(Update::Insert(table, "lost")).ok(), "the apply");
        Status commit = client.Commit();
        check(::setrlimit(RLIMIT_FSIZE, &saved) == 0, "setrlimit");
        check(!commit.ok(), "the capped commit fails");

        check(rig.engine->CommittedTid() == 1,
              "the failed cohort is not published");
        check(rig.pool->Acquire().status().IsUnavailable(),
              "the pool refuses sessions");
        Client fresh;
        check(fresh.Connect("127.0.0.1", rig.port()).ok(), "connect");
        const Path lost = table.Child("lost");
        for (Client* c : {&client, &fresh}) {
          for (const Request& req :
               {Request::Apply(Update::Insert(table, "k")), Request::Commit(),
                Request::Abort(), Request::GetMod(lost),
                Request::TraceBack(lost), Request::Get(lost),
                Request::Explain(net::ReqType::kGet, lost)}) {
            auto resp = c->Call(req);
            check(resp.ok() && resp->code == RespCode::kError &&
                      resp->body.rfind("Unavailable", 0) == 0,
                  "a session verb answers Unavailable");
          }
          check(c->Ping().ok() && c->Metrics().ok() && c->Traces().ok(),
                "the admin verbs answer");
        }
        std::fprintf(stderr, "engine stopped\n");
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "engine stopped");
}

}  // namespace
}  // namespace cpdb
