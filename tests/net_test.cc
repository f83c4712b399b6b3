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

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/metrics_http.h"
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
using net::FrameReader;
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

// ----- Frame unit tests ------------------------------------------------------

std::string Framed(const std::string& payload) {
  std::string out;
  net::EncodeFrame(payload, &out);
  return out;
}

TEST(FrameTest, RoundTripsPayloads) {
  for (const std::string payload :
       {std::string(), std::string("x"), std::string(1000, 'q'),
        std::string("\x00\xff\x7f", 3)}) {
    FrameReader reader;
    std::string wire = Framed(payload);
    reader.Append(wire.data(), wire.size());
    std::string got;
    ASSERT_EQ(reader.Next(&got), FrameReader::Event::kFrame);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(reader.Next(&got), FrameReader::Event::kNeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameTest, ReassemblesTornDelivery) {
  // Feed a pipelined pair of frames one byte at a time: every prefix is a
  // legal torn read and must parse to exactly the two payloads.
  std::string wire = Framed("first payload") + Framed("second");
  FrameReader reader;
  std::vector<std::string> got;
  std::string payload;
  for (char c : wire) {
    reader.Append(&c, 1);
    while (reader.Next(&payload) == FrameReader::Event::kFrame) {
      got.push_back(payload);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first payload");
  EXPECT_EQ(got[1], "second");
}

TEST(FrameTest, BitFlipFailsCrcAndPoisons) {
  std::string wire = Framed("the payload under test");
  wire[wire.size() - 3] ^= 0x20;  // flip one payload bit
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kBadCrc);
  // Terminal: even appending a pristine frame cannot revive the stream.
  std::string good = Framed("good");
  reader.Append(good.data(), good.size());
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kBadCrc);
}

TEST(FrameTest, OversizedLengthRejectedWithoutAllocating) {
  std::string wire;
  PutVarint64(&wire, net::kMaxFramePayload + 1);
  wire += std::string(4, '\0');
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kTooLarge);
}

TEST(FrameTest, GarbageVarintIsMalformed) {
  std::string wire(kMaxVarint64Bytes + 2, '\xff');
  FrameReader reader;
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kMalformed);
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
      Request::Stats(),
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
        Response::Error("it broke"), Response::Retry("busy"),
        Response::Draining("bye")}) {
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
}

TEST(ProtocolTest, RetiredTagIsRejectedLikeAnUnknownOne) {
  // Tag 12 named a verb whose records now live in TRACES. It decodes to
  // the same typed error as an out-of-range tag, bare or with a trace
  // context, so it can never reach the server's verb dispatch.
  EXPECT_FALSE(net::IsReqType(net::kRetiredTag));
  auto unknown = net::DecodeRequest("\x7f");
  ASSERT_FALSE(unknown.ok());
  std::string bare(1, static_cast<char>(net::kRetiredTag));
  std::string traced;
  PutVarint64(&traced, net::kRetiredTag | 0x80);
  traced += std::string("\x05\x00\x01", 3);  // trace 5, parent 0, sampled
  for (const std::string& wire : {bare, traced}) {
    auto retired = net::DecodeRequest(wire);
    ASSERT_FALSE(retired.ok());
    EXPECT_EQ(retired.status().code(), unknown.status().code());
    EXPECT_NE(retired.status().ToString().find("unknown type 12"),
              std::string::npos)
        << retired.status().ToString();
  }
  // Its neighbours are live verbs.
  for (Request req : {Request::Metrics(), Request::Traces()}) {
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
                            net::ReqType::kStats}) {
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
      EXPECT_TRUE(db->CreateTable("data", schema).ok());
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
    if (db != nullptr) EXPECT_TRUE(db->Close().ok());
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

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"last_tid\":1"), std::string::npos) << *stats;
  // The MVCC surface is visible to operators: the committed watermark,
  // the version chain, and the parallel-apply counters all ride STATS.
  EXPECT_NE(stats->find("\"committed_tid\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"versions_live\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"parallel_cohorts\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"snapshot_rebuilds\":"), std::string::npos)
      << *stats;

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
  FrameReader reader;
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
  // The retired tag 12 is just as undecodable over the wire.
  ExpectErrorThenClose(&rig, Framed(std::string(1, '\x0c')));
  EXPECT_GE(Count(rig, "cpdb_bad_requests_total"), 2u);
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
  FrameReader reader;
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
  Mutex mu;
  CondVar cv;
  bool release = false;
  service::CommitQueue::TestHooks hooks;
  hooks.before_seal = [&](size_t) {
    MutexLock l(mu);
    while (!release) cv.Wait(mu);
  };
  rig.engine->commit_queue().set_test_hooks(hooks);
  // Whatever happens below (including an early ASSERT), the leader must
  // be released before the rig's destructor drains, or teardown hangs.
  struct Releaser {
    Mutex* mu;
    CondVar* cv;
    bool* release;
    ~Releaser() {
      MutexLock l(*mu);
      *release = true;
      cv->NotifyAll();
    }
  } releaser{&mu, &cv, &release};

  // A: commits and becomes the (stalled) leader.
  ASSERT_TRUE(a.Send(Request::Apply(Update::Insert(table, "a1"))).ok());
  ASSERT_TRUE(a.Send(Request::Commit()).ok());
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

  {
    MutexLock l(mu);
    release = true;
    cv.NotifyAll();
  }
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
  // waits, snapshot gauges, and per-verb request latency all expose as
  // properly typed series.
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
  EXPECT_NE(m.find("# TYPE cpdb_versions_live gauge\n"), std::string::npos);
  EXPECT_NE(m.find("cpdb_request_us_bucket{verb=\"COMMIT\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("cpdb_requests_total"), std::string::npos);
  // Every per-verb series names a live verb: the retired tag has none.
  EXPECT_EQ(m.find("verb=\"?\""), std::string::npos) << m;
  // In-memory rig: the durability series must be ABSENT, not zero.
  EXPECT_EQ(m.find("cpdb_fsyncs_total"), std::string::npos);
  EXPECT_NE(m.find("cpdb_durable 0\n"), std::string::npos);

  // STATS renders from the same registry: a counter visible in the
  // exposition appears under its JSON name with the same value.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"commits\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"commit_total_us_count\":1"), std::string::npos)
      << *stats;
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
  EXPECT_NE(metrics->find("cpdb_fsyncs_total"), std::string::npos);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"fsyncs\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"wal_fsync_us_count\":"), std::string::npos);
}

/// The keys of a flat STATS object, in render order (every STATS value
/// is a number, so every quoted token is a key).
std::vector<std::string> StatsKeys(const std::string& json) {
  std::vector<std::string> keys;
  for (size_t at = json.find('"'); at != std::string::npos;
       at = json.find('"', at)) {
    size_t end = json.find('"', at + 1);
    keys.push_back(json.substr(at + 1, end - at - 1));
    at = end + 1;
  }
  return keys;
}

/// The OPERATOR_GUIDE STATS contract: every key, in order. Histogram `k`
/// renders as k_count, k_p50_us, k_p99_us, k_p999_us, k_mean_us.
std::vector<std::string> StatsContract(bool durable) {
  std::vector<std::string> keys;
  auto hist = [&keys](const std::string& k) {
    for (const char* suffix :
         {"_count", "_p50_us", "_p99_us", "_p999_us", "_mean_us"}) {
      keys.push_back(k + suffix);
    }
  };
  for (const char* h :
       {"latch_excl_wait_us", "latch_shared_wait_us", "commit_queue_us",
        "commit_apply_us", "commit_seal_us", "commit_wake_us",
        "commit_total_us", "cohort_size", "parallel_batch_size"}) {
    hist(h);
  }
  if (durable) {
    hist("wal_fsync_us");
    hist("wal_append_us");
  }
  keys.insert(keys.end(),
              {"queue_depth", "commits", "cohorts", "combined", "max_cohort",
               "parallel_cohorts", "parallel_applies", "last_tid",
               "committed_tid", "epoch", "versions_live",
               "versions_published", "versions_gced", "snapshot_rebuilds",
               "snapshot_rebuild_rows", "snapshot_refreshes", "slow_commits",
               "traces_recorded", "slow_queries", "durable"});
  if (durable) {
    keys.insert(keys.end(), {"fsyncs", "log_bytes", "replayed_commits"});
  }
  keys.insert(keys.end(),
              {"draining", "accepted", "closed", "requests", "retries",
               "bad_frames", "bad_requests", "inflight_bytes",
               "sessions_built", "sessions_reused", "sessions_refreshed"});
  for (const char* verb :
       {"apply", "commit", "abort", "getmod", "traceback", "get"}) {
    hist(std::string("req_") + verb + "_us");
  }
  return keys;
}

TEST(NetObservabilityTest, StatsKeysAreTheOperatorGuideContract) {
  for (bool durable : {true, false}) {
    SCOPED_TRACE(durable ? "durable" : "in-memory");
    TempDir dir("net_stats_contract");
    NetRig rig(durable ? dir.path() : "");
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
    ASSERT_TRUE(
        client.Apply(Update::Insert(Path::MustParse("T/data"), "g1")).ok());
    ASSERT_TRUE(client.Commit().ok());
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Exact list, so the durable keys are also pinned ABSENT in memory.
    EXPECT_EQ(StatsKeys(*stats), StatsContract(durable)) << *stats;
    EXPECT_NE(stats->find("\"commits\":1,"), std::string::npos) << *stats;
  }
}

TEST(NetObservabilityTest, HttpMetricsEndpointAnswersScrapers) {
  NetRig rig;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(
      client.Apply(Update::Insert(Path::MustParse("T/data"), "h1")).ok());
  ASSERT_TRUE(client.Commit().ok());

  net::MetricsHttpServer http(&rig.engine->metrics(), "127.0.0.1", 0);
  ASSERT_TRUE(http.Start().ok());
  ASSERT_GT(http.port(), 0);

  auto http_get = [&](const std::string& request) {
    int fd = RawConnect(http.port());
    EXPECT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  };

  std::string ok = http_get("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(ok.find("cpdb_commits_total 1\n"), std::string::npos) << ok;
  EXPECT_NE(ok.find("# TYPE cpdb_commit_stage_us histogram"),
            std::string::npos);

  std::string miss = http_get("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(miss.find("404"), std::string::npos) << miss;
  std::string post = http_get("POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;

  http.Stop();
  // Stop() is idempotent and the port is released for reuse.
  http.Stop();
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
  // Claims are target-relative (the conflict-check granularity): the
  // write under T/data claims the "data" subtree.
  EXPECT_NE(SpanDetail(slow, "commit.execute").find("claims=data"),
            std::string::npos)
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
  EXPECT_EQ(SpanDetail(*traces, "commit.execute"),
            "cohort_size=1 leader=1 parallel=0 claims=data");
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

TEST(NetRetryTest, CallRetryingGivesUpAfterMaxAttemptsOnShed) {
  ServerOptions opts;
  opts.max_queue_depth = 0;  // any waiting committer triggers shedding
  NetRig rig("", opts);
  Path table = Path::MustParse("T/data");

  Client a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", rig.port()).ok());
  ASSERT_TRUE(c.Connect("127.0.0.1", rig.port()).ok());
  // Lease A's and B's sessions before stalling the leader (building one
  // later would park the worker behind the stalled exclusive holder).
  for (Client* warm : {&a, &b}) {
    ASSERT_TRUE(warm->Apply(Update::Insert(table, "warm")).ok());
    ASSERT_TRUE(warm->Abort().ok());
  }

  Mutex mu;
  CondVar cv;
  bool release = false;
  service::CommitQueue::TestHooks hooks;
  hooks.before_seal = [&](size_t) {
    MutexLock l(mu);
    while (!release) cv.Wait(mu);
  };
  rig.engine->commit_queue().set_test_hooks(hooks);
  struct Releaser {
    Mutex* mu;
    CondVar* cv;
    bool* release;
    ~Releaser() {
      MutexLock l(*mu);
      *release = true;
      cv->NotifyAll();
    }
  } releaser{&mu, &cv, &release};

  // A commits and stalls as the leader; B enqueues behind it, keeping
  // the queue over its (zero) bound for as long as we hold the stall, so
  // C's transaction is shed on every attempt — CallRetrying must bound
  // the loop and return the RETRY.
  ASSERT_TRUE(a.Send(Request::Apply(Update::Insert(table, "a1"))).ok());
  ASSERT_TRUE(a.Send(Request::Commit()).ok());
  ASSERT_TRUE(b.Send(Request::Apply(Update::Insert(table, "b1"))).ok());
  ASSERT_TRUE(b.Send(Request::Commit()).ok());
  for (int i = 0; i < 500 && rig.engine->CommitQueueDepth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(rig.engine->CommitQueueDepth(), 0u);

  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  size_t retries = 0;
  auto resp = c.CallRetrying(Request::Apply(Update::Insert(table, "c1")),
                             policy, &retries);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, RespCode::kRetry) << resp->body;
  EXPECT_EQ(retries, policy.max_attempts - 1);

  {
    MutexLock l(mu);
    release = true;
    cv.NotifyAll();
  }
  for (Client* stalled : {&a, &b}) {
    for (int i = 0; i < 2; ++i) {
      auto done = stalled->Recv();
      ASSERT_TRUE(done.ok());
      EXPECT_EQ(done->code, RespCode::kOk) << done->body;
    }
  }
  rig.engine->commit_queue().set_test_hooks({});

  // The shed transaction is gone transaction-atomically: after COMMIT
  // clears the shed state, C retries the WHOLE pipeline and lands it —
  // the retry unit the load driver uses.
  auto commit = c.Call(Request::Commit());
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->code, RespCode::kRetry);  // the shed txn's COMMIT
  ASSERT_TRUE(c.Apply(Update::Insert(table, "c1")).ok());
  ASSERT_TRUE(c.Commit().ok());
  auto got = c.Get(table.Child("c1"));
  ASSERT_TRUE(got.ok());
}

TEST(NetRetryTest, CallRetryingReconnectsAcrossServerRestart) {
  Client client;
  int port;
  {
    auto rig = std::make_unique<NetRig>();
    port = rig->port();
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    ASSERT_TRUE(client.Ping().ok());
  }  // server (and the client's transport) torn down here

  ServerOptions opts;
  opts.port = port;  // SO_REUSEADDR: the revived server takes the port
  NetRig revived("", opts);
  net::RetryPolicy policy;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 8;
  size_t retries = 0;
  auto resp = client.CallRetrying(Request::Ping(), policy, &retries);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, RespCode::kOk);
  EXPECT_GE(retries, 1u);
  // The re-dialed transport is fully usable, not just for the ping.
  ASSERT_TRUE(
      client.Apply(Update::Insert(Path::MustParse("T/data"), "r1")).ok());
  ASSERT_TRUE(client.Commit().ok());
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

}  // namespace
}  // namespace cpdb
