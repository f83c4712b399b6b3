// The concurrent service layer (src/service/): N curator sessions over
// ONE shared engine.
//
// The core property is oracle equivalence: whatever interleaving the
// threads produce, the committed interleaving is totally ordered by the
// engine's tid allocation, and replaying the committed transactions in
// tid order through a plain single-threaded Editor must reproduce the
// shared state bit for bit — provenance table, curated target content,
// and GetMod answers — for all four strategies. On top of that:
// engine-wide tid uniqueness (the old per-store counters would mint
// duplicates), leader/follower cohort combining with one fsync per
// cohort, crash atomicity of a group-committed cohort (whole cohort
// durable after the leader's fsync, whole cohort absent before it),
// session pooling, and race-free cost aggregation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using service::Engine;
using service::Session;
using service::SessionPool;
using testutil::TempDir;
using tree::Path;
using update::Script;
using update::Update;

constexpr Strategy kStrategies[] = {
    Strategy::kNaive, Strategy::kHierarchical, Strategy::kTransactional,
    Strategy::kHierarchicalTransactional};

bool PerOp(Strategy s) {
  return s == Strategy::kNaive || s == Strategy::kHierarchical;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// An engine counter, read from the registry that stores it.
uint64_t Count(Engine& engine, const char* name) {
  return engine.metrics().GetCounter(name, "")->Value();
}

/// An engine gauge, likewise.
int64_t Level(Engine& engine, const char* name) {
  return engine.metrics().GetGauge(name, "")->Value();
}

/// Everything one engine run needs, over an in-memory store.
struct Rig {
  explicit Rig(Strategy strategy) {
    prov_db = std::make_unique<relstore::Database>("provdb");
    backend = std::make_unique<provenance::ProvBackend>(prov_db.get());
    target = std::make_unique<wrap::TreeTargetDb>(
        "T", testutil::Figure4TargetT());
    s1 = std::make_unique<wrap::TreeSourceDb>("S1",
                                              testutil::Figure4SourceS1());
    engine = std::make_unique<Engine>(backend.get(), target.get());
    service::SessionOptions opts;
    opts.strategy = strategy;
    opts.sources = {s1.get()};
    pool = std::make_unique<SessionPool>(engine.get(), opts);
  }

  std::unique_ptr<relstore::Database> prov_db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<wrap::TreeSourceDb> s1;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SessionPool> pool;
};

/// The deterministic per-writer workload: txn 0 creates the writer's own
/// subtree under T; later txns insert a node with a value, copy a source
/// entry below it, and every third txn delete the previous node. All
/// paths stay inside T/w<i>, so concurrent writers are disjoint.
Script WriterScript(int writer, int txn) {
  std::string w = "w" + std::to_string(writer);
  Script script;
  if (txn == 0) {
    script.push_back(Update::Insert(Path::MustParse("T"), w));
    return script;
  }
  std::string n = "n" + std::to_string(txn);
  Path base = Path::MustParse("T/" + w);
  script.push_back(Update::Insert(base, n));
  script.push_back(
      Update::Insert(base.Child(n), "v", tree::Value(int64_t{txn})));
  script.push_back(Update::Copy(Path::MustParse("S1/a1"),
                                base.Child(n).Child("c")));
  if (txn % 3 == 2) {
    script.push_back(Update::Delete(base, "n" + std::to_string(txn - 1)));
  }
  return script;
}

/// One committed unit of the concurrent run: the script plus the tid
/// range it committed under (per-op strategies consume one tid per op).
struct CommittedUnit {
  int64_t first_tid = 0;
  Script script;
};

// ----- Engine-wide tid allocation ------------------------------------------

TEST(ServiceTidTest, ConcurrentAllocationNeverMintsDuplicates) {
  relstore::Database db("provdb");
  provenance::ProvBackend backend(&db);
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<int64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) minted[t].push_back(engine.NextTid());
    });
  }
  for (auto& th : threads) th.join();

  std::set<int64_t> all;
  for (const auto& v : minted) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), size_t{kThreads * kPerThread});
  EXPECT_EQ(*all.begin(), engine.base_tid() + 1);
  EXPECT_EQ(*all.rbegin(), engine.base_tid() + kThreads * kPerThread);
}

// Regression for the pre-service hazard: two editors over one backend
// each started their tid counter from the same MaxTid and committed the
// SAME tid. Engine-backed sessions must never collide, however their
// commits interleave.
TEST(ServiceTidTest, InterleavedSessionsNeverReuseATid) {
  Rig rig(Strategy::kTransactional);
  auto s1 = rig.pool->Acquire();
  auto s2 = rig.pool->Acquire();
  ASSERT_TRUE(s1.ok() && s2.ok());

  // Interleave staging, then commit in the opposite order.
  ASSERT_TRUE((*s1)->Apply(Update::Insert(Path::MustParse("T"), "a")).ok());
  ASSERT_TRUE((*s2)->Apply(Update::Insert(Path::MustParse("T"), "b")).ok());
  ASSERT_TRUE((*s2)->Commit().ok());
  ASSERT_TRUE((*s1)->Commit().ok());

  int64_t t1 = (*s1)->LastCommittedTid();
  int64_t t2 = (*s2)->LastCommittedTid();
  EXPECT_NE(t1, t2);
  EXPECT_EQ(std::min(t1, t2), rig.engine->base_tid() + 1);
  EXPECT_EQ(std::max(t1, t2), rig.engine->base_tid() + 2);

  // The store sees both transactions under their own numbers.
  auto all = testutil::DrainAll(rig.backend->ScanAll());
  ASSERT_TRUE(all.ok());
  std::set<int64_t> tids;
  for (const ProvRecord& r : *all) tids.insert(r.tid);
  EXPECT_EQ(tids.size(), 2u);
}

// ----- Group commit --------------------------------------------------------

TEST(ServiceCommitQueueTest, CohortCombinesUnderOneExclusiveGrantAndFsync) {
  for (Strategy strategy :
       {Strategy::kTransactional, Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    TempDir dir("svc_cohort");
    auto opened = relstore::Database::Open("provdb", dir.path());
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<relstore::Database> db = std::move(opened).value();
    provenance::ProvBackend backend(db.get());
    wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
    Engine engine(&backend, &target);
    service::SessionOptions opts;
    opts.strategy = strategy;
    SessionPool pool(&engine, opts);

    size_t fsyncs_before = db->durability()->stats().fsyncs;

    // Stage three sessions up front (staging is latch-free for T/HT), then
    // pin the engine in a read grant so the first committer (the leader)
    // blocks on the exclusive latch while the other two pile onto the
    // queue: a guaranteed cohort of three. (Acquiring inside the pinned
    // window would deadlock: session building takes a shared grant, which
    // queues behind the waiting leader.)
    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < 3; ++i) {
      auto s = pool.Acquire();
      ASSERT_TRUE(s.ok());
      ASSERT_TRUE((*s)
                      ->Apply(Update::Insert(Path::MustParse("T"),
                                             "c" + std::to_string(100 + i)))
                      .ok());
      sessions.push_back(std::move(*s));
    }
    std::vector<std::thread> committers;
    {
      auto guard = engine.Read();
      for (int i = 0; i < 3; ++i) {
        committers.emplace_back(
            [&, i] { ASSERT_TRUE(sessions[i]->Commit().ok()); });
      }
      while (engine.commit_queue().Pending() < 3) {
        std::this_thread::yield();
      }
    }  // release the read grant: the leader drains all three
    for (auto& th : committers) th.join();
    for (auto& s : sessions) pool.Release(std::move(s));

    EXPECT_EQ(Count(engine, "cpdb_commits_total"), 3u);
    EXPECT_EQ(Count(engine, "cpdb_cohorts_total"), 1u);
    EXPECT_EQ(Level(engine, "cpdb_max_cohort"), 3);
    EXPECT_EQ(Count(engine, "cpdb_combined_total"), 2u);
    // The whole cohort sealed under ONE fsync barrier.
    EXPECT_EQ(db->durability()->stats().fsyncs, fsyncs_before + 1);
    EXPECT_EQ(backend.RowCount(), 3u);
  }
}

// The one-seal contract is a fail-stop: an apply closure that runs its
// own Database::Sync logs its writes in a WAL record of their own, which
// would split a cohort over two records, so the leader aborts.
TEST(ServiceCommitQueueTest, ApplyThatSealsOnItsOwnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TempDir dir("svc_own_seal");
        auto opened = relstore::Database::Open("provdb", dir.path());
        ASSERT_TRUE(opened.ok());
        std::unique_ptr<relstore::Database> db = std::move(opened).value();
        // The dying process runs no destructors: unlink the store now
        // (the open log stays writable), so it leaves nothing behind.
        std::filesystem::remove_all(dir.path());
        provenance::ProvBackend backend(db.get());
        wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
        Engine engine(&backend, &target);
        Status st = engine.Commit([&]() -> Status {
          CPDB_RETURN_IF_ERROR(backend.WriteRecords(
              {ProvRecord::Insert(engine.NextTid(), Path::MustParse("T/x"))}));
          return db->Sync();
        });
        std::fprintf(stderr, "commit returned %s\n", st.ToString().c_str());
      },
      "logged 1 WAL records during its applies");
}

// A cohort applies its members in queue order on the leader's thread, so
// a later member sees every earlier member's writes.
TEST(ServiceCommitQueueTest, CohortAppliesMembersInQueueOrder) {
  TempDir dir("svc_order");
  auto opened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = Strategy::kHierarchicalTransactional;
  SessionPool pool(&engine, opts);

  // Setup: T/p0/c exists.
  {
    auto s = pool.Acquire();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->Apply(Update::Insert(Path::MustParse("T"), "p0")).ok());
    ASSERT_TRUE(
        (*s)->Apply(Update::Insert(Path::MustParse("T/p0"), "c")).ok());
    ASSERT_TRUE((*s)->Commit().ok());
    pool.Release(std::move(*s));
  }

  // Session A writes INSIDE T/p0/c; session B deletes c itself. Queued A
  // first, then B, the cohort must apply A's insert before B's delete.
  auto sa = pool.Acquire();
  auto sb = pool.Acquire();
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_TRUE(
      (*sa)->Apply(Update::Insert(Path::MustParse("T/p0/c"), "k")).ok());
  ASSERT_TRUE((*sb)->Apply(Update::Delete(Path::MustParse("T/p0"), "c")).ok());

  const uint64_t commits0 = Count(engine, "cpdb_commits_total");
  const uint64_t cohorts0 = Count(engine, "cpdb_cohorts_total");
  std::thread ta, tb;
  {
    auto guard = engine.Read();
    ta = std::thread([&] { ASSERT_TRUE((*sa)->Commit().ok()); });
    while (engine.commit_queue().Pending() < 1) std::this_thread::yield();
    tb = std::thread([&] { ASSERT_TRUE((*sb)->Commit().ok()); });
    while (engine.commit_queue().Pending() < 2) std::this_thread::yield();
  }  // release: A (the leader) drains both, in order
  ta.join();
  tb.join();
  pool.Release(std::move(*sa));
  pool.Release(std::move(*sb));

  EXPECT_EQ(Count(engine, "cpdb_commits_total") - commits0, 2u);
  EXPECT_EQ(Count(engine, "cpdb_cohorts_total") - cohorts0, 1u);
  // In-order semantics: the insert landed inside c, then the delete took
  // the whole subtree out.
  const tree::Tree& final_content = target.content();
  EXPECT_EQ(final_content.Find(Path::MustParse("p0/c")), nullptr);
}

TEST(ServiceCrashTest, GroupCommitCohortIsAtomicAcrossACrash) {
  TempDir dir("svc_crash");
  auto opened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = Strategy::kTransactional;
  SessionPool pool(&engine, opts);

  const std::string wal = storage::Durability::WalPath(dir.path());

  // Baseline transaction, sealed normally.
  {
    auto s = pool.Acquire();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->Apply(Update::Insert(Path::MustParse("T"), "base")).ok());
    ASSERT_TRUE((*s)->Commit().ok());
    pool.Release(std::move(*s));
  }
  int64_t base_tid = engine.LastAllocatedTid();

  // Capture the log around the cohort's seal: `pre` is the disk image of
  // a crash after the leader applied the cohort but BEFORE its fsync,
  // `post` the image right after.
  std::string pre, post;
  engine.commit_queue().set_test_hooks(
      {[&](size_t) { pre = ReadFile(wal); },
       [&](size_t) { post = ReadFile(wal); }});

  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 3; ++i) {
    auto s = pool.Acquire();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)
                    ->Apply(Update::Insert(Path::MustParse("T"),
                                           "c" + std::to_string(200 + i)))
                    .ok());
    sessions.push_back(std::move(*s));
  }
  std::vector<std::thread> committers;
  {
    auto guard = engine.Read();
    for (int i = 0; i < 3; ++i) {
      committers.emplace_back(
          [&, i] { ASSERT_TRUE(sessions[i]->Commit().ok()); });
    }
    while (engine.commit_queue().Pending() < 3) {
      std::this_thread::yield();
    }
  }
  for (auto& th : committers) th.join();
  for (auto& s : sessions) pool.Release(std::move(s));
  ASSERT_EQ(Level(engine, "cpdb_max_cohort"), 3);

  // Crash BEFORE the leader's fsync: the whole cohort is absent.
  {
    TempDir crash("svc_crash_pre");
    WriteFile(storage::Durability::WalPath(crash.path()), pre);
    auto reopened = relstore::Database::Open("provdb", crash.path());
    ASSERT_TRUE(reopened.ok());
    provenance::ProvBackend recovered(reopened.value().get());
    EXPECT_EQ(recovered.MaxTid(), base_tid);
    auto all = testutil::DrainAll(recovered.ScanAll());
    ASSERT_TRUE(all.ok());
    for (const ProvRecord& r : *all) EXPECT_LE(r.tid, base_tid);
  }

  // Crash AFTER the leader's fsync: the whole cohort is durable.
  {
    TempDir crash("svc_crash_post");
    WriteFile(storage::Durability::WalPath(crash.path()), post);
    auto reopened = relstore::Database::Open("provdb", crash.path());
    ASSERT_TRUE(reopened.ok());
    provenance::ProvBackend recovered(reopened.value().get());
    EXPECT_EQ(recovered.MaxTid(), base_tid + 3);
    auto all = testutil::DrainAll(recovered.ScanAll());
    ASSERT_TRUE(all.ok());
    std::set<int64_t> tids;
    for (const ProvRecord& r : *all) tids.insert(r.tid);
    for (int64_t t = base_tid + 1; t <= base_tid + 3; ++t) {
      EXPECT_EQ(tids.count(t), 1u) << "cohort member " << t << " missing";
    }
  }
}

// ----- Versioned snapshots (MVCC-lite) -------------------------------------

// A pinned reader is a time machine: however far the committed state
// advances, its session must keep answering — target subtree and
// provenance reads alike — exactly as a single-threaded replay of the
// committed transactions up to its watermark tid would. Readers are
// pinned at staggered points while writers run, then each is checked
// against its own oracle.
TEST(ServiceVersionedReadTest, PinnedReadersMatchTidOrderReplayAtWatermark) {
  const Strategy strategy = Strategy::kHierarchicalTransactional;
  constexpr int kWriters = 3;
  constexpr int kTxnsPerWriter = 6;
  constexpr size_t kMaxReaders = 8;

  Rig rig(strategy);
  std::vector<std::vector<CommittedUnit>> committed(kWriters);
  std::atomic<int> writers_done{0};

  // Reader 0 takes the bootstrap snapshot BEFORE any writer starts: it
  // is guaranteed stale by the end, so the "old snapshot stays bit
  // identical" leg always runs even if the later acquires race past the
  // writers.
  std::vector<std::unique_ptr<Session>> pinned;
  {
    auto first = rig.pool->Acquire();
    ASSERT_TRUE(first.ok());
    pinned.push_back(std::move(*first));
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto acquired = rig.pool->Acquire();
      ASSERT_TRUE(acquired.ok());
      std::unique_ptr<Session> session = std::move(*acquired);
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        Script script = WriterScript(w, t);
        ASSERT_TRUE(session->ApplyScript(script).ok());
        ASSERT_TRUE(session->Commit().ok());
        CommittedUnit unit;
        unit.script = std::move(script);
        unit.first_tid = session->LastCommittedTid();
        committed[w].push_back(std::move(unit));
      }
      rig.pool->Release(std::move(session));
      writers_done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Open more readers at whatever watermarks the race hands out; they
  // HOLD their sessions until after the writers finish.
  while (writers_done.load(std::memory_order_relaxed) < kWriters &&
         pinned.size() < kMaxReaders) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto acquired = rig.pool->Acquire();
    ASSERT_TRUE(acquired.ok());
    pinned.push_back(std::move(*acquired));
  }
  for (auto& th : writers) th.join();

  std::vector<CommittedUnit> units;
  for (auto& per_writer : committed) {
    for (auto& u : per_writer) units.push_back(std::move(u));
  }
  std::sort(units.begin(), units.end(),
            [](const CommittedUnit& a, const CommittedUnit& b) {
              return a.first_tid < b.first_tid;
            });
  ASSERT_EQ(pinned.front()->snapshot_tid(), rig.engine->base_tid());

  for (std::unique_ptr<Session>& reader : pinned) {
    const int64_t watermark = reader->snapshot_tid();
    // The reader's oracle: identical initial state, replaying exactly
    // the committed prefix with tid <= watermark.
    relstore::Database oracle_db("provdb");
    provenance::ProvBackend oracle_backend(&oracle_db);
    wrap::TreeTargetDb oracle_target("T", testutil::Figure4TargetT());
    wrap::TreeSourceDb oracle_s1("S1", testutil::Figure4SourceS1());
    EditorOptions oracle_opts;
    oracle_opts.strategy = strategy;
    oracle_opts.first_tid = rig.engine->base_tid() + 1;
    auto oracle_ed =
        Editor::Create(&oracle_target, &oracle_backend, oracle_opts);
    ASSERT_TRUE(oracle_ed.ok());
    ASSERT_TRUE((*oracle_ed)->MountSource(&oracle_s1).ok());
    for (const CommittedUnit& u : units) {
      if (u.first_tid > watermark) break;
      ASSERT_TRUE((*oracle_ed)->ApplyScript(u.script).ok());
      ASSERT_TRUE((*oracle_ed)->Commit().ok());
    }

    // Target subtree: bit-identical to the oracle's content, no matter
    // how many younger transactions were committed since.
    const tree::Tree* view =
        reader->editor()->universe().Find(Path::MustParse("T"));
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->Equals(oracle_target.content()))
        << "target view diverged at watermark " << watermark;

    // Provenance reads through the session's view stop at the
    // watermark: the shared table holds every writer's rows, but the
    // bounded scan must return exactly the oracle's table.
    auto want = testutil::DrainAll(oracle_backend.ScanAll());
    ASSERT_TRUE(want.ok());
    auto guard = reader->ReadLock();
    auto got = testutil::DrainAll(reader->backend()->ScanAll());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want->size())
        << "row count diverged at watermark " << watermark;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_TRUE((*got)[i] == (*want)[i])
          << "record " << i << " diverged at watermark " << watermark;
    }

    // GetMod reads tids off the index keys, so the watermark is decided
    // on the key: rows committed after the pin must still be skipped.
    for (const char* at : {"T", "T/w0", "T/w1", "T/w2"}) {
      const Path p = Path::MustParse(at);
      auto got_mod = reader->query()->GetMod(p);
      auto want_mod = (*oracle_ed)->query()->GetMod(p);
      ASSERT_TRUE(got_mod.ok()) << got_mod.status();
      ASSERT_TRUE(want_mod.ok()) << want_mod.status();
      EXPECT_EQ(*got_mod, *want_mod)
          << "GetMod(" << at << ") diverged at watermark " << watermark;
    }
  }
  for (auto& reader : pinned) rig.pool->Release(std::move(reader));
}

TEST(ServiceVersionGcTest, OldestPinHoldsBackGcUntilReleased) {
  Rig rig(Strategy::kHierarchicalTransactional);

  // s_old takes the bootstrap snapshot and holds it across the commit.
  auto s_old = rig.pool->Acquire();
  ASSERT_TRUE(s_old.ok());

  auto s_w = rig.pool->Acquire();
  ASSERT_TRUE(s_w.ok());
  ASSERT_TRUE(
      (*s_w)->Apply(Update::Insert(Path::MustParse("T"), "fresh")).ok());
  ASSERT_TRUE((*s_w)->Commit().ok());
  rig.pool->Release(std::move(*s_w));

  // Re-acquiring refreshes the pooled session to the new watermark.
  auto s_new = rig.pool->Acquire();
  ASSERT_TRUE(s_new.ok());

  // The old snapshot still ANSWERS as of its watermark (the session owns
  // its copy-on-write nodes); the refreshed session sees the commit.
  EXPECT_EQ((*s_old)->editor()->universe().Find(Path::MustParse("T/fresh")),
            nullptr);
  EXPECT_NE((*s_new)->editor()->universe().Find(Path::MustParse("T/fresh")),
            nullptr);

  rig.pool->Release(std::move(*s_old));
  rig.pool->Release(std::move(*s_new));
}

// Snapshots are a runtime structure, not a durable one: after a crash,
// recovery rebuilds the provenance store from the WAL and the pool takes
// one snapshot at the recovered watermark — no history is resurrected.
TEST(ServiceRecoveryTest, RecoveryMaterializesLatestVersionOnly) {
  TempDir dir("svc_recover");
  int64_t final_tid = 0;
  tree::Tree final_target("T");
  {
    auto opened = relstore::Database::Open("provdb", dir.path());
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<relstore::Database> db = std::move(opened).value();
    provenance::ProvBackend backend(db.get());
    wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
    Engine engine(&backend, &target);
    service::SessionOptions opts;
    opts.strategy = Strategy::kHierarchicalTransactional;
    SessionPool pool(&engine, opts);

    // Churn snapshots: every re-acquire after a commit takes a new one.
    for (int i = 0; i < 4; ++i) {
      auto s = pool.Acquire();
      ASSERT_TRUE(s.ok());
      ASSERT_TRUE((*s)
                      ->Apply(Update::Insert(Path::MustParse("T"),
                                             "r" + std::to_string(i)))
                      .ok());
      ASSERT_TRUE((*s)->Commit().ok());
      pool.Release(std::move(*s));
    }
    final_tid = engine.CommittedTid();
    final_target = target.content().Clone();
  }  // crash: every in-memory structure (the pool's snapshot included) is gone

  auto reopened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(reopened.ok());
  std::unique_ptr<relstore::Database> db = std::move(reopened).value();
  provenance::ProvBackend backend(db.get());
  // The target is an autonomous external database; it survives on its
  // own. Only the provenance store replays its WAL.
  wrap::TreeTargetDb target("T", std::move(final_target));
  Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = Strategy::kHierarchicalTransactional;
  SessionPool pool(&engine, opts);

  ASSERT_EQ(engine.base_tid(), final_tid);
  auto s = pool.Acquire();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->snapshot_tid(), final_tid);
  // Exactly one snapshot, at the recovered watermark, taken O(1).
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuilds_total"), 1u);
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuild_rows_total"), 0u);
  // The recovered rows are all visible through the session's view.
  {
    auto guard = (*s)->ReadLock();
    auto all = testutil::DrainAll((*s)->backend()->ScanAll());
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), 4u);
    for (const ProvRecord& r : *all) EXPECT_LE(r.tid, final_tid);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE((*s)->editor()->universe().Find(
                  Path::MustParse("T/r" + std::to_string(i))),
              nullptr);
  }
  pool.Release(std::move(*s));
}

// ----- Oracle equivalence --------------------------------------------------

class ServiceOracleTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(ServiceOracleTest, WritersAndReadersMatchSingleThreadedReplay) {
  const Strategy strategy = GetParam();
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kTxnsPerWriter = 8;

  Rig rig(strategy);

  std::vector<std::vector<CommittedUnit>> committed(kWriters);
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto acquired = rig.pool->Acquire();
      ASSERT_TRUE(acquired.ok());
      std::unique_ptr<Session> session = std::move(*acquired);
      for (int t = 0; t < kTxnsPerWriter; ++t) {
        Script script = WriterScript(w, t);
        size_t applied = 0;
        ASSERT_TRUE(session->ApplyScript(script, &applied).ok());
        ASSERT_EQ(applied, script.size());
        ASSERT_TRUE(session->Commit().ok());
        CommittedUnit unit;
        unit.script = std::move(script);
        int64_t last = session->LastCommittedTid();
        unit.first_tid = PerOp(strategy)
                             ? last - static_cast<int64_t>(applied) + 1
                             : last;
        committed[w].push_back(std::move(unit));
      }
      rig.pool->Release(std::move(session));
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto acquired = rig.pool->Acquire();
        ASSERT_TRUE(acquired.ok());
        std::unique_ptr<Session> session = std::move(*acquired);
        {
          auto guard = session->ReadLock();
          // Stream the whole table and probe a subtree: concurrent with
          // the writers' cohorts, serialized by the latch.
          provenance::ProvCursor scan = session->backend()->ScanAll();
          std::vector<ProvRecord> batch;
          int64_t prev = 0;
          while (scan.Next(&batch, 128) > 0) {
            for (const ProvRecord& rec : batch) {
              ASSERT_GE(rec.tid, prev);  // (Tid, Loc) cursor order
              prev = rec.tid;
            }
          }
          ASSERT_TRUE(scan.status().ok());
          auto under = testutil::DrainAll(
              session->backend()->ScanUnder(Path::MustParse("T/w0")));
          ASSERT_TRUE(under.ok());
        }
        rig.pool->Release(std::move(session));
      }
    });
  }

  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  // The committed interleaving: every unit, ordered by tid. Tids must be
  // consecutive from the engine's base — no duplicates, no gaps.
  std::vector<CommittedUnit> units;
  for (auto& per_writer : committed) {
    for (auto& u : per_writer) units.push_back(std::move(u));
  }
  std::sort(units.begin(), units.end(),
            [](const CommittedUnit& a, const CommittedUnit& b) {
              return a.first_tid < b.first_tid;
            });
  int64_t expect = rig.engine->base_tid() + 1;
  for (const CommittedUnit& u : units) {
    ASSERT_EQ(u.first_tid, expect);
    expect += PerOp(strategy) ? static_cast<int64_t>(u.script.size()) : 1;
  }
  ASSERT_EQ(expect, rig.engine->LastAllocatedTid() + 1);

  // Single-threaded oracle: a plain standalone editor replays the same
  // units in tid order against identical initial state.
  relstore::Database oracle_db("provdb");
  provenance::ProvBackend oracle_backend(&oracle_db);
  wrap::TreeTargetDb oracle_target("T", testutil::Figure4TargetT());
  wrap::TreeSourceDb oracle_s1("S1", testutil::Figure4SourceS1());
  EditorOptions oracle_opts;
  oracle_opts.strategy = strategy;
  oracle_opts.first_tid = rig.engine->base_tid() + 1;
  auto oracle_ed =
      Editor::Create(&oracle_target, &oracle_backend, oracle_opts);
  ASSERT_TRUE(oracle_ed.ok());
  ASSERT_TRUE((*oracle_ed)->MountSource(&oracle_s1).ok());
  for (const CommittedUnit& u : units) {
    ASSERT_TRUE((*oracle_ed)->ApplyScript(u.script).ok());
    ASSERT_TRUE((*oracle_ed)->Commit().ok());
  }

  // Provenance tables are bit-identical, in (Tid, Loc) order.
  auto got = testutil::DrainAll(rig.backend->ScanAll());
  auto want = testutil::DrainAll(oracle_backend.ScanAll());
  ASSERT_TRUE(got.ok() && want.ok());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < got->size(); ++i) {
    EXPECT_TRUE((*got)[i] == (*want)[i]) << "record " << i << " diverged";
  }

  // The curated target converged to the oracle's content.
  EXPECT_TRUE(rig.target->content().Equals(oracle_target.content()));

  // And queries agree: GetMod over each writer's subtree, asked through
  // a fresh pooled session vs. the oracle's engine.
  auto query_session = rig.pool->Acquire();
  ASSERT_TRUE(query_session.ok());
  {
    auto guard = (*query_session)->ReadLock();
    for (int w = 0; w < kWriters; ++w) {
      Path p = Path::MustParse("T/w" + std::to_string(w));
      auto got_mod = (*query_session)->query()->GetMod(p);
      auto want_mod = (*oracle_ed)->query()->GetMod(p);
      ASSERT_TRUE(got_mod.ok() && want_mod.ok());
      EXPECT_EQ(*got_mod, *want_mod) << "GetMod(T/w" << w << ") diverged";
    }
  }
  rig.pool->Release(std::move(*query_session));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ServiceOracleTest,
                         ::testing::ValuesIn(kStrategies),
                         [](const auto& param_info) {
                           return std::string(
                               provenance::StrategyShortName(param_info.param));
                         });

// ----- TraceBack through pooled sessions -----------------------------------

/// TraceBack answers from what a session's view sees: its snapshot and
/// everything committed below it, whoever committed it.
class ServiceTraceBackTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(ServiceTraceBackTest, RefreshedSessionTracesOtherSessionsCommits) {
  Rig rig(GetParam());
  auto writer = rig.pool->Acquire();
  auto reader = rig.pool->Acquire();
  ASSERT_TRUE(writer.ok() && reader.ok());
  const Path row = Path::MustParse("T/r");
  ASSERT_TRUE((*writer)->Apply(Update::Insert(Path::MustParse("T"), "r")).ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  const int64_t inserted = (*writer)->LastCommittedTid();
  ASSERT_TRUE(
      (*writer)->Apply(Update::Insert(row, "v", tree::Value(int64_t{1}))).ok());
  ASSERT_TRUE((*writer)->Commit().ok());

  // The reader never committed; the pool hands it back refreshed past
  // the writer's commits, so its GET shows the row and TRACEBACK must
  // find where it came from.
  rig.pool->Release(std::move(*reader));
  auto refreshed = rig.pool->Acquire();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_EQ((*refreshed)->snapshot_tid(), rig.engine->CommittedTid());
  ASSERT_NE((*refreshed)->editor()->universe().Find(row), nullptr);
  auto guard = (*refreshed)->ReadLock();
  auto traced = (*refreshed)->query()->TraceBack(row);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->steps.size(), 1u);
  EXPECT_EQ(traced->steps[0].op, provenance::ProvOp::kInsert);
  EXPECT_EQ(traced->origin_tid, std::optional<int64_t>(inserted));
}

TEST_P(ServiceTraceBackTest, ChainContinuesBelowTheSessionsFirstCommit) {
  Rig rig(GetParam());
  auto writer = rig.pool->Acquire();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Apply(Update::Insert(Path::MustParse("T"), "r")).ok());
  ASSERT_TRUE((*writer)->Commit().ok());
  const int64_t inserted = (*writer)->LastCommittedTid();

  // A second session's first commit copies the row: the chain runs
  // through the copy into the writer's older insert.
  auto copier = rig.pool->Acquire();
  ASSERT_TRUE(copier.ok());
  const Path row = Path::MustParse("T/r");
  const Path copy = Path::MustParse("T/s");
  ASSERT_TRUE((*copier)->Apply(Update::Copy(row, copy)).ok());
  ASSERT_TRUE((*copier)->Commit().ok());
  const int64_t copied = (*copier)->LastCommittedTid();
  ASSERT_GT(copied, inserted);

  auto guard = (*copier)->ReadLock();
  auto traced = (*copier)->query()->TraceBack(copy);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->steps.size(), 2u);
  EXPECT_EQ(traced->steps[0].op, provenance::ProvOp::kCopy);
  EXPECT_EQ(traced->steps[0].tid, copied);
  EXPECT_EQ(traced->steps[1].op, provenance::ProvOp::kInsert);
  EXPECT_EQ(traced->origin_tid, std::optional<int64_t>(inserted));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ServiceTraceBackTest,
                         ::testing::ValuesIn(kStrategies),
                         [](const auto& param_info) {
                           return std::string(
                               provenance::StrategyShortName(param_info.param));
                         });

// ----- Session pool and cost aggregation -----------------------------------

TEST(ServicePoolTest, ReusesFreshSessionsRefreshesStaleOnes) {
  Rig rig(Strategy::kHierarchicalTransactional);
  Engine& engine = *rig.engine;
  auto s = rig.pool->Acquire();
  ASSERT_TRUE(s.ok());
  rig.pool->Release(std::move(*s));
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"), 1u);

  // No commits in between: the session's snapshot is still the committed
  // state and the session is handed back out untouched.
  auto again = rig.pool->Acquire();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Count(engine, "cpdb_sessions_reused_total"), 1u);
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"), 1u);
  EXPECT_EQ(Count(engine, "cpdb_sessions_refreshed_total"), 0u);

  // A commit advances the watermark; the pooled session is stale, but the
  // pool refreshes it in place — swap the target subtree for the
  // committed snapshot — instead of building a second one.
  ASSERT_TRUE(
      (*again)->Apply(Update::Insert(Path::MustParse("T"), "fresh")).ok());
  ASSERT_TRUE((*again)->Commit().ok());
  int64_t committed = rig.engine->CommittedTid();
  rig.pool->Release(std::move(*again));
  auto refreshed = rig.pool->Acquire();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"), 1u);
  EXPECT_EQ(Count(engine, "cpdb_sessions_reused_total"), 2u);
  EXPECT_EQ(Count(engine, "cpdb_sessions_refreshed_total"), 1u);
  EXPECT_EQ((*refreshed)->snapshot_tid(), committed);
  // The refreshed snapshot sees the committed edit.
  EXPECT_NE(
      (*refreshed)->editor()->universe().Find(Path::MustParse("T/fresh")),
      nullptr);
  // And the refresh copied nothing: the swapped-in subtree shares every
  // child with the live target content (copy-on-write).
  const tree::Tree* view =
      (*refreshed)->editor()->universe().Find(Path::MustParse("T"));
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->SharesAllChildrenWith(rig.target->content()));
  rig.pool->Release(std::move(*refreshed));
}

// The warm-pool acceptance criterion: a pool cycling sessions under
// sustained write traffic builds no new sessions and copies nothing —
// zero rebuild rows — because every re-acquire of a stale session is a
// subtree swap to a copy-on-write snapshot of the tree target.
TEST(ServicePoolTest, WarmPoolCopiesNothingUnderWriteTraffic) {
  Rig rig(Strategy::kHierarchicalTransactional);
  Engine& engine = *rig.engine;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 10;

  // Warm the pool: one session per worker, pooled before traffic starts.
  {
    std::vector<std::unique_ptr<Session>> warm;
    for (int i = 0; i < kThreads; ++i) {
      auto s = rig.pool->Acquire();
      ASSERT_TRUE(s.ok());
      warm.push_back(std::move(*s));
    }
    for (auto& s : warm) rig.pool->Release(std::move(s));
  }
  ASSERT_EQ(Count(engine, "cpdb_sessions_built_total"),
            static_cast<uint64_t>(kThreads));

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int t = 0; t < kTxnsPerThread; ++t) {
        auto s = rig.pool->Acquire();
        ASSERT_TRUE(s.ok());
        ASSERT_TRUE((*s)->ApplyScript(WriterScript(w, t)).ok());
        ASSERT_TRUE((*s)->Commit().ok());
        rig.pool->Release(std::move(*s));
      }
    });
  }
  for (auto& th : workers) th.join();

  // Every acquire after the warm-up reused pooled inventory...
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"),
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(Count(engine, "cpdb_sessions_reused_total"),
            static_cast<uint64_t>(kThreads * kTxnsPerThread));
  // ...stale ones were refreshed in place, at most one snapshot was taken
  // per watermark (the warm-up's plus one per commit), and no snapshot
  // shipped a row.
  EXPECT_GT(Count(engine, "cpdb_sessions_refreshed_total"), 0u);
  EXPECT_LE(Count(engine, "cpdb_snapshot_rebuilds_total"),
            static_cast<uint64_t>(1 + kThreads * kTxnsPerThread));
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuild_rows_total"), 0u);
}

/// Two builds at one watermark, then a commit and a re-acquire of both
/// stale sessions: the pool must take exactly one snapshot per watermark,
/// for which the target ships `rows_before` and then `rows_after` rows.
/// `insert` adds the node at `added`.
void ExpectOneSnapshotPerWatermark(wrap::TargetDb* target,
                                   provenance::ProvBackend* backend,
                                   const Update& insert, const Path& added,
                                   uint64_t rows_before, uint64_t rows_after) {
  Engine engine(backend, target);
  SessionPool pool(&engine, service::SessionOptions{});  // HT
  auto snapshots = [&] {
    return Count(engine, "cpdb_snapshot_rebuilds_total");
  };
  auto rows = [&] { return Count(engine, "cpdb_snapshot_rebuild_rows_total"); };

  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"), 2u);
  EXPECT_EQ(snapshots(), 1u);
  EXPECT_EQ(rows(), rows_before);

  ASSERT_TRUE((*a)->Apply(insert).ok());
  ASSERT_TRUE((*a)->Commit().ok());
  pool.Release(std::move(*a));
  pool.Release(std::move(*b));
  auto c = pool.Acquire();
  auto d = pool.Acquire();
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_EQ(Count(engine, "cpdb_sessions_built_total"), 2u);
  EXPECT_EQ(Count(engine, "cpdb_sessions_refreshed_total"), 2u);
  EXPECT_EQ(snapshots(), 2u);
  EXPECT_EQ(rows(), rows_before + rows_after);
  EXPECT_TRUE((*c)->editor()->universe().Contains(added));
  EXPECT_TRUE((*d)->editor()->universe().Contains(added));
  pool.Release(std::move(*c));
  pool.Release(std::move(*d));
}

TEST(ServicePoolTest, OneSnapshotPerWatermark) {
  {
    SCOPED_TRACE("tree target");
    // A copy-on-write clone ships no rows.
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
    ExpectOneSnapshotPerWatermark(
        &target, &backend, Update::Insert(Path::MustParse("T"), "d"),
        Path::MustParse("T/d"), 0, 0);
  }
  {
    SCOPED_TRACE("relational target");
    // A table scan ships one row per tuple: 3 before the commit, 4 after.
    relstore::Database db("curated");
    relstore::Schema schema({{"id", relstore::ColumnType::kString, false},
                             {"f1", relstore::ColumnType::kString, true}});
    auto table = testutil::CreateKeyedTable(&db, "data", schema);
    ASSERT_TRUE(table.ok());
    for (const char* id : {"a", "b", "c"}) {
      ASSERT_TRUE(
          (*table)->Insert({relstore::Datum(id), relstore::Datum()}).ok());
    }
    provenance::ProvBackend backend(&db);
    wrap::RelationalTargetDb target("T", &db, {"data"});
    ExpectOneSnapshotPerWatermark(
        &target, &backend, Update::Insert(Path::MustParse("T/data"), "d"),
        Path::MustParse("T/data/d"), 3, 4);
  }
}

TEST(ServiceCostTest, SessionChargesLandOnPrivateModelsAndAggregate) {
  Rig rig(Strategy::kTransactional);
  auto s = rig.pool->Acquire();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Apply(Update::Insert(Path::MustParse("T"), "x")).ok());
  ASSERT_TRUE((*s)->Commit().ok());
  {
    auto guard = (*s)->ReadLock();
    ASSERT_TRUE(testutil::DrainAll((*s)->backend()->ScanAll()).ok());
  }
  relstore::CostSnapshot session_cost = (*s)->cost().Snap();
  EXPECT_GT(session_cost.calls, 0u);
  EXPECT_GT(session_cost.write_calls, 0u);
  // The redirect is total: the shared database's own model saw none of
  // this session's traffic (in-memory store: no fsync charges either).
  EXPECT_EQ(rig.prov_db->cost().Calls(), 0u);

  rig.pool->Release(std::move(*s));
  relstore::CostSnapshot totals = rig.engine->cost_totals().Snap();
  EXPECT_EQ(totals.calls, session_cost.calls);
  EXPECT_EQ(totals.write_calls, session_cost.write_calls);
  EXPECT_EQ(totals.rows, session_cost.rows);
  EXPECT_DOUBLE_EQ(totals.micros, session_cost.micros);

  // A second session's costs accumulate on top.
  auto s2 = rig.pool->Acquire();
  ASSERT_TRUE(s2.ok());
  {
    auto guard = (*s2)->ReadLock();
    ASSERT_TRUE(testutil::DrainAll((*s2)->backend()->ScanAll()).ok());
  }
  relstore::CostSnapshot second = (*s2)->cost().Snap();
  rig.pool->Release(std::move(*s2));
  EXPECT_EQ(rig.engine->cost_totals().Snap().calls,
            session_cost.calls + second.calls);
}

TEST(ServicePoolTest, ReleaseAbortsAStagedTransaction) {
  Rig rig(Strategy::kHierarchicalTransactional);
  auto s = rig.pool->Acquire();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(
      (*s)->Apply(Update::Insert(Path::MustParse("T"), "staged")).ok());
  rig.pool->Release(std::move(*s));  // curator walked away mid-edit
  EXPECT_EQ(rig.backend->RowCount(), 0u);
  EXPECT_EQ(rig.engine->LastAllocatedTid(), rig.engine->base_tid());
}

// ----- Relational target ---------------------------------------------------

TEST(ServiceRelationalTargetTest, RacingDuplicateTupleInsertFailsSecondCommit) {
  relstore::Database db("curated");
  relstore::Schema schema({{"id", relstore::ColumnType::kString, false},
                           {"f1", relstore::ColumnType::kString, true}});
  auto table = testutil::CreateKeyedTable(&db, "data", schema);
  ASSERT_TRUE(table.ok());
  provenance::ProvBackend backend(&db);
  wrap::RelationalTargetDb target("T", &db, {"data"});
  Engine engine(&backend, &target);
  SessionPool pool(&engine, service::SessionOptions{});  // HT

  // Both sessions snapshot the empty table, so both stage the insert.
  auto first = pool.Acquire();
  auto second = pool.Acquire();
  ASSERT_TRUE(first.ok() && second.ok());
  const Update insert_k = Update::Insert(Path::MustParse("T/data"), "k");
  ASSERT_TRUE((*first)->Apply(insert_k).ok());
  ASSERT_TRUE((*second)->Apply(insert_k).ok());
  ASSERT_TRUE((*first)->Commit().ok());
  Status lost = (*second)->Commit();
  EXPECT_TRUE(lost.IsAlreadyExists()) << lost;
  EXPECT_EQ((*table)->RowCount(), 1u);
  // The target refused the loser's replay before its provenance write:
  // only the winner's `I T/data/k` row is in the store.
  EXPECT_EQ(backend.RowCount(), 1u);
  pool.Release(std::move(*first));
  pool.Release(std::move(*second));

  // The committed state still has one tuple per identifier, so sessions
  // keep building.
  auto later = pool.Acquire();
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_TRUE((*later)->editor()->universe().Contains(
      Path::MustParse("T/data/k")));
  pool.Release(std::move(*later));
}

// A unit the relational target refuses writes nothing: no provenance
// row, no tid, and none of its earlier ops' rows. The staging session
// unwinds to the committed state a fresh session reads, and commits again
// from there. The target's refusals are ones tree staging cannot see: a
// field outside the table's schema, and a row image past one heap page.
TEST(ServiceRelationalTargetTest, RefusedReplayWritesNothing) {
  for (Strategy strategy :
       {Strategy::kHierarchical, Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyShortName(strategy));
    relstore::Database db("curated");
    relstore::Schema schema({{"id", relstore::ColumnType::kString, false},
                             {"f1", relstore::ColumnType::kString, true},
                             {"f2", relstore::ColumnType::kString, true},
                             {"f3", relstore::ColumnType::kString, true}});
    ASSERT_TRUE(testutil::CreateKeyedTable(&db, "data", schema).ok());
    provenance::ProvBackend backend(&db);
    wrap::RelationalTargetDb target("T", &db, {"data"});
    Engine engine(&backend, &target);
    service::SessionOptions opts;
    opts.strategy = strategy;
    SessionPool pool(&engine, opts);

    auto staging = pool.Acquire();
    ASSERT_TRUE(staging.ok());
    Session* s = staging->get();
    const Path row = Path::MustParse("T/data/k1");
    ASSERT_TRUE(s->ApplyScript({Update::Insert(row.Parent(), "k1"),
                                Update::Insert(row, "f1", tree::Value("a"))})
                    .ok());
    ASSERT_TRUE(s->Commit().ok());
    const size_t prov_rows = backend.RowCount();
    const int64_t committed = engine.CommittedTid();
    auto stored = target.TreeFromDb();
    ASSERT_TRUE(stored.ok());

    // Each unit opens with an op the target accepts.
    const Update accepted = Update::Insert(row, "f2", tree::Value("b"));
    const std::vector<std::pair<Update, std::string>> refusals = {
        {Update::Insert(row, "bogus", tree::Value("x")),
         "no column 'bogus' in table data"},
        {Update::Insert(row, "f3", tree::Value(std::string(5000, 'x'))),
         "record larger than page"}};
    for (const auto& [refused, why] : refusals) {
      SCOPED_TRACE(why);
      Status st;
      if (PerOp(strategy)) {
        size_t applied = 99;
        st = s->ApplyScript({accepted, refused}, &applied);
        EXPECT_EQ(applied, 0u);
      } else {
        ASSERT_TRUE(s->Apply(accepted).ok());
        ASSERT_TRUE(s->Apply(refused).ok());  // tree staging accepts it
        st = s->Commit();
      }
      EXPECT_EQ(st.message(), why) << st;
      EXPECT_EQ(s->editor()->PendingOps(), 0u);
      EXPECT_EQ(backend.RowCount(), prov_rows);
      EXPECT_EQ(engine.CommittedTid(), committed);
      auto now = target.TreeFromDb();
      ASSERT_TRUE(now.ok());
      EXPECT_TRUE(now->Equals(*stored));

      auto fresh = pool.Acquire();
      ASSERT_TRUE(fresh.ok());
      EXPECT_TRUE(s->editor()->TargetView()->Equals(
          *(*fresh)->editor()->TargetView()));
      pool.Release(std::move(*fresh));
    }

    // The unwound session commits the accepted op on its own.
    ASSERT_TRUE(s->Apply(accepted).ok());
    ASSERT_TRUE(s->Commit().ok());
    EXPECT_GT(engine.CommittedTid(), committed);
    auto after = target.TreeFromDb();
    ASSERT_TRUE(after.ok());
    const tree::Tree* f2 = after->Find(Path::MustParse("data/k1/f2"));
    ASSERT_NE(f2, nullptr);
    EXPECT_EQ(f2->value().AsString(), "b");
    pool.Release(std::move(*staging));
  }
}

// A NULL column is an absent field. A session whose snapshot the pool
// took from the store holds the same target subtree as the session that
// staged the rows, so setting a field that is still NULL succeeds on
// both.
TEST(ServiceRelationalTargetTest, NullColumnIsAnAbsentFieldInANewSession) {
  relstore::Database db("curated");
  relstore::Schema schema({{"id", relstore::ColumnType::kString, false},
                           {"f1", relstore::ColumnType::kString, true},
                           {"f2", relstore::ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(&db, "data", schema).ok());
  provenance::ProvBackend backend(&db);
  wrap::RelationalTargetDb target("T", &db, {"data"});
  Engine engine(&backend, &target);
  SessionPool pool(&engine, service::SessionOptions{});  // HT

  auto staged = pool.Acquire();
  ASSERT_TRUE(staged.ok());
  const Path row = Path::MustParse("T/data/k1");
  ASSERT_TRUE((*staged)->Apply(Update::Insert(row.Parent(), "k1")).ok());
  ASSERT_TRUE(
      (*staged)->Apply(Update::Insert(row, "f1", tree::Value("a"))).ok());
  ASSERT_TRUE((*staged)->Commit().ok());

  auto fresh = pool.Acquire();  // built from the store's rows
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ((*fresh)->snapshot_tid(), engine.CommittedTid());
  const Path t = Path::MustParse("T");
  const tree::Tree* want = (*staged)->editor()->universe().Find(t);
  const tree::Tree* got = (*fresh)->editor()->universe().Find(t);
  ASSERT_TRUE(want != nullptr && got != nullptr);
  EXPECT_TRUE(got->Equals(*want))
      << got->ToString() << " != " << want->ToString();

  const Update set_f2 = Update::Insert(row, "f2", tree::Value("b"));
  Status on_fresh = (*fresh)->Apply(set_f2);
  EXPECT_TRUE(on_fresh.ok()) << on_fresh;
  Status on_staged = (*staged)->Apply(set_f2);
  EXPECT_TRUE(on_staged.ok()) << on_staged;
  pool.Release(std::move(*staged));
  pool.Release(std::move(*fresh));
}

// An insert of null or {} at a field would store a NULL column, which a
// session built from the store reads as no field at all. The target
// refuses it before the provenance write, so the unit unwinds with no
// Prov row and no tid, and afterwards the session that staged it and a
// fresh one both read the row without the field and both set it.
TEST(ServiceRelationalTargetTest, NullFieldInsertIsRefusedForEverySession) {
  for (Strategy strategy :
       {Strategy::kHierarchical, Strategy::kHierarchicalTransactional}) {
    for (bool empty_tree : {false, true}) {
      SCOPED_TRACE(std::string(provenance::StrategyShortName(strategy)) +
                   (empty_tree ? " ins {f1: {}}" : " ins {f1: null}"));
      relstore::Database db("curated");
      relstore::Schema schema(
          {{"id", relstore::ColumnType::kString, false},
           {"f1", relstore::ColumnType::kString, true},
           {"f2", relstore::ColumnType::kString, true}});
      ASSERT_TRUE(testutil::CreateKeyedTable(&db, "data", schema).ok());
      provenance::ProvBackend backend(&db);
      wrap::RelationalTargetDb target("T", &db, {"data"});
      Engine engine(&backend, &target);
      service::SessionOptions opts;
      opts.strategy = strategy;
      SessionPool pool(&engine, opts);

      auto staged = pool.Acquire();
      ASSERT_TRUE(staged.ok());
      Session* s = staged->get();
      const Path row = Path::MustParse("T/data/k1");
      ASSERT_TRUE(s->ApplyScript({Update::Insert(row.Parent(), "k1"),
                                  Update::Insert(row, "f2", tree::Value("b"))})
                      .ok());
      ASSERT_TRUE(s->Commit().ok());
      const size_t prov_rows = backend.RowCount();
      const int64_t committed = engine.CommittedTid();

      const Update refused =
          empty_tree ? Update::Insert(row, "f1")
                     : Update::Insert(row, "f1", tree::Value());
      Status st;
      if (PerOp(strategy)) {
        st = s->Apply(refused);
      } else {
        ASSERT_TRUE(s->Apply(refused).ok());  // tree staging accepts it
        st = s->Commit();
      }
      EXPECT_TRUE(st.IsInvalidArgument()) << st;
      EXPECT_EQ(backend.RowCount(), prov_rows);
      EXPECT_EQ(engine.CommittedTid(), committed);

      auto fresh = pool.Acquire();  // built from the store's rows
      ASSERT_TRUE(fresh.ok());
      for (Session* reader : {s, fresh->get()}) {
        SCOPED_TRACE(reader == s ? "staging session" : "fresh session");
        const tree::Tree* got = reader->editor()->universe().Find(row);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->ToString(), "{f2: \"b\"}");
        Status set =
            reader->Apply(Update::Insert(row, "f1", tree::Value("x")));
        EXPECT_TRUE(set.ok()) << set;
        // Leave f1 unset for the other session: a per-op session has
        // committed the insert, so it deletes the field again.
        Status undo = PerOp(strategy)
                          ? reader->Apply(Update::Delete(row, "f1"))
                          : reader->Abort();
        EXPECT_TRUE(undo.ok()) << undo;
      }
      pool.Release(std::move(*staged));
      pool.Release(std::move(*fresh));
    }
  }
}

}  // namespace
}  // namespace cpdb
