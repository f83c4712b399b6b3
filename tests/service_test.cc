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
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
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
  auto all = rig.backend->GetAll();
  ASSERT_TRUE(all.ok());
  std::set<int64_t> tids;
  for (const ProvRecord& r : *all) tids.insert(r.tid);
  EXPECT_EQ(tids.size(), 2u);
}

// ----- Group commit --------------------------------------------------------

TEST(ServiceCommitQueueTest, CohortCombinesUnderOneExclusiveGrantAndFsync) {
  TempDir dir("svc_cohort");
  auto opened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = Strategy::kTransactional;
  SessionPool pool(&engine, opts);

  size_t fsyncs_before = db->cost().Fsyncs();

  // Stage three sessions up front (staging is latch-free for T), then pin
  // the engine in a read grant so the first committer (the leader) blocks
  // on the exclusive latch while the other two pile onto the queue: a
  // guaranteed cohort of three. (Acquiring inside the pinned window would
  // deadlock: session building takes a shared grant, which queues behind
  // the waiting leader.)
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
  EXPECT_EQ(db->cost().Fsyncs(), fsyncs_before + 1);
  // One exclusive grant -> one epoch advance.
  EXPECT_EQ(engine.latch().Epoch(), 1u);
  EXPECT_EQ(backend.RowCount(), 3u);
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
    auto all = recovered.GetAll();
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
    auto all = recovered.GetAll();
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

  // Reader 0 pins the bootstrap version BEFORE any writer starts: it is
  // guaranteed stale by the end, so the "old snapshot stays bit
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

  // Pin more readers at whatever watermarks the race hands out; they
  // HOLD their pins until after the writers finish.
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
    // how many younger versions were committed (and GCed) since.
    const tree::Tree* view =
        reader->editor()->universe().Find(Path::MustParse("T"));
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->Equals(oracle_target.content()))
        << "target view diverged at watermark " << watermark;

    // Provenance reads through the session's view stop at the
    // watermark: the shared table holds every writer's rows, but the
    // bounded scan must return exactly the oracle's table.
    auto want = oracle_backend.GetAll();
    ASSERT_TRUE(want.ok());
    auto guard = reader->ReadLock();
    auto got = reader->backend()->GetAll();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want->size())
        << "row count diverged at watermark " << watermark;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_TRUE((*got)[i] == (*want)[i])
          << "record " << i << " diverged at watermark " << watermark;
    }
  }
  for (auto& reader : pinned) rig.pool->Release(std::move(reader));
}

TEST(ServiceVersionGcTest, OldestPinHoldsBackGcUntilReleased) {
  Rig rig(Strategy::kHierarchicalTransactional);

  // s_old pins the bootstrap version and holds it across the commit.
  auto s_old = rig.pool->Acquire();
  ASSERT_TRUE(s_old.ok());

  auto s_w = rig.pool->Acquire();
  ASSERT_TRUE(s_w.ok());
  ASSERT_TRUE(
      (*s_w)->Apply(Update::Insert(Path::MustParse("T"), "fresh")).ok());
  ASSERT_TRUE((*s_w)->Commit().ok());
  rig.pool->Release(std::move(*s_w));

  // Re-acquiring publishes the version at the new watermark; the old one
  // survives because s_old still pins it.
  auto s_new = rig.pool->Acquire();
  ASSERT_TRUE(s_new.ok());
  EXPECT_EQ(Level(*rig.engine, "cpdb_versions_live"), 2);
  EXPECT_EQ(Count(*rig.engine, "cpdb_versions_gced_total"), 0u);

  // The pinned version is not just retained, it still ANSWERS as of its
  // watermark; the refreshed session sees the commit.
  EXPECT_EQ((*s_old)->editor()->universe().Find(Path::MustParse("T/fresh")),
            nullptr);
  EXPECT_NE((*s_new)->editor()->universe().Find(Path::MustParse("T/fresh")),
            nullptr);

  // Releasing the oldest pin unblocks collection of the superseded
  // version (Release marches the pooled session's pin to the newest
  // version precisely so idle inventory never holds GC back).
  rig.pool->Release(std::move(*s_old));
  EXPECT_EQ(Level(*rig.engine, "cpdb_versions_live"), 1);
  EXPECT_EQ(Count(*rig.engine, "cpdb_versions_gced_total"), 1u);
  EXPECT_EQ(rig.engine->snapshots().LatestTid(), rig.engine->CommittedTid());
  rig.pool->Release(std::move(*s_new));
}

// Version chains are a runtime structure, not a durable one: after a
// crash, recovery rebuilds the provenance store from the WAL and the
// engine starts over with a single version at the recovered watermark —
// no history is resurrected.
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

    // Churn versions: every re-acquire after a commit publishes a new
    // one (and GCs what no pin holds).
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
    EXPECT_GT(Count(engine, "cpdb_versions_published_total"), 1u);
    final_tid = engine.CommittedTid();
    final_target = target.content().Clone();
  }  // crash: every in-memory structure (chain included) is gone

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
  // Exactly one version, at the recovered watermark, materialized O(1).
  EXPECT_EQ(Count(engine, "cpdb_versions_published_total"), 1u);
  EXPECT_EQ(Level(engine, "cpdb_versions_live"), 1);
  EXPECT_EQ(engine.snapshots().LatestTid(), final_tid);
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuilds_total"), 0u);
  // The recovered rows are all visible through the session's view.
  {
    auto guard = (*s)->ReadLock();
    auto all = (*s)->backend()->GetAll();
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

// ----- Disjoint-subtree parallel apply -------------------------------------

TEST(ServiceParallelApplyTest, DisjointCohortAppliesOnThePoolUnderOneFsync) {
  TempDir dir("svc_parallel");
  auto opened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  engine.EnableParallelApply(2);
  service::SessionOptions opts;
  opts.strategy = Strategy::kHierarchicalTransactional;
  SessionPool pool(&engine, opts);

  // Carve out one subtree per committer so the staged claims (the child
  // maps the native replay mutates) are pairwise disjoint.
  {
    auto s = pool.Acquire();
    ASSERT_TRUE(s.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*s)
                      ->Apply(Update::Insert(Path::MustParse("T"),
                                             "p" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE((*s)->Commit().ok());
    pool.Release(std::move(*s));
  }

  const uint64_t commits0 = Count(engine, "cpdb_commits_total");
  const uint64_t cohorts0 = Count(engine, "cpdb_cohorts_total");
  const uint64_t pcohorts0 = Count(engine, "cpdb_parallel_cohorts_total");
  const uint64_t papplies0 = Count(engine, "cpdb_parallel_applies_total");
  size_t fsyncs_before = db->cost().Fsyncs();

  // Stage three disjoint writers, then pin the engine in a read grant so
  // all three pile onto the queue: a guaranteed cohort.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 3; ++i) {
    auto s = pool.Acquire();
    ASSERT_TRUE(s.ok());
    Path base = Path::MustParse("T/p" + std::to_string(i));
    ASSERT_TRUE((*s)->Apply(Update::Insert(base, "x", tree::Value(int64_t{i})))
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

  EXPECT_EQ(Count(engine, "cpdb_commits_total") - commits0, 3u);
  EXPECT_EQ(Count(engine, "cpdb_cohorts_total") - cohorts0, 1u);
  // The disjoint batch went to the apply pool...
  EXPECT_EQ(Count(engine, "cpdb_parallel_cohorts_total") - pcohorts0, 1u);
  EXPECT_EQ(Count(engine, "cpdb_parallel_applies_total") - papplies0, 3u);
  // ...and still sealed under exactly ONE fsync barrier (the commit
  // queue aborts the process if a parallel cohort ever syncs twice).
  EXPECT_EQ(db->cost().Fsyncs(), fsyncs_before + 1);

  for (int i = 0; i < 3; ++i) {
    const tree::Tree* node = target.content().Find(
        Path::MustParse("p" + std::to_string(i) + "/x"));
    ASSERT_NE(node, nullptr) << "p" << i << "/x missing";
  }
  EXPECT_EQ(backend.RowCount(), 3u + 3u);  // setup + cohort
}

TEST(ServiceParallelApplyTest, OverlappingClaimsFallBackToInOrderApply) {
  TempDir dir("svc_overlap");
  auto opened = relstore::Database::Open("provdb", dir.path());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<relstore::Database> db = std::move(opened).value();
  provenance::ProvBackend backend(db.get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  engine.EnableParallelApply(2);
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

  // Session A writes INSIDE T/p0/c (claim p0/c); session B deletes c
  // itself (claim p0). The claims are prefix-related, so the cohort must
  // apply in queue order — A first, then B — never on the pool.
  auto sa = pool.Acquire();
  auto sb = pool.Acquire();
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_TRUE(
      (*sa)->Apply(Update::Insert(Path::MustParse("T/p0/c"), "k")).ok());
  ASSERT_TRUE((*sb)->Apply(Update::Delete(Path::MustParse("T/p0"), "c")).ok());

  const uint64_t commits0 = Count(engine, "cpdb_commits_total");
  const uint64_t cohorts0 = Count(engine, "cpdb_cohorts_total");
  const uint64_t pcohorts0 = Count(engine, "cpdb_parallel_cohorts_total");
  const uint64_t papplies0 = Count(engine, "cpdb_parallel_applies_total");
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
  EXPECT_EQ(Count(engine, "cpdb_parallel_cohorts_total") - pcohorts0, 0u);
  EXPECT_EQ(Count(engine, "cpdb_parallel_applies_total") - papplies0, 0u);
  // In-order semantics: the insert landed inside c, then the delete took
  // the whole subtree out.
  const tree::Tree& final_content = target.content();
  EXPECT_EQ(final_content.Find(Path::MustParse("p0/c")), nullptr);
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
          auto under = session->backend()->GetUnder(Path::MustParse("T/w0"));
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
  auto got = rig.backend->GetAll();
  auto want = oracle_backend.GetAll();
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

// ----- Session pool and cost aggregation -----------------------------------

TEST(ServicePoolTest, ReusesFreshSessionsRefreshesStaleOnes) {
  Rig rig(Strategy::kHierarchicalTransactional);
  auto s = rig.pool->Acquire();
  ASSERT_TRUE(s.ok());
  rig.pool->Release(std::move(*s));
  EXPECT_EQ(rig.pool->built(), 1u);

  // No commits in between: the pinned version is still the committed
  // state and the session is handed back out untouched.
  auto again = rig.pool->Acquire();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(rig.pool->reused(), 1u);
  EXPECT_EQ(rig.pool->built(), 1u);
  EXPECT_EQ(rig.pool->refreshed(), 0u);

  // A commit advances the watermark; the pooled session is stale, but the
  // pool refreshes it in place — re-pin the newest version, swap the
  // target subtree — instead of building a second one.
  ASSERT_TRUE(
      (*again)->Apply(Update::Insert(Path::MustParse("T"), "fresh")).ok());
  ASSERT_TRUE((*again)->Commit().ok());
  int64_t committed = rig.engine->CommittedTid();
  rig.pool->Release(std::move(*again));
  auto refreshed = rig.pool->Acquire();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(rig.pool->built(), 1u);
  EXPECT_EQ(rig.pool->reused(), 2u);
  EXPECT_EQ(rig.pool->refreshed(), 1u);
  EXPECT_EQ((*refreshed)->snapshot_tid(), committed);
  // The refreshed snapshot sees the committed edit.
  EXPECT_NE(
      (*refreshed)->editor()->universe().Find(Path::MustParse("T/fresh")),
      nullptr);
  // And the refresh was a version swap, not a materialization: a
  // cheap-snapshot target never pays a full scan, bootstrap included.
  EXPECT_EQ(Count(*rig.engine, "cpdb_snapshot_rebuilds_total"), 0u);
  EXPECT_EQ(Count(*rig.engine, "cpdb_snapshot_rebuild_rows_total"), 0u);
  EXPECT_EQ(Count(*rig.engine, "cpdb_snapshot_refreshes_total"), 1u);
  rig.pool->Release(std::move(*refreshed));
}

// The warm-pool acceptance criterion for the versioned-snapshot design:
// a pool cycling sessions under sustained write traffic must never pay a
// full materialization — zero rebuild rows — because every re-acquire is
// an O(1) re-pin + subtree swap.
TEST(ServicePoolTest, WarmPoolCopiesNothingUnderWriteTraffic) {
  Rig rig(Strategy::kHierarchicalTransactional);
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
  ASSERT_EQ(rig.pool->built(), static_cast<size_t>(kThreads));

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
  EXPECT_EQ(rig.pool->built(), static_cast<size_t>(kThreads));
  EXPECT_EQ(rig.pool->reused(),
            static_cast<size_t>(kThreads * kTxnsPerThread));
  // ...and no acquire, refresh, or commit scanned the target: the chain
  // served every snapshot. This is the number the whole subsystem exists
  // to hold at zero.
  Engine& engine = *rig.engine;
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuilds_total"), 0u);
  EXPECT_EQ(Count(engine, "cpdb_snapshot_rebuild_rows_total"), 0u);
  EXPECT_GT(Count(engine, "cpdb_snapshot_refreshes_total"), 0u);
  // Idle inventory marches its pins forward, so the chain stays pruned.
  EXPECT_EQ(Level(engine, "cpdb_versions_live"), 1)
      << "published=" << Count(engine, "cpdb_versions_published_total")
      << " gced=" << Count(engine, "cpdb_versions_gced_total")
      << " refreshes=" << Count(engine, "cpdb_snapshot_refreshes_total")
      << " reused=" << rig.pool->reused()
      << " refreshed=" << rig.pool->refreshed();
}

TEST(ServiceCostTest, SessionChargesLandOnPrivateModelsAndAggregate) {
  Rig rig(Strategy::kTransactional);
  auto s = rig.pool->Acquire();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Apply(Update::Insert(Path::MustParse("T"), "x")).ok());
  ASSERT_TRUE((*s)->Commit().ok());
  {
    auto guard = (*s)->ReadLock();
    ASSERT_TRUE((*s)->backend()->GetAll().ok());
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
    ASSERT_TRUE((*s2)->backend()->GetAll().ok());
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

}  // namespace
}  // namespace cpdb
