// Fault-injection coverage of crash recovery: a golden curation session
// runs against ONE durable Database holding both the curated target table
// and the provenance store (so data and provenance share the log), the
// WAL is captured at every commit boundary, and then recovery is attacked
// with every prefix of the log (kill at a batch boundary), arbitrary
// byte-level truncations (kill mid-record), bit flips (media corruption),
// and a crash in the window between writing a checkpoint and truncating
// the log. Every recovered state must equal the golden state as of some
// committed transaction — with data, provenance, and QueryEngine::GetMod
// agreeing — never a torn hybrid.

#include <algorithm>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/durable.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using relstore::Database;
using relstore::Row;
using storage::Durability;
using testutil::TempDir;
using tree::Path;

constexpr Strategy kStrategies[] = {
    Strategy::kNaive, Strategy::kHierarchical, Strategy::kTransactional,
    Strategy::kHierarchicalTransactional};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Creates (first open) or adopts the curated table shared with the
/// provenance store.
void EnsureProtTable(Database* db) {
  if (db->GetTable("prot").ok()) return;
  relstore::Schema schema(
      {{"id", relstore::ColumnType::kString, false},
       {"name", relstore::ColumnType::kString, true},
       {"loc", relstore::ColumnType::kString, true}});
  ASSERT_TRUE(testutil::CreateKeyedTable(db, "prot", schema).ok());
}

std::vector<Row> SortedProtRows(Database* db) {
  std::vector<Row> rows;
  auto table = db->GetTable("prot");
  if (!table.ok()) return rows;
  (*table)->Scan([&](const relstore::Rid&, const Row& row) {
    rows.push_back(row);
    return true;
  });
  std::sort(rows.begin(), rows.end(), relstore::RowLess);
  return rows;
}

/// What a freshly attached reader sees: a new backend + editor over the
/// database's current tables — exactly the view a recovered session gets.
/// The editor only reads; GetMod answers over the rebuilt universe.
std::vector<int64_t> GetModView(Database* db, Strategy strategy) {
  provenance::ProvBackend backend(db);
  wrap::RelationalTargetDb target("T", db, {"prot"});
  EditorOptions opts;
  opts.strategy = strategy;
  opts.first_tid = backend.MaxTid() + 1;
  auto editor = Editor::Create(&target, &backend, opts);
  EXPECT_TRUE(editor.ok());
  auto mod = (*editor)->query()->GetMod(Path::MustParse("T/prot"));
  EXPECT_TRUE(mod.ok()) << mod.status();
  return mod.value_or({});
}

/// Golden state as of one committed transaction.
struct Capture {
  std::string wal_bytes;
  std::vector<ProvRecord> prov;
  std::vector<Row> prot_rows;
  std::vector<int64_t> getmod;
};

/// Runs the golden session: ten updates mixing tuple inserts, field sets,
/// and deletes (including an insert+delete of p3 inside one transaction,
/// which T nets away). Captures the WAL and the expected state after
/// every commit record. Ends in a simulated crash (no Close).
std::vector<Capture> RunGolden(Strategy strategy, const std::string& dir,
                               const std::function<void(Database*)>&
                                   mid_run_hook = nullptr) {
  std::vector<Capture> captures;
  auto opened = Database::Open("curated", dir);
  EXPECT_TRUE(opened.ok());
  std::unique_ptr<Database> db = std::move(opened).value();
  EnsureProtTable(db.get());
  provenance::ProvBackend backend(db.get());
  wrap::RelationalTargetDb target("T", db.get(), {"prot"});
  EditorOptions opts;
  opts.strategy = strategy;
  auto editor_or = Editor::Create(&target, &backend, opts);
  EXPECT_TRUE(editor_or.ok());
  std::unique_ptr<Editor> editor = std::move(editor_or).value();

  auto maybe_capture = [&] {
    size_t commits = db->durability()->stats().commits;
    ASSERT_LE(commits, captures.size() + 1);  // one record per commit
    if (commits == captures.size()) return;   // nothing new sealed
    Capture cap;
    cap.wal_bytes = ReadFile(Durability::WalPath(dir));
    auto all = testutil::DrainAll(backend.ScanAll());
    ASSERT_TRUE(all.ok());
    cap.prov = std::move(all).value();
    cap.prot_rows = SortedProtRows(db.get());
    cap.getmod = GetModView(db.get(), strategy);
    captures.push_back(std::move(cap));
  };

  const Path prot = Path::MustParse("T/prot");
  const std::vector<std::function<Status()>> ops = {
      [&] { return editor->Insert(prot, "p1"); },
      [&] {
        return editor->Insert(Path::MustParse("T/prot/p1"), "name",
                              tree::Value("alpha"));
      },
      [&] { return editor->Insert(prot, "p2"); },
      [&] {
        return editor->Insert(Path::MustParse("T/prot/p2"), "loc",
                              tree::Value("nucleus"));
      },
      [&] { return editor->Insert(prot, "p3"); },
      [&] { return editor->Delete(prot, "p3"); },
      [&] {
        return editor->Insert(Path::MustParse("T/prot/p2"), "name",
                              tree::Value("beta"));
      },
      [&] { return editor->Delete(prot, "p1"); },
      [&] { return editor->Insert(prot, "p4"); },
      [&] {
        return editor->Insert(Path::MustParse("T/prot/p4"), "loc",
                              tree::Value("er"));
      },
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_TRUE(ops[i]().ok()) << "op " << i;
    // T/HT: commit every 3 ops and at the end; N/H auto-commit per op.
    if ((i + 1) % 3 == 0 || i + 1 == ops.size()) {
      EXPECT_TRUE(editor->Commit().ok());
    }
    maybe_capture();
    if (testing::Test::HasFatalFailure()) return captures;
    if (mid_run_hook != nullptr && i + 1 == ops.size() / 2) {
      mid_run_hook(db.get());
    }
  }
  return captures;  // crash: no Close(), nothing flushed beyond the log
}

/// Opens a recovered database and asserts it matches `expected` exactly:
/// provenance table, curated rows, and the GetMod answer.
void ExpectStateEquals(Database* db, const Capture& expected,
                       Strategy strategy) {
  provenance::ProvBackend backend(db);
  auto prov = testutil::DrainAll(backend.ScanAll());
  ASSERT_TRUE(prov.ok());
  EXPECT_EQ(*prov, expected.prov);
  EXPECT_EQ(SortedProtRows(db), expected.prot_rows);
  EXPECT_EQ(GetModView(db, strategy), expected.getmod);
}

/// Recovers from raw WAL bytes in a fresh directory; returns the opened
/// database (asserting the open itself succeeded).
std::unique_ptr<Database> RecoverFromWal(const TempDir& dir,
                                         const std::string& wal_bytes) {
  WriteFile(Durability::WalPath(dir.path()), wal_bytes);
  auto db = Database::Open("curated", dir.path());
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

TEST(CrashRecoveryTest, KillAtEveryCommitBoundaryRecoversThatCommit) {
  for (Strategy strategy : kStrategies) {
    SCOPED_TRACE(provenance::StrategyName(strategy));
    TempDir golden_dir("golden");
    std::vector<Capture> captures = RunGolden(strategy, golden_dir.path());
    ASSERT_FALSE(captures.empty());
    for (size_t i = 0; i < captures.size(); ++i) {
      SCOPED_TRACE("commit " + std::to_string(i + 1));
      TempDir dir("boundary");
      auto db = RecoverFromWal(dir, captures[i].wal_bytes);
      ASSERT_NE(db, nullptr);
      EXPECT_EQ(db->durability()->stats().replayed_commits, i + 1);
      ExpectStateEquals(db.get(), captures[i], strategy);
    }
  }
}

TEST(CrashRecoveryTest, KillAtArbitraryByteOffsetsRecoversLastGoodCommit) {
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyName(strategy));
    TempDir golden_dir("golden");
    std::vector<Capture> captures = RunGolden(strategy, golden_dir.path());
    ASSERT_FALSE(captures.empty());
    const std::string& full = captures.back().wal_bytes;
    // Sweep truncation lengths with a stride coprime to typical record
    // sizes, plus the exact end.
    for (size_t len = 0; len <= full.size(); len += 13) {
      SCOPED_TRACE("truncated to " + std::to_string(len));
      TempDir dir("sweep");
      auto db = RecoverFromWal(dir, full.substr(0, len));
      ASSERT_NE(db, nullptr);
      size_t r = db->durability()->stats().replayed_commits;
      ASSERT_LE(r, captures.size());
      if (r == 0) {
        EXPECT_TRUE(db->TableNames().empty());
        continue;
      }
      ExpectStateEquals(db.get(), captures[r - 1], strategy);
    }
  }
}

TEST(CrashRecoveryTest, BitFlipLosesOnlyCommitsFromTheFlipOnwards) {
  TempDir golden_dir("golden");
  std::vector<Capture> captures =
      RunGolden(Strategy::kNaive, golden_dir.path());
  ASSERT_GE(captures.size(), 3u);
  const std::string& full = captures.back().wal_bytes;
  // Flip one bit somewhere inside each third of the log.
  for (size_t at : {full.size() / 6, full.size() / 2, full.size() - 2}) {
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
    TempDir dir("flip");
    auto db = RecoverFromWal(dir, bytes);
    ASSERT_NE(db, nullptr);
    size_t r = db->durability()->stats().replayed_commits;
    ASSERT_LT(r, captures.size());  // the flipped commit must not survive
    if (r > 0) {
      ExpectStateEquals(db.get(), captures[r - 1], Strategy::kNaive);
    }
  }
}

TEST(CrashRecoveryTest, CrashBetweenCheckpointAndLogTruncateIsIdempotent) {
  // The hook writes a checkpoint mid-run but "crashes" before the log is
  // truncated: recovery sees a snapshot AND a log whose early records are
  // already inside it, and must skip them (seq <= snapshot seq) instead
  // of applying them twice.
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kTransactional}) {
    SCOPED_TRACE(provenance::StrategyName(strategy));
    TempDir dir("ckpt_crash");
    std::vector<Capture> captures =
        RunGolden(strategy, dir.path(), [&](Database* db) {
          ASSERT_TRUE(storage::WriteSnapshot(
                          *db, db->durability()->stats().last_seq,
                          Durability::CheckpointPath(dir.path()))
                          .ok());
        });
    ASSERT_FALSE(captures.empty());
    auto db = Database::Open("curated", dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE((*db)->durability()->stats().snapshot_loaded);
    // Some commits came from the snapshot, the rest from the log tail...
    EXPECT_LT((*db)->durability()->stats().replayed_commits,
              captures.size());
    // ...and the combination is exactly the last committed transaction.
    ExpectStateEquals(db->get(), captures.back(), strategy);
  }
}

TEST(CrashRecoveryTest, MidRunCheckpointThenCrashRecoversFully) {
  for (Strategy strategy :
       {Strategy::kHierarchical, Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyName(strategy));
    TempDir dir("ckpt_mid");
    std::vector<Capture> captures =
        RunGolden(strategy, dir.path(), [](Database* db) {
          ASSERT_TRUE(db->Checkpoint().ok());
        });
    ASSERT_FALSE(captures.empty());
    auto db = Database::Open("curated", dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE((*db)->durability()->stats().snapshot_loaded);
    ExpectStateEquals(db->get(), captures.back(), strategy);
  }
}

}  // namespace
}  // namespace cpdb
