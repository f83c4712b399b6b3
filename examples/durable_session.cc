// Durable curation session: edit a curated database, crash, reopen, and
// show that both the data and its provenance survive the restart.
//
// The curated target (a relational "prot" table) and the provenance store
// share ONE durable relstore::Database, so every committed transaction's
// data rows and provenance records ride the same write-ahead-log record
// and recover together — never one without the other.
//
// Usage:
//   durable_session [--dir=DIR]                  # populate, crash, verify
//   durable_session --dir=DIR --phase=populate   # populate then HARD-EXIT
//   durable_session --dir=DIR --phase=verify     # reopen and verify
//
// The split phases let CI kill the process for real between populate and
// verify (populate ends in _Exit: no destructors, no Close — the honest
// crash). Exit code 0 = verified.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "cpdb/cpdb.h"
#include "util/flags.h"

using namespace cpdb;
using tree::Path;

namespace {

constexpr const char* kScript =
    "(1) insert {p1 : {}} into T/prot;\n"
    "(2) insert {name : ABC1} into T/prot/p1;\n"
    "(3) insert {p2 : {}} into T/prot;\n"
    "(4) insert {loc : nucleus} into T/prot/p2;\n";

struct Session {
  std::unique_ptr<relstore::Database> db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::RelationalTargetDb> target;
  std::unique_ptr<Editor> editor;
};

bool OpenSession(const std::string& dir, Session* s) {
  auto db = relstore::Database::Open("curated", dir);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return false;
  }
  s->db = std::move(db).value();
  if (!s->db->GetTable("prot").ok()) {
    relstore::Schema schema(
        {{"id", relstore::ColumnType::kString, false},
         {"name", relstore::ColumnType::kString, true},
         {"loc", relstore::ColumnType::kString, true}});
    auto table = s->db->CreateTable("prot", schema);
    // The key index: the target finds each tuple it replays through it.
    if (!table.ok() ||
        !wrap::RelationalTargetDb::CreateKeyIndex(*table).ok()) {
      return false;
    }
  }
  s->backend = std::make_unique<provenance::ProvBackend>(s->db.get());
  s->target = std::make_unique<wrap::RelationalTargetDb>(
      "T", s->db.get(), std::vector<std::string>{"prot"});
  EditorOptions opts;
  opts.strategy = provenance::Strategy::kHierarchicalTransactional;
  // Transaction numbering continues where the recovered store left off.
  opts.first_tid = s->backend->MaxTid() + 1;
  auto editor = Editor::Create(s->target.get(), s->backend.get(), opts);
  if (!editor.ok()) {
    std::fprintf(stderr, "editor: %s\n",
                 editor.status().ToString().c_str());
    return false;
  }
  s->editor = std::move(editor).value();
  return true;
}

int Populate(const std::string& dir, bool hard_exit) {
  std::filesystem::remove_all(dir);
  Session s;
  if (!OpenSession(dir, &s)) return 1;
  if (!s.editor->ApplyScriptText(kScript).ok()) return 1;
  if (!s.editor->Commit().ok()) return 1;  // txn 1: fsynced here
  // A second transaction, so recovery has more than one commit to replay.
  if (!s.editor->Insert(Path::MustParse("T/prot/p1"), "loc",
                        tree::Value("membrane"))
           .ok()) {
    return 1;
  }
  if (!s.editor->Commit().ok()) return 1;  // txn 2
  const auto& stats = s.db->durability()->stats();
  std::printf("populated: %zu provenance rows, %zu commits, %zu fsyncs, "
              "%zu log bytes\n",
              s.backend->RowCount(), stats.commits, stats.fsyncs,
              stats.log_bytes);
  if (hard_exit) {
    std::printf("crashing now (hard exit, no Close)\n");
    std::fflush(stdout);
    std::_Exit(0);  // the crash: no destructors, no final sync
  }
  // In-process variant: drop everything without Close(), same crash
  // window — only fsynced state may survive into the verify step.
  return 0;
}

int Verify(const std::string& dir) {
  Session s;
  if (!OpenSession(dir, &s)) return 1;
  const auto& stats = s.db->durability()->stats();
  std::printf("recovered: %zu commit records replayed, last seq %llu\n",
              stats.replayed_commits,
              static_cast<unsigned long long>(stats.last_seq));

  std::vector<provenance::ProvRecord> all;
  provenance::ProvCursor scan = s.backend->ScanAll();
  for (provenance::ProvRecord rec; scan.Next(&rec);) all.push_back(rec);
  if (!scan.status().ok()) return 1;
  std::printf("\nProvenance table after restart:\n%s\n",
              provenance::RecordsToTable(all).c_str());

  // The data came back...
  const tree::Tree* name =
      s.editor->universe().Find(Path::MustParse("T/prot/p1/name"));
  if (name == nullptr || !name->HasValue() ||
      name->value().AsString() != "ABC1") {
    std::fprintf(stderr, "FAIL: T/prot/p1/name did not survive\n");
    return 1;
  }
  // ...and so did its provenance: the insert of p1/name is queryable.
  auto src = s.editor->query()->GetSrc(Path::MustParse("T/prot/p1/name"));
  if (!src.ok() || !src->has_value()) {
    std::fprintf(stderr, "FAIL: GetSrc lost after recovery\n");
    return 1;
  }
  std::printf("GetSrc(T/prot/p1/name) = txn %lld\n",
              static_cast<long long>(**src));
  auto mod = s.editor->query()->GetMod(Path::MustParse("T/prot"));
  if (!mod.ok() || mod->empty()) {
    std::fprintf(stderr, "FAIL: GetMod lost after recovery\n");
    return 1;
  }
  std::printf("GetMod(T/prot) spans %zu transactions\n", mod->size());
  if (s.backend->RowCount() == 0 || stats.replayed_commits == 0) {
    std::fprintf(stderr, "FAIL: nothing was recovered\n");
    return 1;
  }
  std::printf("\nOK: data and provenance recovered to the same "
              "committed transaction.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dir = flags.GetString("dir", "durable-session-db");
  const std::string phase = flags.GetString("phase", "");
  if (phase == "populate") return Populate(dir, /*hard_exit=*/true);
  if (phase == "verify") return Verify(dir);
  int rc = Populate(dir, /*hard_exit=*/false);
  if (rc != 0) return rc;
  std::printf("\n-- simulated crash; reopening --\n\n");
  return Verify(dir);
}
