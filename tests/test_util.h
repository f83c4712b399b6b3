#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cpdb/cpdb.h"

namespace cpdb::testutil {

/// Self-cleaning scratch directory for durability/recovery tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("cpdb_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Creates a table for a wrap::RelationalTargetDb to wrap: `schema` plus
/// the key index the target requires.
inline Result<relstore::Table*> CreateKeyedTable(relstore::Database* db,
                                                 const std::string& name,
                                                 relstore::Schema schema) {
  CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                        db->CreateTable(name, std::move(schema)));
  CPDB_RETURN_IF_ERROR(wrap::RelationalTargetDb::CreateKeyIndex(table));
  return table;
}

/// Drains a provenance cursor in a single fetch — exactly one modelled
/// round trip — for tests that compare whole scans at once.
inline Result<std::vector<provenance::ProvRecord>> DrainAll(
    provenance::ProvCursor cursor) {
  std::vector<provenance::ProvRecord> out;
  cursor.Next(&out, provenance::ProvCursor::kNoLimit);
  CPDB_RETURN_IF_ERROR(cursor.status());
  return out;
}

/// The source and target trees of the paper's Figure 4 (leaf values are
/// chosen to be pairwise distinguishable; the provenance tables of
/// Figure 5 depend only on the shape, which is reproduced exactly:
/// a2 and b2 have a single child x; a1, a3, b1, b3 have children x, y;
/// T starts with c1{x,y} and c5{x,y}).
inline tree::Tree Figure4Universe() {
  auto parsed = tree::ParseTree(
      "{S1: {a1: {x: 1, y: 3}, a2: {x: 3}, a3: {x: 7, y: 6}},"
      " S2: {b1: {x: 1, y: 2}, b2: {x: 4}, b3: {x: 2, y: 5}},"
      " T:  {c1: {x: 1, y: 2}, c5: {x: 9, y: 7}}}");
  return std::move(parsed).value();
}

inline tree::Tree Figure4SourceS1() {
  tree::Tree u = Figure4Universe();
  auto child = u.TakeChild("S1");
  return std::move(child).value();
}

inline tree::Tree Figure4SourceS2() {
  tree::Tree u = Figure4Universe();
  auto child = u.TakeChild("S2");
  return std::move(child).value();
}

inline tree::Tree Figure4TargetT() {
  tree::Tree u = Figure4Universe();
  auto child = u.TakeChild("T");
  return std::move(child).value();
}

/// The update operation of the paper's Figure 3, verbatim.
inline const char* Figure3ScriptText() {
  return "(1) delete c5 from T;\n"
         "(2) copy S1/a1/y into T/c1/y;\n"
         "(3) insert {c2 : {}} into T;\n"
         "(4) copy S1/a2 into T/c2;\n"
         "(5) insert {y : {}} into T/c2;\n"
         "(6) copy S2/b3/y into T/c2/y;\n"
         "(7) copy S1/a3 into T/c3;\n"
         "(8) insert {c4 : {}} into T;\n"
         "(9) copy S2/b2 into T/c4;\n"
         "(10) insert {y : 12} into T/c4;\n";
}

/// A full editing session with owned substrates.
struct Session {
  std::unique_ptr<relstore::Database> prov_db;
  std::unique_ptr<provenance::ProvBackend> backend;
  std::unique_ptr<wrap::TreeTargetDb> target;
  std::unique_ptr<wrap::TreeSourceDb> s1;
  std::unique_ptr<wrap::TreeSourceDb> s2;
  std::unique_ptr<Editor> editor;
};

/// Builds a session over the Figure 4 data with the given strategy.
/// Transaction numbering starts at 121 as in Figure 5.
inline std::unique_ptr<Session> MakeFigureSession(
    provenance::Strategy strategy, int64_t first_tid = 121,
    bool enable_archive = true) {
  auto s = std::make_unique<Session>();
  s->prov_db = std::make_unique<relstore::Database>("provdb");
  s->backend = std::make_unique<provenance::ProvBackend>(s->prov_db.get());
  s->target = std::make_unique<wrap::TreeTargetDb>("T", Figure4TargetT());
  s->s1 = std::make_unique<wrap::TreeSourceDb>("S1", Figure4SourceS1());
  s->s2 = std::make_unique<wrap::TreeSourceDb>("S2", Figure4SourceS2());
  EditorOptions opts;
  opts.strategy = strategy;
  opts.first_tid = first_tid;
  opts.enable_archive = enable_archive;
  auto editor = Editor::Create(s->target.get(), s->backend.get(), opts);
  s->editor = std::move(editor).value();
  auto st = s->editor->MountSource(s->s1.get());
  if (!st.ok()) return nullptr;
  st = s->editor->MountSource(s->s2.get());
  if (!st.ok()) return nullptr;
  return s;
}

/// Shorthand provenance record constructor for expected tables.
inline provenance::ProvRecord Rec(int64_t tid, char op,
                                  const std::string& loc,
                                  const std::string& src = "") {
  provenance::ProvRecord r;
  r.tid = tid;
  r.op = *provenance::ProvOpFromChar(op);
  r.loc = tree::Path::MustParse(loc);
  if (!src.empty()) r.src = tree::Path::MustParse(src);
  return r;
}

/// Runs `steps` operations of a random workload through the session's
/// editor, committing every `txn_len` operations. Returns the number of
/// operations actually applied.
inline size_t RunRandomWorkload(Session* s, workload::GenOptions gen_opts,
                                size_t steps, size_t txn_len) {
  workload::UpdateGenerator gen(&s->editor->universe(), gen_opts);
  size_t applied = 0;
  for (size_t i = 0; i < steps; ++i) {
    bool skipped = false;
    auto u = gen.Next(&skipped);
    if (!u.has_value()) {
      if (skipped) continue;
      break;
    }
    update::ApplyEffect effect;
    // Re-derive the effect by asking the editor to apply; the editor does
    // its own tracking, so we recompute the effect for the generator from
    // a pre-application dry run of Apply on a probe of the tree state.
    Status st = s->editor->ApplyUpdate(*u);
    if (!st.ok()) continue;
    // Reconstruct a minimal effect for pool maintenance.
    if (u->kind == update::OpKind::kInsert) {
      effect.inserted.push_back(u->AffectedPath());
    } else if (u->kind == update::OpKind::kCopy) {
      const tree::Tree* pasted = s->editor->universe().Find(u->target);
      if (pasted != nullptr) {
        pasted->Visit([&](const tree::Path& rel, const tree::Tree&) {
          effect.copied.emplace_back(u->target.Concat(rel),
                                     u->source.Concat(rel));
        });
      }
    }
    gen.OnApplied(*u, effect);
    ++applied;
    if (txn_len > 0 && applied % txn_len == 0) {
      (void)s->editor->Commit();
    }
  }
  (void)s->editor->Commit();
  return applied;
}

}  // namespace cpdb::testutil
