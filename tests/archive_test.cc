#include "archive/archive.h"

#include <gtest/gtest.h>

#include <vector>

#include "tree/serialize.h"
#include "update/semantics.h"

namespace cpdb::archive {
namespace {

tree::Tree T(const std::string& lit) {
  auto r = tree::ParseTree(lit);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

tree::Path P(const std::string& s) { return tree::Path::MustParse(s); }

/// Applies a script to a working tree and records it as a one-version run.
Status Step(VersionArchive* arch, tree::Tree* work, int64_t tid,
            update::Script script) {
  CPDB_RETURN_IF_ERROR(update::ApplySequence(work, script));
  return arch->Record(tid, {std::move(script)}, *work);
}

TEST(ArchiveTest, ReconstructsAllVersions) {
  tree::Tree work = T("{T: {a: 1}}");
  VersionArchive arch(0, work.Clone());
  ASSERT_TRUE(Step(&arch, &work, 1,
                   {update::Update::Insert(P("T"), "b",
                                           tree::Value(int64_t{2}))})
                  .ok());
  ASSERT_TRUE(
      Step(&arch, &work, 2, {update::Update::Delete(P("T"), "a")}).ok());
  ASSERT_TRUE(Step(&arch, &work, 3,
                   {update::Update::Insert(P("T"), "c"),
                    update::Update::Copy(P("T/b"), P("T/c/d"))})
                  .ok());

  auto v0 = arch.GetVersion(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(v0->Equals(T("{T: {a: 1}}")));
  auto v1 = arch.GetVersion(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->Equals(T("{T: {a: 1, b: 2}}")));
  auto v2 = arch.GetVersion(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->Equals(T("{T: {b: 2}}")));
  auto v3 = arch.GetVersion(3);
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE(v3->Equals(work));
  EXPECT_FALSE(arch.GetVersion(4).ok());
  EXPECT_FALSE(arch.GetVersion(-1).ok());
}

TEST(ArchiveTest, NonConsecutiveVersionsRejected) {
  VersionArchive arch(0, tree::Tree());
  tree::Tree work;
  EXPECT_TRUE(arch.Record(2, {update::Script{}}, work).IsInvalidArgument());
  EXPECT_TRUE(arch.Record(1, {}, work).IsInvalidArgument());  // empty run
}

TEST(ArchiveTest, CheckpointCadence) {
  VersionArchive::Options opts;
  opts.checkpoint_every = 4;
  tree::Tree work = T("{T: {}}");
  VersionArchive arch(0, work.Clone(), opts);
  for (int64_t tid = 1; tid <= 10; ++tid) {
    ASSERT_TRUE(Step(&arch, &work, tid,
                     {update::Update::Insert(
                         P("T"), "n" + std::to_string(tid))})
                    .ok());
  }
  // Checkpoints at 0, 4, 8 -> 3 snapshots for 11 versions.
  EXPECT_EQ(arch.CheckpointCount(), 3u);
  // Reconstruction across a checkpoint boundary.
  auto v7 = arch.GetVersion(7);
  ASSERT_TRUE(v7.ok());
  EXPECT_TRUE(v7->Contains(P("T/n7")));
  EXPECT_FALSE(v7->Contains(P("T/n8")));
}

TEST(ArchiveTest, RunRecordedInOneCallCheckpointsAtItsLastVersion) {
  // An N/H script commits one version per op but only its post-state is
  // known, so a checkpoint due inside the run lands on its last version.
  VersionArchive::Options opts;
  opts.checkpoint_every = 4;
  tree::Tree work = T("{T: {}}");
  VersionArchive arch(0, work.Clone(), opts);
  std::vector<tree::Tree> expected;
  expected.push_back(work.Clone());
  std::vector<update::Script> run;
  for (int64_t tid = 1; tid <= 5; ++tid) {
    update::Script script = {
        update::Update::Insert(P("T"), "n" + std::to_string(tid))};
    ASSERT_TRUE(update::ApplySequence(&work, script).ok());
    expected.push_back(work.Clone());
    run.push_back(std::move(script));
  }
  ASSERT_TRUE(arch.Record(1, std::move(run), work).ok());
  EXPECT_EQ(arch.last_version(), 5);
  EXPECT_EQ(arch.CheckpointCount(), 2u);  // the base and version 5
  for (int64_t v = 0; v <= 5; ++v) {
    auto got = arch.GetVersion(v);
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_TRUE(got->Equals(expected[static_cast<size_t>(v)])) << v;
  }
  ASSERT_TRUE(arch.GetScript(3).ok());
  EXPECT_EQ((**arch.GetScript(3))[0].label, "n3");
  // The cadence restarts from version 5: versions 6-8 add no checkpoint,
  // version 9 does.
  for (int64_t tid = 6; tid <= 9; ++tid) {
    ASSERT_TRUE(Step(&arch, &work, tid,
                     {update::Update::Insert(
                         P("T"), "n" + std::to_string(tid))})
                    .ok());
    EXPECT_EQ(arch.CheckpointCount(), tid < 9 ? 2u : 3u) << tid;
  }
}

TEST(ArchiveTest, GetScript) {
  tree::Tree work = T("{T: {}}");
  VersionArchive arch(0, work.Clone());
  update::Script script = {update::Update::Insert(P("T"), "x")};
  ASSERT_TRUE(update::ApplySequence(&work, script).ok());
  ASSERT_TRUE(arch.Record(1, {script}, work).ok());
  auto got = arch.GetScript(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, script);
  EXPECT_TRUE(arch.GetScript(2).status().IsNotFound());
}

TEST(ArchiveTest, VersionFnMemoKeepsTwoVersionsLive) {
  tree::Tree work = T("{T: {}}");
  VersionArchive arch(0, work.Clone());
  for (int64_t tid = 1; tid <= 3; ++tid) {
    ASSERT_TRUE(Step(&arch, &work, tid,
                     {update::Update::Insert(
                         P("T"), "n" + std::to_string(tid))})
                    .ok());
  }
  auto fn = arch.MakeVersionFn();
  const tree::Tree* v2 = fn(2);
  const tree::Tree* v1 = fn(1);
  ASSERT_NE(v2, nullptr);
  ASSERT_NE(v1, nullptr);
  // Both must stay valid simultaneously (pre/post of one transaction).
  EXPECT_TRUE(v2->Contains(P("T/n2")));
  EXPECT_FALSE(v1->Contains(P("T/n2")));
  EXPECT_EQ(fn(99), nullptr);
}

TEST(ArchiveTest, ArchiveAloneCannotDistinguishCopyFromInsert) {
  // The Section 5 argument: the archived versions show *what* changed
  // but not *how* — a copy and a fresh insert with equal content yield
  // identical versions, which is why provenance is not subsumed by
  // archiving/version control.
  tree::Tree work = T("{S: {a: 5}, T: {}}");
  VersionArchive arch(0, work.Clone());
  ASSERT_TRUE(
      Step(&arch, &work, 1, {update::Update::Copy(P("S/a"), P("T/b"))}).ok());

  tree::Tree work2 = T("{S: {a: 5}, T: {}}");
  VersionArchive arch2(0, work2.Clone());
  ASSERT_TRUE(Step(&arch2, &work2, 1,
                   {update::Update::Insert(P("T"), "b",
                                           tree::Value(int64_t{5}))})
                  .ok());

  auto a1 = arch.GetVersion(1);
  auto b1 = arch2.GetVersion(1);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(b1.ok());
  EXPECT_TRUE(a1->Equals(*b1));  // indistinguishable by version
  // ...but distinguishable by the scripts provenance would record.
  EXPECT_NE(**arch.GetScript(1), **arch2.GetScript(1));
}

}  // namespace
}  // namespace cpdb::archive
