#include "workload/update_gen.h"

#include <gtest/gtest.h>

#include "workload/data_gen.h"

namespace cpdb::workload {
namespace {

TEST(DataGenTest, MimiLikeShape) {
  tree::Tree t = GenMimiLike(50, 1);
  EXPECT_EQ(t.ChildCount(), 50u);
  const tree::Tree* entry = t.GetChild("prot1");
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->GetChild("name"), nullptr);
  EXPECT_NE(entry->GetChild("interactions"), nullptr);
}

TEST(DataGenTest, OrganelleLikeIsSizeFourSubtrees) {
  // "The copies were all of subtrees of size four (a parent with three
  // children)" — every source entry must have exactly that shape.
  tree::Tree t = GenOrganelleLike(100, 2);
  EXPECT_EQ(t.ChildCount(), 100u);
  for (const auto& [label, entry] : t.children()) {
    (void)label;
    EXPECT_EQ(entry->NodeCount(), 4u);
    EXPECT_EQ(entry->ChildCount(), 3u);
    for (const auto& [f, child] : entry->children()) {
      (void)f;
      EXPECT_FALSE(child->HasChildren());
    }
  }
}

TEST(DataGenTest, DeterministicAcrossCalls) {
  EXPECT_TRUE(GenMimiLike(20, 7).Equals(GenMimiLike(20, 7)));
  EXPECT_FALSE(GenMimiLike(20, 7).Equals(GenMimiLike(20, 8)));
}

TEST(DataGenTest, RelationalOrganelleMatchesTreeShape) {
  relstore::Database db("src");
  auto table = FillOrganelleRelational(&db, 30, 3);
  ASSERT_TRUE(table.ok());
  auto t = db.GetTable(table.value());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 30u);
  EXPECT_EQ((*t)->schema().NumColumns(), 4u);  // id + 3 fields
}

class GeneratorPatternTest : public ::testing::TestWithParam<Pattern> {};

TEST_P(GeneratorPatternTest, GeneratedOpsAlwaysApply) {
  // Every generated operation must be valid against the live tree.
  tree::Tree universe;
  ASSERT_TRUE(universe.AddChild("T", GenMimiLike(30, 4)).ok());
  ASSERT_TRUE(universe.AddChild("S1", GenOrganelleLike(60, 5)).ok());
  GenOptions opts;
  opts.pattern = GetParam();
  opts.seed = 9;
  UpdateGenerator gen(&universe, opts);
  size_t applied = 0;
  for (int i = 0; i < 400; ++i) {
    auto u = gen.Next();
    if (!u.has_value()) break;
    update::ApplyEffect effect;
    Status st = update::Apply(&universe, *u, &effect);
    ASSERT_TRUE(st.ok()) << u->ToString() << ": " << st;
    gen.OnApplied(*u, effect);
    ++applied;
  }
  EXPECT_GT(applied, 350u);
  EXPECT_EQ(applied, gen.adds() + gen.deletes() + gen.copies());
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, GeneratorPatternTest,
    ::testing::Values(Pattern::kAdd, Pattern::kDelete, Pattern::kCopy,
                      Pattern::kAcMix, Pattern::kMix, Pattern::kReal),
    [](const ::testing::TestParamInfo<Pattern>& param_info) {
      std::string n = PatternName(param_info.param);
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST(GeneratorTest, MixProportionsRoughlyEqual) {
  tree::Tree universe;
  ASSERT_TRUE(universe.AddChild("T", GenMimiLike(50, 4)).ok());
  ASSERT_TRUE(universe.AddChild("S1", GenOrganelleLike(100, 5)).ok());
  GenOptions opts;
  opts.pattern = Pattern::kMix;
  opts.seed = 10;
  UpdateGenerator gen(&universe, opts);
  for (int i = 0; i < 900; ++i) {
    auto u = gen.Next();
    ASSERT_TRUE(u.has_value());
    update::ApplyEffect effect;
    ASSERT_TRUE(update::Apply(&universe, *u, &effect).ok());
    gen.OnApplied(*u, effect);
  }
  EXPECT_NEAR(static_cast<double>(gen.adds()), 300, 70);
  EXPECT_NEAR(static_cast<double>(gen.deletes()), 300, 70);
  EXPECT_NEAR(static_cast<double>(gen.copies()), 300, 70);
}

TEST(GeneratorTest, RealPatternCycles) {
  // 1 copy : 3 deletes : 3 adds per 7-op cycle.
  tree::Tree universe;
  ASSERT_TRUE(universe.AddChild("T", GenMimiLike(10, 4)).ok());
  ASSERT_TRUE(universe.AddChild("S1", GenOrganelleLike(50, 5)).ok());
  GenOptions opts;
  opts.pattern = Pattern::kReal;
  opts.seed = 11;
  UpdateGenerator gen(&universe, opts);
  for (int i = 0; i < 700; ++i) {
    auto u = gen.Next();
    ASSERT_TRUE(u.has_value());
    update::ApplyEffect effect;
    ASSERT_TRUE(update::Apply(&universe, *u, &effect).ok());
    gen.OnApplied(*u, effect);
  }
  EXPECT_EQ(gen.copies(), 100u);
  EXPECT_EQ(gen.deletes(), 300u);
  EXPECT_EQ(gen.adds(), 300u);
}

TEST(GeneratorTest, SkippedDeletesInAcRuns) {
  tree::Tree universe;
  ASSERT_TRUE(universe.AddChild("T", GenMimiLike(30, 4)).ok());
  ASSERT_TRUE(universe.AddChild("S1", GenOrganelleLike(60, 5)).ok());
  GenOptions opts;
  opts.pattern = Pattern::kMix;
  opts.include_deletes = false;
  opts.seed = 12;
  UpdateGenerator gen(&universe, opts);
  size_t ops = 0, skips = 0;
  for (int i = 0; i < 300; ++i) {
    bool skipped = false;
    auto u = gen.Next(&skipped);
    if (skipped) {
      ++skips;
      continue;
    }
    ASSERT_TRUE(u.has_value());
    update::ApplyEffect effect;
    ASSERT_TRUE(update::Apply(&universe, *u, &effect).ok());
    gen.OnApplied(*u, effect);
    ++ops;
  }
  EXPECT_EQ(gen.deletes(), 0u);
  EXPECT_GT(skips, 60u);  // ~1/3 of slots
  EXPECT_EQ(ops + skips, 300u);
}

}  // namespace
}  // namespace cpdb::workload
