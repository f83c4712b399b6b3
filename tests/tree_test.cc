#include "tree/tree.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tree/serialize.h"
#include "tree/value.h"
#include "util/rng.h"

namespace cpdb::tree {
namespace {

Tree T(const std::string& literal) {
  auto r = ParseTree(literal);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_EQ(Value(int64_t{3}).AsInt(), 3);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, RoundTripViaString) {
  for (const Value& v :
       {Value(), Value(int64_t{42}), Value(2.5), Value("hello")}) {
    EXPECT_EQ(Value::FromString(v.ToString()), v);
  }
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_FALSE(Value(int64_t{2}) < Value(int64_t{2}));
}

TEST(TreeTest, EmptyTree) {
  Tree t;
  EXPECT_TRUE(t.IsEmpty());
  EXPECT_FALSE(t.HasValue());
  EXPECT_FALSE(t.HasChildren());
  EXPECT_EQ(t.NodeCount(), 1u);
  EXPECT_EQ(t.ToString(), "{}");
}

TEST(TreeTest, LeafValue) {
  Tree t(Value(int64_t{7}));
  EXPECT_TRUE(t.HasValue());
  EXPECT_EQ(t.value().AsInt(), 7);
  EXPECT_FALSE(t.IsEmpty());
}

TEST(TreeTest, AddChildRejectsDuplicates) {
  Tree t;
  EXPECT_TRUE(t.AddChild("a", Tree()).ok());
  Status st = t.AddChild("a", Tree());
  EXPECT_TRUE(st.IsAlreadyExists());
}

TEST(TreeTest, AddChildRejectsValueLeaf) {
  Tree t(Value(int64_t{1}));
  EXPECT_FALSE(t.AddChild("a", Tree()).ok());
}

TEST(TreeTest, SetValueRejectsInternalNode) {
  Tree t;
  ASSERT_TRUE(t.AddChild("a", Tree()).ok());
  EXPECT_FALSE(t.SetValue(Value(int64_t{1})).ok());
}

TEST(TreeTest, RemoveChild) {
  Tree t = T("{a: 1, b: 2}");
  EXPECT_TRUE(t.RemoveChild("a").ok());
  EXPECT_EQ(t.GetChild("a"), nullptr);
  EXPECT_TRUE(t.RemoveChild("a").IsNotFound());
}

TEST(TreeTest, FindByPath) {
  Tree t = T("{a: {b: {c: 5}}}");
  const Tree* node = t.Find(Path::MustParse("a/b/c"));
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->value().AsInt(), 5);
  EXPECT_EQ(t.Find(Path::MustParse("a/x")), nullptr);
  EXPECT_EQ(t.Find(Path()), &t);
}

TEST(TreeTest, InsertAtAndDeleteAt) {
  Tree t = T("{a: {}}");
  EXPECT_TRUE(t.InsertAt(Path::MustParse("a"), "b",
                         Tree(Value(int64_t{1}))).ok());
  EXPECT_TRUE(t.Contains(Path::MustParse("a/b")));
  EXPECT_TRUE(t.InsertAt(Path::MustParse("zz"), "b", Tree()).IsNotFound());
  EXPECT_TRUE(t.DeleteAt(Path::MustParse("a"), "b").ok());
  EXPECT_FALSE(t.Contains(Path::MustParse("a/b")));
}

TEST(TreeTest, ReplaceAtCreatesOrReplaces) {
  Tree t = T("{a: {b: 1}}");
  // Replace existing.
  EXPECT_TRUE(t.ReplaceAt(Path::MustParse("a/b"),
                          Tree(Value(int64_t{9}))).ok());
  EXPECT_EQ(t.Find(Path::MustParse("a/b"))->value().AsInt(), 9);
  // Create fresh edge (as in Figure 3's operation (7)).
  EXPECT_TRUE(t.ReplaceAt(Path::MustParse("a/c"),
                          Tree(Value(int64_t{2}))).ok());
  EXPECT_EQ(t.Find(Path::MustParse("a/c"))->value().AsInt(), 2);
  // Parent must exist.
  EXPECT_TRUE(t.ReplaceAt(Path::MustParse("zz/c"), Tree()).IsNotFound());
}

TEST(TreeTest, CloneIsDeep) {
  Tree t = T("{a: {b: 1}}");
  Tree c = t.Clone();
  ASSERT_TRUE(c.Equals(t));
  ASSERT_TRUE(c.DeleteAt(Path::MustParse("a"), "b").ok());
  EXPECT_TRUE(t.Contains(Path::MustParse("a/b")));  // original untouched
  EXPECT_FALSE(c.Equals(t));
}

TEST(TreeTest, NodeCountAndDescendants) {
  Tree t = T("{a: {x: 1, y: 2, z: 3}}");  // the size-4 copy unit + root
  EXPECT_EQ(t.NodeCount(), 5u);
  EXPECT_EQ(t.GetChild("a")->NodeCount(), 4u);
  EXPECT_EQ(t.GetChild("a")->DescendantCount(), 3u);
}

TEST(TreeTest, EqualsIsStructuralAndValueSensitive) {
  EXPECT_TRUE(T("{a: 1, b: {c: 2}}").Equals(T("{b: {c: 2}, a: 1}")));
  EXPECT_FALSE(T("{a: 1}").Equals(T("{a: 2}")));
  EXPECT_FALSE(T("{a: 1}").Equals(T("{a: 1, b: 2}")));
  EXPECT_FALSE(T("{a: {}}").Equals(T("{a: 1}")));
}

TEST(TreeTest, VisitIsPreorder) {
  Tree t = T("{a: {b: 1}, c: 2}");
  std::vector<std::string> seen;
  t.Visit([&](const Path& p, const Tree&) { seen.push_back(p.ToString()); });
  EXPECT_EQ(seen, (std::vector<std::string>{"", "a", "a/b", "c"}));
}

TEST(TreeTest, TakeChildMovesSubtree) {
  Tree t = T("{a: {b: 1}}");
  auto taken = t.TakeChild("a");
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken->Contains(Path::MustParse("b")));
  EXPECT_FALSE(t.HasChildren());
  EXPECT_TRUE(t.TakeChild("a").status().IsNotFound());
}

TEST(TreeTest, ToStringRoundTrip) {
  for (const char* lit :
       {"{}", "{a: 1}", "{a: {b: {c: \"x y\"}}, d: null}",
        "{c1: {x: 1, y: 2}, c5: {x: 9, y: 7}}"}) {
    Tree t = T(lit);
    Tree again = T(t.ToString());
    EXPECT_TRUE(t.Equals(again)) << lit << " -> " << t.ToString();
  }
}

TEST(TreeTest, ByteSizeGrowsWithContent) {
  EXPECT_LT(T("{a: 1}").ByteSize(), T("{a: 1, b: {c: 2, d: 3}}").ByteSize());
}

// ----- Copy-on-write structural sharing ------------------------------------

TEST(TreeCowTest, CloneSharesStructure) {
  Tree t = T("{a: {x: 1, y: 2}, b: {z: 3}}");
  Tree c = t.Clone();
  // Physically shared: same child nodes, not copies.
  EXPECT_TRUE(t.SharesAllChildrenWith(c));
  EXPECT_EQ(std::as_const(t).GetChild("a"), std::as_const(c).GetChild("a"));
  EXPECT_TRUE(t.Equals(c));
}

TEST(TreeCowTest, MutationPrivatizesOnlyThePath) {
  Tree t = T("{a: {x: 1, y: 2}, b: {z: 3}}");
  Tree c = t.Clone();
  // Mutating the clone must not be visible through the original...
  ASSERT_TRUE(c.InsertAt(Path({"a"}), "w", Tree(Value(int64_t{9}))).ok());
  EXPECT_FALSE(t.Contains(Path({"a", "w"})));
  EXPECT_TRUE(c.Contains(Path({"a", "w"})));
  // ...and untouched siblings stay physically shared.
  EXPECT_NE(std::as_const(t).GetChild("a"), std::as_const(c).GetChild("a"));
  EXPECT_EQ(std::as_const(t).GetChild("b"), std::as_const(c).GetChild("b"));
}

TEST(TreeCowTest, MutatingOriginalLeavesCloneIntact) {
  Tree t = T("{a: {x: 1}}");
  Tree c = t.Clone();
  ASSERT_TRUE(t.DeleteAt(Path({"a"}), "x").ok());
  EXPECT_FALSE(t.Contains(Path({"a", "x"})));
  EXPECT_TRUE(c.Contains(Path({"a", "x"})));
  EXPECT_EQ(c.Find(Path({"a", "x"}))->value().AsInt(), 1);
}

TEST(TreeCowTest, TakeChildOnSharedNodeCopies) {
  Tree t = T("{a: {x: 1, y: 2}}");
  Tree c = t.Clone();
  auto taken = t.TakeChild("a");
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken->Contains(Path({"x"})));
  // The clone still sees the full subtree.
  EXPECT_TRUE(c.Contains(Path({"a", "y"})));
  EXPECT_EQ(c.Find(Path({"a", "y"}))->value().AsInt(), 2);
}

TEST(TreeCowTest, ConstLookupsDoNotPrivatize) {
  Tree t = T("{a: {x: 1}}");
  Tree c = t.Clone();
  const Tree& tc = t;
  ASSERT_NE(tc.Find(Path({"a", "x"})), nullptr);
  ASSERT_NE(tc.GetChild("a"), nullptr);
  // Reads through the const interface must leave sharing intact.
  EXPECT_EQ(std::as_const(t).GetChild("a"), std::as_const(c).GetChild("a"));
}

TEST(TreeCowTest, MutableFindPrivatizesThePath) {
  Tree t = T("{a: {b: {x: 1}}}");
  Tree c = t.Clone();
  Tree* node = t.Find(Path({"a", "b"}));
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(node->AddChild("y", Tree(Value(int64_t{2}))).ok());
  EXPECT_TRUE(t.Contains(Path({"a", "b", "y"})));
  EXPECT_FALSE(c.Contains(Path({"a", "b", "y"})));
}

TEST(TreeCowTest, DeepCloneChainStaysIsolated) {
  // Chain of clones: each generation mutates its own copy; all others
  // keep their exact state (the service layer's snapshot pattern).
  Tree base = T("{T: {}}");
  std::vector<Tree> generations;
  for (int i = 0; i < 8; ++i) {
    generations.push_back(base.Clone());
    ASSERT_TRUE(base.InsertAt(Path({"T"}), "n" + std::to_string(i),
                              Tree(Value(int64_t{i})))
                    .ok());
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(generations[static_cast<size_t>(i)].Find(Path({"T"}))
                  ->ChildCount(),
              static_cast<size_t>(i));
  }
  EXPECT_EQ(base.Find(Path({"T"}))->ChildCount(), 8u);
}

// ----- Child operations against a std::map model ---------------------------

/// The model of a node whose children are int leaves: label -> value.
using Model = std::map<std::string, int64_t>;

/// `t`'s children are exactly `m`'s, in `m`'s (sorted) order, and each is
/// found by label.
void ExpectMatches(const Tree& t, const Model& m) {
  ASSERT_EQ(t.ChildCount(), m.size());
  auto it = m.begin();
  for (const auto& [label, child] : t.children()) {
    ASSERT_EQ(label, it->first);
    ASSERT_EQ(child->value().AsInt(), it->second) << label;
    ++it;
  }
  for (const auto& [label, v] : m) {
    const Tree* child = t.GetChild(label);
    ASSERT_NE(child, nullptr) << label;
    EXPECT_EQ(child->value().AsInt(), v) << label;
  }
}

/// Applies one random child operation to `t` and to its model `m` and
/// checks that both agree on the outcome. Values come from `*next`, so no
/// value is written twice and a mutation leaking into a clone shows.
void RandomChildOp(Rng* rng, int64_t* next, Tree* t, Model* m) {
  const std::string label = "k" + std::to_string(rng->NextBelow(40));
  const bool present = m->count(label) > 0;
  const int64_t v = (*next)++;
  switch (rng->NextBelow(6)) {
    case 0: {
      Status st = t->AddChild(label, Tree(Value(v)));
      if (present) {
        EXPECT_TRUE(st.IsAlreadyExists()) << label;
      } else {
        EXPECT_TRUE(st.ok()) << st;
        (*m)[label] = v;
      }
      break;
    }
    case 1: {
      Status st = t->RemoveChild(label);
      if (present) {
        EXPECT_TRUE(st.ok()) << st;
        m->erase(label);
      } else {
        EXPECT_TRUE(st.IsNotFound()) << label;
      }
      break;
    }
    case 2:
      t->PutChild(label, Tree(Value(v)));
      (*m)[label] = v;
      break;
    case 3: {
      Result<Tree> taken = t->TakeChild(label);
      ASSERT_EQ(taken.ok(), present) << label;
      if (present) {
        EXPECT_EQ(taken->value().AsInt(), (*m)[label]);
        m->erase(label);
      } else {
        EXPECT_TRUE(taken.status().IsNotFound());
      }
      break;
    }
    case 4: {
      // The mutable lookup privatizes a shared child before the write.
      Tree* child = t->GetChild(label);
      ASSERT_EQ(child != nullptr, present) << label;
      if (child != nullptr) {
        ASSERT_TRUE(child->SetValue(Value(v)).ok());
        (*m)[label] = v;
      }
      break;
    }
    default: {
      const std::string bad = rng->NextBool() ? "" : label + "/x";
      EXPECT_TRUE(t->AddChild(bad, Tree()).IsInvalidArgument()) << bad;
      break;
    }
  }
}

TEST(TreeChildrenModelTest, SeededOpsMatchAStdMapAndClonesStayIsolated) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    int64_t next = 0;
    Tree t;
    Model m;
    for (int step = 1; step <= 300; ++step) {
      RandomChildOp(&rng, &next, &t, &m);
      ExpectMatches(t, m);
      if (step % 50 != 0) continue;

      // Clone, then mutate the clone: the original keeps its children.
      Tree c = t.Clone();
      Model cm = m;
      EXPECT_TRUE(t.SharesAllChildrenWith(c));
      for (const auto& [label, v] : m) {
        (void)v;
        ASSERT_NE(std::as_const(c).GetChild(label), nullptr);
      }
      EXPECT_TRUE(t.SharesAllChildrenWith(c));  // const reads share
      for (int i = 0; i < 20; ++i) RandomChildOp(&rng, &next, &c, &cm);
      ExpectMatches(c, cm);
      ExpectMatches(t, m);
      if (cm != m) {
        EXPECT_FALSE(t.SharesAllChildrenWith(c));
      }

      // Clone, then mutate the original: the clone keeps its children.
      Tree d = t.Clone();
      const Model dm = m;
      EXPECT_TRUE(d.SharesAllChildrenWith(t));
      for (int i = 0; i < 20; ++i) RandomChildOp(&rng, &next, &t, &m);
      ExpectMatches(t, m);
      ExpectMatches(d, dm);
      if (dm != m) {
        EXPECT_FALSE(d.SharesAllChildrenWith(t));
      }
    }
  }
}

// ----- Tree::FromChildren ---------------------------------------------------

TEST(TreeFromChildrenTest, UnsortedInputIteratesSorted) {
  const std::vector<std::string> labels = {"m", "b", "z", "a", "k9", "k10"};
  std::vector<std::pair<std::string, Tree>> in;
  Tree by_edges;
  for (size_t i = 0; i < labels.size(); ++i) {
    in.emplace_back(labels[i], Tree(Value(static_cast<int64_t>(i))));
    ASSERT_TRUE(
        by_edges.AddChild(labels[i], Tree(Value(static_cast<int64_t>(i))))
            .ok());
  }
  Result<Tree> t = Tree::FromChildren(std::move(in));
  ASSERT_TRUE(t.ok()) << t.status();
  std::vector<std::string> order;
  for (const auto& [label, child] : t->children()) order.push_back(label);
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "k10", "k9", "m", "z"}));
  EXPECT_EQ(std::as_const(*t).GetChild("k9")->value().AsInt(), 4);
  EXPECT_TRUE(t->Equals(by_edges));
  EXPECT_TRUE(Tree::FromChildren({}).value().IsEmpty());
}

TEST(TreeFromChildrenTest, DuplicateLabelIsAlreadyExistsNamingIt) {
  std::vector<std::pair<std::string, Tree>> in;
  for (const char* label : {"b", "twice", "a", "twice"}) {
    in.emplace_back(label, Tree());
  }
  Result<Tree> t = Tree::FromChildren(std::move(in));
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsAlreadyExists()) << t.status();
  EXPECT_NE(t.status().message().find("'twice'"), std::string::npos)
      << t.status();
}

TEST(TreeFromChildrenTest, InvalidLabelIsInvalidArgument) {
  for (const std::string bad : {"", "a/b"}) {
    std::vector<std::pair<std::string, Tree>> in;
    in.emplace_back("ok", Tree());
    in.emplace_back(bad, Tree());
    Result<Tree> t = Tree::FromChildren(std::move(in));
    ASSERT_FALSE(t.ok()) << "'" << bad << "'";
    EXPECT_TRUE(t.status().IsInvalidArgument()) << t.status();
  }
}

TEST(TreeFromChildrenTest, FiftyThousandReverseOrderedChildren) {
  constexpr int kChildren = 50000;
  auto label_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "c%05d", i);
    return std::string(buf);
  };
  std::vector<std::pair<std::string, Tree>> in;
  in.reserve(kChildren);
  for (int i = kChildren - 1; i >= 0; --i) {
    in.emplace_back(label_of(i), Tree(Value(int64_t{i})));
  }
  Result<Tree> t = Tree::FromChildren(std::move(in));
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->ChildCount(), static_cast<size_t>(kChildren));
  EXPECT_EQ(t->children().front().first, label_of(0));
  EXPECT_EQ(t->children().back().first, label_of(kChildren - 1));
  EXPECT_TRUE(std::is_sorted(
      t->children().begin(), t->children().end(),
      [](const Tree::Child& a, const Tree::Child& b) {
        return a.first < b.first;
      }));
  EXPECT_EQ(std::as_const(*t).GetChild(label_of(12345))->value().AsInt(),
            12345);
}

}  // namespace
}  // namespace cpdb::tree
