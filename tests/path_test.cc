#include "tree/path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace cpdb::tree {
namespace {

TEST(PathTest, RootIsEmpty) {
  Path root;
  EXPECT_TRUE(root.IsRoot());
  EXPECT_EQ(root.Depth(), 0u);
  EXPECT_EQ(root.ToString(), "");
}

TEST(PathTest, ParseSimple) {
  auto r = Path::Parse("T/c1/y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Depth(), 3u);
  EXPECT_EQ(r->At(0), "T");
  EXPECT_EQ(r->At(1), "c1");
  EXPECT_EQ(r->At(2), "y");
  EXPECT_EQ(r->ToString(), "T/c1/y");
}

TEST(PathTest, ParseEmptyIsRoot) {
  auto r = Path::Parse("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsRoot());
}

TEST(PathTest, ParseRejectsEmptyLabels) {
  EXPECT_FALSE(Path::Parse("a//b").ok());
  EXPECT_FALSE(Path::Parse("/a").ok());
  EXPECT_FALSE(Path::Parse("a/").ok());
}

TEST(PathTest, KeyedXmlStyleLabels) {
  // Paths like SwissProt/Release{20}/Q01780 from the paper must parse.
  auto r = Path::Parse("SwissProt/Release{20}/Q01780/Citation{3}/Title");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Depth(), 5u);
  EXPECT_EQ(r->At(1), "Release{20}");
}

TEST(PathTest, ParentAndLeaf) {
  Path p = Path::MustParse("T/c1/y");
  EXPECT_EQ(p.Leaf(), "y");
  EXPECT_EQ(p.Parent().ToString(), "T/c1");
  EXPECT_EQ(p.Parent().Parent().ToString(), "T");
  EXPECT_TRUE(p.Parent().Parent().Parent().IsRoot());
}

TEST(PathTest, ChildAndConcat) {
  Path p = Path::MustParse("T");
  EXPECT_EQ(p.Child("c1").ToString(), "T/c1");
  EXPECT_EQ(p.Concat(Path::MustParse("c1/y")).ToString(), "T/c1/y");
  EXPECT_EQ(Path().Concat(p).ToString(), "T");
}

TEST(PathTest, PrefixRelation) {
  Path t = Path::MustParse("T");
  Path tc1 = Path::MustParse("T/c1");
  Path tc1y = Path::MustParse("T/c1/y");
  Path tc2 = Path::MustParse("T/c2");

  EXPECT_TRUE(t.IsPrefixOf(tc1));
  EXPECT_TRUE(t.IsPrefixOf(tc1y));
  EXPECT_TRUE(tc1.IsPrefixOf(tc1y));
  EXPECT_TRUE(tc1.IsPrefixOf(tc1));  // non-strict
  EXPECT_FALSE(tc1.IsStrictPrefixOf(tc1));
  EXPECT_TRUE(tc1.IsStrictPrefixOf(tc1y));
  EXPECT_FALSE(tc1.IsPrefixOf(tc2));
  EXPECT_FALSE(tc1y.IsPrefixOf(tc1));
  EXPECT_TRUE(Path().IsPrefixOf(t));
}

TEST(PathTest, PrefixIsNotStringPrefix) {
  // "T/c1" is a string prefix of "T/c10" but not a path prefix.
  Path a = Path::MustParse("T/c1");
  Path b = Path::MustParse("T/c10");
  EXPECT_FALSE(a.IsPrefixOf(b));
}

TEST(PathTest, RelativeTo) {
  Path p = Path::MustParse("T/c1/y");
  auto rel = p.RelativeTo(Path::MustParse("T"));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->ToString(), "c1/y");
  EXPECT_FALSE(p.RelativeTo(Path::MustParse("S1")).ok());
}

TEST(PathTest, Rebase) {
  // If T/c2 was copied from S1/a2, then T/c2/x came from S1/a2/x.
  Path p = Path::MustParse("T/c2/x");
  Path rebased = p.Rebase(Path::MustParse("T/c2"), Path::MustParse("S1/a2"));
  EXPECT_EQ(rebased.ToString(), "S1/a2/x");
}

TEST(PathTest, OrderingGroupsSubtrees) {
  std::vector<Path> paths = {
      Path::MustParse("T/c2"),   Path::MustParse("T/c1/y"),
      Path::MustParse("T/c1"),   Path::MustParse("T/c1-x"),
      Path::MustParse("T/c1/x"), Path::MustParse("T/c10"),
      Path::MustParse("T/c1!"),
  };
  std::sort(paths.begin(), paths.end());
  // Lexicographic order on label sequences keeps a subtree contiguous.
  // It is not string order on the renderings: '!' and '-' sort before
  // '/', yet "c1!" and "c1-x" are labels that sort after "c1", so both
  // follow every path under T/c1.
  std::vector<std::string> rendered;
  for (const Path& p : paths) rendered.push_back(p.ToString());
  EXPECT_EQ(rendered,
            (std::vector<std::string>{"T/c1", "T/c1/x", "T/c1/y", "T/c1!",
                                      "T/c1-x", "T/c10", "T/c2"}));
}

/// A path's labels, root first, kept as a vector: the reference model the
/// property test checks Path against.
using Labels = std::vector<std::string>;

std::string Render(const Labels& labels) {
  std::string out;
  for (const std::string& l : labels) {
    if (!out.empty()) out += '/';
    out += l;
  }
  return out;
}

bool IsPrefix(const Labels& a, const Labels& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

TEST(PathTest, MatchesLabelVectorModel) {
  // Labels drawn from bytes that sort below '/' ('!', '-', '.'), bytes
  // with the high bit set, and letters, short enough that labels and
  // prefixes often coincide.
  const std::string alphabet = "!-.ab\x80\xc3\xff";
  std::mt19937 rng(2006);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto draw_label = [&] {
    std::string l;
    for (size_t n = 1 + pick(2); n > 0; --n) {
      l += alphabet[pick(alphabet.size())];
    }
    return l;
  };
  auto draw = [&](size_t max_depth) {
    Labels labels;
    for (size_t n = pick(max_depth + 1); n > 0; --n) {
      labels.push_back(draw_label());
    }
    return labels;
  };

  for (int i = 0; i < 3000; ++i) {
    const Labels a = draw(4);
    // Half the time b extends a prefix of a, so prefix relations hold
    // often enough to test.
    Labels b = draw(3);
    if (pick(2) == 0) {
      Labels head = a;
      head.resize(pick(a.size() + 1));
      head.insert(head.end(), b.begin(), b.end());
      b = head;
    }
    const Path p(a);
    const Path q(b);
    SCOPED_TRACE("a=" + Render(a) + " b=" + Render(b));

    ASSERT_EQ(p.ToString(), Render(a));
    auto parsed = Path::Parse(p.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
    EXPECT_EQ(p.IsRoot(), a.empty());
    ASSERT_EQ(p.Depth(), a.size());
    for (size_t d = 0; d < a.size(); ++d) EXPECT_EQ(p.At(d), a[d]);
    if (!a.empty()) {
      EXPECT_EQ(p.Leaf(), a.back());
      EXPECT_EQ(p.Parent(), Path(Labels(a.begin(), a.end() - 1)));
    }
    const std::string label = draw_label();
    Labels child = a;
    child.push_back(label);
    EXPECT_EQ(p.Child(label), Path(child));
    Labels both = a;
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_EQ(p.Concat(q), Path(both));

    EXPECT_EQ(p.IsPrefixOf(q), IsPrefix(a, b));
    EXPECT_EQ(q.IsPrefixOf(p), IsPrefix(b, a));
    EXPECT_EQ(p.IsStrictPrefixOf(q), IsPrefix(a, b) && a.size() < b.size());
    EXPECT_EQ(q.IsStrictPrefixOf(p), IsPrefix(b, a) && b.size() < a.size());
    auto rel = q.RelativeTo(p);
    EXPECT_EQ(rel.ok(), IsPrefix(a, b));
    if (IsPrefix(a, b)) {
      const Labels rest(b.begin() + static_cast<long>(a.size()), b.end());
      EXPECT_EQ(*rel, Path(rest));
      const Labels to = draw(2);
      Labels rebased = to;
      rebased.insert(rebased.end(), rest.begin(), rest.end());
      EXPECT_EQ(q.Rebase(p, Path(to)), Path(rebased));
    }

    EXPECT_EQ(p == q, a == b);
    EXPECT_EQ(p != q, a != b);
    EXPECT_EQ(p < q, a < b);
    EXPECT_EQ(q < p, b < a);
  }
}

TEST(PathTest, EqualityAndStreaming) {
  Path p = Path::MustParse("a/b");
  Path q = Path::MustParse("a/b");
  Path r = Path::MustParse("a/c");
  EXPECT_EQ(p, q);
  EXPECT_NE(p, r);
  std::ostringstream os;
  os << p;
  EXPECT_EQ(os.str(), "a/b");
}

TEST(PathTest, LabelValidation) {
  EXPECT_TRUE(IsValidLabel("c1"));
  EXPECT_TRUE(IsValidLabel("Release{20}"));
  EXPECT_FALSE(IsValidLabel(""));
  EXPECT_FALSE(IsValidLabel("a/b"));
}

}  // namespace
}  // namespace cpdb::tree
