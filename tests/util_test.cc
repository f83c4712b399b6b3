#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"

namespace cpdb {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status {
    CPDB_RETURN_IF_ERROR(Status::Internal("boom"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsInternal());
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("no");
    return 5;
  };
  auto outer = [&](bool fail) -> Status {
    CPDB_ASSIGN_OR_RETURN(int v, inner(fail));
    EXPECT_EQ(v, 5);
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_TRUE(outer(true).IsNotFound());
}

TEST(RngTest, DeterministicAndDistinct) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Rng a2(1), c2(2);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StrTest, SplitJoin) {
  EXPECT_EQ(Split("a/b/c", '/'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a//b", '/'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Join({"a", "b"}, '/'), "a/b");
  EXPECT_EQ(Join({}, '/'), "");
}

TEST(StrTest, StartsEndsStrip) {
  EXPECT_TRUE(StartsWith("T/c1/y", "T/c1"));
  EXPECT_FALSE(StartsWith("T", "T/c1"));
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
}

TEST(StrTest, ParseNumbers) {
  int64_t i;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("12x", &i));
  EXPECT_FALSE(ParseInt64("", &i));
  double d;
  EXPECT_TRUE(ParseDouble("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(ParseDouble("abc", &d));
}

TEST(FlagsTest, ParsesBothForms) {
  const char* argv[] = {"prog", "--steps=100", "--name", "mix",
                        "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("steps", 0), 100);
  EXPECT_EQ(flags.GetString("name", ""), "mix");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, CheckRefusesUnknownFlagsAndMalformedValues) {
  const std::map<std::string, Flags::Kind> known = {
      {"dir", Flags::Kind::kString},
      {"port", Flags::Kind::kInt},
      {"slow-ms", Flags::Kind::kDouble},
      {"wipe", Flags::Kind::kBool}};
  auto check = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return Flags(static_cast<int>(args.size()),
                 const_cast<char**>(args.data()))
        .Check(known);
  };
  EXPECT_TRUE(check({}).ok());
  EXPECT_TRUE(check({"--dir=", "--port=0", "--slow-ms=2.5", "--wipe"}).ok());
  EXPECT_TRUE(check({"--port", "-1", "--wipe=false"}).ok());
  // Each refusal names the flag: a retired or misspelled name, and a
  // value the flag's accessor would otherwise replace by its default.
  for (const char* bad :
       {"--metrics-json=m.json", "--prot=7170", "--port=abc", "--port=1.5",
        "--port", "--slow-ms=fast", "--wipe=yes"}) {
    Status st = check({"--dir=x", bad});
    const std::string flag(bad);
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << ": " << st.ToString();
    EXPECT_NE(st.message().find(flag.substr(0, flag.find('='))),
              std::string::npos)
        << st.ToString();
  }
}

TEST(GlobSegmentsTest, UtilLevelMatcher) {
  EXPECT_TRUE(GlobMatchSegments({"a", "*", "c"}, {"a", "b", "c"}));
  EXPECT_FALSE(GlobMatchSegments({"a", "*", "c"}, {"a", "b", "d"}));
  EXPECT_TRUE(GlobMatchSegments({"a", "**"}, {"a"}));
  EXPECT_TRUE(GlobMatchSegments({"a", "**"}, {"a", "b", "c"}));
  EXPECT_TRUE(GlobMatchSegments({"pre*"}, {"prefix"}));
}

}  // namespace
}  // namespace cpdb
