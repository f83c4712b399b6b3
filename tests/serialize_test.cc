#include <gtest/gtest.h>

#include "tree/serialize.h"

namespace cpdb::tree {
namespace {

Tree T(const std::string& lit) {
  auto r = ParseTree(lit);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(SerializeTest, ParseErrors) {
  EXPECT_FALSE(ParseTree("{a: }").ok());
  EXPECT_FALSE(ParseTree("{a: 1").ok());
  EXPECT_FALSE(ParseTree("{a 1}").ok());
  EXPECT_FALSE(ParseTree("{a: 1} trailing").ok());
  EXPECT_FALSE(ParseTree("{a: 1, a: 2}").ok());  // duplicate edge
}

TEST(SerializeTest, QuotedStringsAndEscapes) {
  Tree t = T(R"({msg: "hello \"world\""})");
  EXPECT_EQ(t.Find(Path::MustParse("msg"))->value().AsString(),
            "hello \"world\"");
}

TEST(SerializeTest, PrettyOutputIsIndented) {
  std::string pretty = ToPretty(T("{a: {b: 1}, c: 2}"));
  EXPECT_NE(pretty.find("a\n"), std::string::npos);
  EXPECT_NE(pretty.find("  b = 1"), std::string::npos);
  EXPECT_NE(pretty.find("c = 2"), std::string::npos);
}

}  // namespace
}  // namespace cpdb::tree
