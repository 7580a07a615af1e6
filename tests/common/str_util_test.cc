#include "common/str_util.h"

#include <gtest/gtest.h>

namespace clouddb {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 42, "x", 3.14159), "42-x-3.14");
  EXPECT_EQ(StrFormat("no args"), "no args");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(5000, 'a');
  std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(CaseTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt *"), "select *");
  EXPECT_EQ(ToLower(""), "");
}

TEST(EqualsIgnoreCaseTest, Comparisons) {
  EXPECT_TRUE(EqualsIgnoreCase("select", "SELECT"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

}  // namespace
}  // namespace clouddb
