#include "common/table_writer.h"

#include <gtest/gtest.h>

namespace clouddb {
namespace {

TEST(TableWriterTest, AsciiTableContainsHeaderAndRows) {
  TableWriter t({"users", "throughput"});
  t.AddRow({"50", "5.3"});
  t.AddRow({"100", "10.1"});
  std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("users"), std::string::npos);
  EXPECT_NE(ascii.find("throughput"), std::string::npos);
  EXPECT_NE(ascii.find("10.1"), std::string::npos);
  // Box borders present.
  EXPECT_NE(ascii.find("+--"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

}  // namespace
}  // namespace clouddb
