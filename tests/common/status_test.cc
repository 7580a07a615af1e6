#include "common/status.h"

#include <gtest/gtest.h>

#include <sstream>

namespace clouddb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::Ok().ok());
}

struct CodeCase {
  Status status;
  StatusCode code;
  const char* name;
};

class StatusCodeTest : public ::testing::TestWithParam<CodeCase> {};

TEST_P(StatusCodeTest, FactoryProducesCode) {
  const CodeCase& c = GetParam();
  EXPECT_FALSE(c.status.ok());
  EXPECT_EQ(c.status.code(), c.code);
  EXPECT_EQ(c.status.message(), "m");
  EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, StatusCodeTest,
    ::testing::Values(
        CodeCase{Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
                 "InvalidArgument"},
        CodeCase{Status::NotFound("m"), StatusCode::kNotFound, "NotFound"},
        CodeCase{Status::AlreadyExists("m"), StatusCode::kAlreadyExists,
                 "AlreadyExists"},
        CodeCase{Status::FailedPrecondition("m"),
                 StatusCode::kFailedPrecondition, "FailedPrecondition"},
        CodeCase{Status::Unavailable("m"), StatusCode::kUnavailable,
                 "Unavailable"},
        CodeCase{Status::Internal("m"), StatusCode::kInternal, "Internal"}));

TEST(StatusTest, PredicatesMatchCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::NotFound("x").IsInternal());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Unavailable("slow");
  EXPECT_EQ(os.str(), "Unavailable: slow");
}

Status Fails() { return Status::NotFound("gone"); }
Status Succeeds() { return Status::Ok(); }

Status UseReturnIfError(bool fail, bool* reached_end) {
  CLOUDDB_RETURN_IF_ERROR(fail ? Fails() : Succeeds());
  *reached_end = true;
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  bool reached = false;
  Status s = UseReturnIfError(true, &reached);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(reached);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  bool reached = false;
  Status s = UseReturnIfError(false, &reached);
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(reached);
}

}  // namespace
}  // namespace clouddb
