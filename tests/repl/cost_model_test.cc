#include "repl/cost_model.h"

#include <gtest/gtest.h>

#include "db/sql_parser.h"
#include "common/time_types.h"
#include "db/sql_ast.h"

namespace clouddb::repl {
namespace {

db::Statement Parse(const std::string& sql) {
  auto r = db::ParseSql(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r->statement;
}

TEST(CostModelTest, PerKindDefaults) {
  CostModel model;
  EXPECT_EQ(model.EstimateStatement(Parse("SELECT * FROM t")),
            model.select_cost);
  EXPECT_EQ(model.EstimateStatement(Parse("INSERT INTO t VALUES (1)")),
            model.insert_cost);
  EXPECT_EQ(model.EstimateStatement(Parse("CREATE TABLE t (a INT)")),
            model.ddl_cost);
  EXPECT_EQ(model.EstimateStatement(Parse("CREATE INDEX i ON t (a)")),
            model.ddl_cost);
}

TEST(CostModelTest, ApplyScalesByFactor) {
  CostModel model;
  model.apply_factor = 0.5;
  model.insert_cost = Millis(100);
  EXPECT_EQ(model.EstimateApply(Parse("INSERT INTO t VALUES (1)")),
            Millis(50));
}

TEST(CostModelTest, ApplyTableOverrideWins) {
  CostModel model;
  model.apply_factor = 0.5;
  model.insert_cost = Millis(100);
  model.apply_cost_by_table["heartbeat"] = Millis(4);
  EXPECT_EQ(model.EstimateApply(Parse("INSERT INTO heartbeat VALUES (1, 2)")),
            Millis(4));
  // Other tables still use the factor.
  EXPECT_EQ(model.EstimateApply(Parse("INSERT INTO other VALUES (1)")),
            Millis(50));
}

TEST(CostModelTest, OverrideIsCaseInsensitiveOnTableName) {
  CostModel model;
  model.apply_cost_by_table["events"] = Millis(42);
  EXPECT_EQ(model.EstimateApply(Parse("INSERT INTO Events VALUES (1)")),
            Millis(42));
}

}  // namespace
}  // namespace clouddb::repl
