#include "cloudstone/operations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "cloudstone/schema.h"
#include "db/database.h"
#include "db/sql_ast.h"
#include "db/sql_parser.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "repl/cost_model.h"

namespace clouddb::cloudstone {
namespace {

Status ExecuteOn(db::Database* database, const std::string& sql) {
  auto r = database->Execute(sql);
  return r.ok() ? Status::Ok() : r.status();
}

class OperationsTest : public ::testing::Test {
 protected:
  OperationsTest() {
    EXPECT_TRUE(LoadInitialData(
                    [&](const std::string& sql) {
                      return ExecuteOn(&db_, sql);
                    },
                    40, 11, &state_)
                    .ok());
  }

  db::Database db_;
  WorkloadState state_;
};

TEST_F(OperationsTest, MixReadFractionRespected) {
  for (auto [mix, expect] :
       {std::pair{WorkloadMix::FiftyFifty(), 0.5},
        std::pair{WorkloadMix::EightyTwenty(), 0.8}}) {
    OperationGenerator gen(mix, OperationCosts{}, &state_);
    Rng rng(5);
    int reads = 0;
    const int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      if (gen.Next(rng).is_read) ++reads;
    }
    EXPECT_NEAR(static_cast<double>(reads) / kDraws, expect, 0.02);
  }
}

TEST_F(OperationsTest, GeneratedSqlParsesAndExecutes) {
  OperationGenerator gen(WorkloadMix::FiftyFifty(), OperationCosts{}, &state_);
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    GeneratedOp op = gen.Next(rng);
    ASSERT_TRUE(db::ParseSql(op.sql).ok()) << op.sql;
    auto r = db_.Execute(op.sql);
    ASSERT_TRUE(r.ok()) << op.sql << " -> " << r.status().ToString();
  }
  std::string err;
  EXPECT_TRUE(db_.ValidateAllIndexes(&err)) << err;
}

TEST_F(OperationsTest, WriteIdsNeverCollideAcrossUsers) {
  OperationGenerator gen(WorkloadMix::EightyTwenty(), OperationCosts{},
                         &state_);
  // Two "users" with independent rngs share the generator/state.
  Rng rng1(1);
  Rng rng2(2);
  std::set<std::string> write_sql;
  for (int i = 0; i < 3000; ++i) {
    GeneratedOp op1 = gen.Next(rng1);
    GeneratedOp op2 = gen.Next(rng2);
    for (const auto& op : {op1, op2}) {
      if (!op.is_read) {
        // INSERT statements must be unique (ids allocated centrally).
        EXPECT_TRUE(write_sql.insert(op.sql).second) << op.sql;
      }
    }
  }
}

TEST_F(OperationsTest, CostsMatchOpTypes) {
  OperationCosts costs;
  OperationGenerator gen(WorkloadMix::FiftyFifty(), costs, &state_);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    GeneratedOp op = gen.Next(rng);
    EXPECT_EQ(op.cpu_cost, costs.CostOf(op.type));
    EXPECT_EQ(op.is_read, IsReadOp(op.type));
  }
}

// Every replica updates each secondary index on every insert, so the schema
// keeps exactly the ones the traffic reads: no read scans a table, and the
// (table, column) pairs the reads look up through a secondary index are the
// schema's secondary indexes, no more and no fewer.
TEST_F(OperationsTest, EverySecondaryIndexServesARead) {
  std::set<std::string> indexed;
  for (const std::string& table : db_.TableNames()) {
    for (const auto& [index, column] :
         db_.GetTable(table)->SecondaryIndexes()) {
      indexed.insert(table + "." + column);
    }
  }
  std::set<std::string> read;
  for (const WorkloadMix& mix :
       {WorkloadMix::FiftyFifty(), WorkloadMix::EightyTwenty()}) {
    OperationGenerator gen(mix, OperationCosts{}, &state_);
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
      GeneratedOp op = gen.Next(rng);
      auto compiled = db_.Compile(op.sql);
      auto r = db_.Execute(compiled);
      ASSERT_TRUE(r.ok()) << op.sql << " -> " << r.status().ToString();
      if (!op.is_read) continue;
      EXPECT_NE(r->plan, "table_scan") << op.sql;
      // "index_eq(col)" or "index_range(col)": a secondary-index lookup.
      if (r->plan.rfind("index_", 0) != 0) continue;
      size_t open = r->plan.find('(');
      read.insert(db::TargetTable(compiled->statement()) + "." +
                  r->plan.substr(open + 1, r->plan.size() - open - 2));
    }
  }
  std::vector<std::string> unread;
  std::set_difference(indexed.begin(), indexed.end(), read.begin(),
                      read.end(), std::back_inserter(unread));
  std::vector<std::string> unindexed;
  std::set_difference(read.begin(), read.end(), indexed.begin(),
                      indexed.end(), std::back_inserter(unindexed));
  EXPECT_EQ(unread, std::vector<std::string>{}) << "indexes no read uses";
  EXPECT_EQ(unindexed, std::vector<std::string>{})
      << "reads no secondary index serves";
}

TEST_F(OperationsTest, ExpectedCostsOrderedByMix) {
  // The 50/50 mix deliberately has heavier reads than the 80/20 mix
  // (that is what positions the paper's saturation points).
  const OperationCosts costs;
  auto mean_cost = [&](std::initializer_list<std::pair<double, OpType>> mix) {
    double weight = 0.0;
    double cost = 0.0;
    for (const auto& [w, op] : mix) {
      weight += w;
      cost += w * static_cast<double>(costs.CostOf(op));
    }
    return cost / weight;
  };
  auto read_cost = [&](const WorkloadMix& m) {
    return mean_cost({{m.browse_weight, OpType::kBrowseEvents},
                      {m.search_weight, OpType::kSearchEvents},
                      {m.view_weight, OpType::kViewEvent}});
  };
  auto write_cost = [&](const WorkloadMix& m) {
    return mean_cost({{m.create_weight, OpType::kCreateEvent},
                      {m.join_weight, OpType::kJoinEvent},
                      {m.tag_weight, OpType::kTagEvent},
                      {m.comment_weight, OpType::kAddComment}});
  };
  WorkloadMix heavy = WorkloadMix::FiftyFifty();
  WorkloadMix light = WorkloadMix::EightyTwenty();
  EXPECT_GT(read_cost(heavy), read_cost(light));
  EXPECT_GT(read_cost(heavy), static_cast<double>(Millis(100)));
  EXPECT_GT(write_cost(light), static_cast<double>(Millis(50)));
}

TEST_F(OperationsTest, MakeWorkloadCostModelHasTableOverrides) {
  repl::CostModel model = MakeWorkloadCostModel(OperationCosts{}, 0.5);
  EXPECT_EQ(model.apply_cost_by_table.count("events"), 1u);
  EXPECT_EQ(model.apply_cost_by_table.count("attendees"), 1u);
  EXPECT_EQ(model.apply_cost_by_table.count("event_tags"), 1u);
  EXPECT_EQ(model.apply_cost_by_table.count("comments"), 1u);
  EXPECT_EQ(model.apply_cost_by_table.count("heartbeat"), 1u);
  OperationCosts costs;
  EXPECT_EQ(model.apply_cost_by_table["events"],
            static_cast<SimDuration>(0.5 * static_cast<double>(costs.create)));
}

TEST_F(OperationsTest, TimestampSourceEmbedsLiterals) {
  int64_t now = 987654;
  OperationGenerator gen(WorkloadMix::FiftyFifty(), OperationCosts{}, &state_,
                         [&] { return now; });
  Rng rng(9);
  bool saw_create = false;
  for (int i = 0; i < 200 && !saw_create; ++i) {
    GeneratedOp op = gen.Next(rng);
    if (op.type == OpType::kCreateEvent) {
      saw_create = true;
      EXPECT_NE(op.sql.find("987654"), std::string::npos) << op.sql;
      EXPECT_EQ(op.sql.find("NOW_MICROS"), std::string::npos) << op.sql;
    }
  }
  EXPECT_TRUE(saw_create);
}

TEST(OpTypeTest, NamesAndClassification) {
  EXPECT_TRUE(IsReadOp(OpType::kSearchEvents));
  EXPECT_TRUE(IsReadOp(OpType::kViewEvent));
  EXPECT_FALSE(IsReadOp(OpType::kJoinEvent));
  EXPECT_FALSE(IsReadOp(OpType::kAddComment));
  EXPECT_FALSE(IsReadOp(OpType::kTagEvent));
}

}  // namespace
}  // namespace clouddb::cloudstone
