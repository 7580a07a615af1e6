// Microbenchmarks (google-benchmark) for the replication apply and shipping
// paths: slave-side statement apply (lex + parse + plan + execute) versus
// writeset direct apply (captured rows through Table::Insert), and the
// group-shipping batch sweep (network sends per replicated event as the ship
// batch size grows). Every workload is INSERTs, as in the paper's write mix.
// These back the perf claims in DESIGN.md "Row-based replication & group
// shipping".
//
// Usage: micro_repl [--json <path>] [google-benchmark flags]
// --json writes the standard benchmark JSON report to <path>.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_provider.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/writeset_apply.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"
#include "metrics/metric_registry.h"

namespace {

using namespace clouddb;

// Cloudstone-ish width: replicated rows in the paper's workload carry a
// handful of scalar and text columns, not a 2-column toy shape.
constexpr char kCreateTable[] =
    "CREATE TABLE items (id INT PRIMARY KEY, qty INT, price INT, owner INT, "
    "rating BIGINT, label TEXT, note TEXT)";

std::string InsertSql(long long id, long long qty) {
  return StrFormat(
      "INSERT INTO items VALUES (%lld, %lld, %lld, %lld, %lld, "
      "'item-%lld', 'replicated row payload %lld')",
      id, qty, qty * 3 + 7, id % 1000, qty % 5, id, id);
}

// Deterministic literal-only write workload: `count` inserts of fresh ids
// from `first_id` on. Every statement is writeset-coverable: no DDL, no
// functions.
std::vector<std::string> MakeInsertWorkload(uint64_t seed, int64_t first_id,
                                            int count) {
  std::vector<std::string> sql;
  sql.reserve(static_cast<size_t>(count));
  Rng rng(seed);
  for (int64_t id = first_id; id < first_id + count; ++id) {
    sql.push_back(InsertSql(id, rng.UniformInt(-50, 50)));
  }
  return sql;
}

// Resident rows every replica starts from, so tree operations run against a
// populated table rather than an empty one.
constexpr int kBaseRows = 512;
// Workload ids sit far above the resident rows so they never collide.
constexpr int64_t kWorkloadIdBase = 1'000'000;

std::unique_ptr<db::Database> MakeNode(bool row_based) {
  db::DatabaseOptions options;
  options.enable_binlog = row_based;  // replicas: no log-slave-updates
  options.row_based_repl = row_based;
  auto node = std::make_unique<db::Database>(options);
  auto create = node->Execute(kCreateTable);
  if (!create.ok()) std::abort();
  for (int i = 1; i <= kBaseRows; ++i) {
    auto insert = node->Execute(InsertSql(i, i % 97));
    if (!insert.ok()) std::abort();
  }
  return node;
}

// A replica with no tables and logging off (no log-slave-updates):
// ResetReplica gives it its tables.
std::unique_ptr<db::Database> MakeEmptyReplica() {
  db::DatabaseOptions options;
  options.enable_binlog = false;
  return std::make_unique<db::Database>(options);
}

// Runs the workload through a row-based master and returns the binlog events
// it produced (statement text + captured writesets), skipping the events of
// the setup statements so every returned event is covered workload.
std::vector<db::BinlogEvent> CaptureEvents(const std::vector<std::string>& sql) {
  auto master = MakeNode(/*row_based=*/true);
  int64_t first_write = master->binlog().size();
  for (const std::string& s : sql) {
    auto result = master->Execute(s);
    if (!result.ok()) std::abort();
  }
  std::vector<db::BinlogEvent> events;
  for (int64_t i = first_write; i < master->binlog().size(); ++i) {
    events.push_back(master->binlog().At(i));
  }
  return events;
}

// Replaces `replica`'s tables with fresh clones of `populated`'s, with
// timing paused: the inserts only ever add rows, so every iteration applies
// them to its own copy of the starting tables (and the last iteration's copy
// is freed here, untimed, too).
void ResetReplica(benchmark::State& state, const db::Database& populated,
                  db::Database* replica) {
  state.PauseTiming();
  replica->CopyTablesFrom(populated);
  state.ResumeTiming();
}

// Statement apply from text: every replicated statement is fingerprinted
// against the statement cache, bound, planned, and executed. SlaveNode's SQL
// thread does the same minus the fingerprint: it executes the master's
// compiled statement, shipped with the event.
void BM_SlaveApplyStatement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::string> workload =
      MakeInsertWorkload(/*seed=*/17, kWorkloadIdBase, n);
  auto populated = MakeNode(/*row_based=*/false);
  auto replica = MakeEmptyReplica();
  for (auto _ : state) {
    ResetReplica(state, *populated, replica.get());
    for (const std::string& sql : workload) {
      auto result = replica->Execute(sql);
      benchmark::DoNotOptimize(result);
      // Each iteration's fresh copy takes every insert.
      if (!result.ok()) std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_SlaveApplyStatement)->Arg(768)->Arg(3072);

// Writeset apply: the row-based fast path — the master's captured rows go
// straight into the tables, no SQL front end.
void BM_SlaveApplyWriteset(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<db::BinlogEvent> events =
      CaptureEvents(MakeInsertWorkload(/*seed=*/17, kWorkloadIdBase, n));
  auto populated = MakeNode(/*row_based=*/false);
  auto replica = MakeEmptyReplica();
  for (auto _ : state) {
    ResetReplica(state, *populated, replica.get());
    for (const db::BinlogEvent& event : events) {
      Status st = db::ApplyStatementWriteset(replica.get(), *event.writeset);
      benchmark::DoNotOptimize(st);
      if (!st.ok()) std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SlaveApplyWriteset)->Arg(768)->Arg(3072);

// Group shipping sweep: one master + two slaves in the simulated cloud,
// replicating 256 covered writes at ship batch sizes 1/4/16/64. The
// `ship_messages` counter is the acceptance metric — network sends on the
// master's dump path per run, which batching must cut ~linearly (512 sends
// at batch 1 with two slaves, 8 at batch 64).
void BM_GroupShipping(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  constexpr int kWrites = 256;
  constexpr int kSlaves = 2;
  std::vector<std::string> workload =
      MakeInsertWorkload(/*seed=*/23, /*first_id=*/1, kWrites);
  int64_t messages = 0;
  int64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    cloud::CloudOptions options;
    options.latency_jitter_sigma = 0.0;
    options.cpu_speed_cov = 0.0;
    options.max_initial_clock_offset = 0;
    options.max_clock_drift_ppm = 0.0;
    cloud::CloudProvider provider(&sim, options, 1);
    repl::ClusterConfig config;
    config.num_slaves = kSlaves;
    repl::ReplicationCluster cluster(&provider, config);
    cluster.SetRowBasedReplication(true);
    cluster.SetBinlogBatchSize(batch);
    auto create = cluster.master()->ExecuteDirect(kCreateTable);
    if (!create.ok()) std::abort();
    for (const std::string& sql : workload) {
      auto result = cluster.master()->ExecuteDirect(sql);
      if (!result.ok()) std::abort();
    }
    sim.Run();
    if (!cluster.FullyReplicated()) std::abort();
    messages = cluster.master()->messages_sent();
    events = cluster.master()->events_pushed();
  }
  // Deterministic per iteration, so report the last run's counts verbatim.
  state.counters["ship_messages"] =
      benchmark::Counter(static_cast<double>(messages));
  state.counters["events_shipped"] =
      benchmark::Counter(static_cast<double>(events));
  state.SetItemsProcessed(state.iterations() * kWrites);
}
BENCHMARK(BM_GroupShipping)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.emplace_back(argv[i]);
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> benchmark_argv;
  benchmark_argv.reserve(args.size());
  for (std::string& arg : args) benchmark_argv.push_back(arg.data());
  int benchmark_argc = static_cast<int>(benchmark_argv.size());
  benchmark::Initialize(&benchmark_argc, benchmark_argv.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
