// Microbenchmarks (google-benchmark) for the replication apply and shipping
// paths: slave-side statement apply (lex + parse + plan + execute) versus
// writeset direct apply (row images through Table::ApplyRowDelta), and the
// group-shipping batch sweep (network sends per replicated event as the ship
// batch size grows). These back the perf claims in DESIGN.md "Row-based
// replication & group shipping".
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
#include "common/str_util.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/writeset.h"
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
    "rating DOUBLE, label TEXT, note TEXT)";

std::string InsertSql(long long id, long long qty) {
  return StrFormat(
      "INSERT INTO items VALUES (%lld, %lld, %lld, %lld, %lld.5, "
      "'item-%lld', 'replicated row payload %lld')",
      id, qty, qty * 3 + 7, id % 1000, qty % 5, id, id);
}

std::string UpdateSql(long long id, long long qty) {
  return StrFormat(
      "UPDATE items SET qty = %lld, note = 'touched %lld' WHERE id = %lld",
      qty, qty, id);
}

// Deterministic literal-only write workload (insert/update/delete mix), the
// same shape the row-repl equivalence test replays. Every statement is
// writeset-coverable: no DDL, no functions.
std::vector<std::string> MakeWriteWorkload(uint64_t seed, int steps) {
  std::vector<std::string> sql;
  Rng rng(seed);
  std::vector<int64_t> live;
  int64_t next_id = 1;
  for (int i = 0; i < steps; ++i) {
    int64_t kind = rng.UniformInt(0, 9);
    if (live.empty() || kind < 5) {
      int64_t id = next_id++;
      sql.push_back(InsertSql(id, rng.UniformInt(-50, 50)));
      live.push_back(id);
    } else if (kind < 8) {
      int64_t id = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      sql.push_back(UpdateSql(id, rng.UniformInt(-50, 50)));
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      sql.push_back(StrFormat("DELETE FROM items WHERE id = %lld",
                              static_cast<long long>(live[pick])));
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  return sql;
}

// Resident rows both replicas start from, so tree operations run against a
// populated table rather than an empty one.
constexpr int kBaseRows = 512;
// Block ids sit far above the resident rows so replays never collide.
constexpr int64_t kBlockIdBase = 1'000'000;

// State-restoring workload: `blocks` blocks of INSERT → UPDATE → DELETE on a
// fresh id each, so the table ends every pass exactly where it started. That
// lets both apply benchmarks replay the same statement list (and the same
// captured row images — every op's before-image matches again) for as many
// iterations as google-benchmark wants, with no per-iteration replica
// rebuild polluting the timings.
std::vector<std::string> MakeBalancedWorkload(uint64_t seed, int blocks) {
  std::vector<std::string> sql;
  sql.reserve(static_cast<size_t>(blocks) * 3);
  Rng rng(seed);
  for (int i = 0; i < blocks; ++i) {
    long long id = kBlockIdBase + i;
    long long qty = static_cast<long long>(rng.UniformInt(-50, 50));
    sql.push_back(InsertSql(id, qty));
    sql.push_back(UpdateSql(id, rng.UniformInt(-50, 50)));
    sql.push_back(StrFormat("DELETE FROM items WHERE id = %lld", id));
  }
  return sql;
}

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

// Statement apply from text: every replicated statement is fingerprinted
// against the statement cache, bound, planned, and executed. SlaveNode's SQL
// thread does the same minus the fingerprint: it executes the master's
// compiled statement, shipped with the event.
void BM_SlaveApplyStatement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::string> workload = MakeBalancedWorkload(/*seed=*/17, n / 3);
  auto replica = MakeNode(/*row_based=*/false);
  for (auto _ : state) {
    for (const std::string& sql : workload) {
      auto result = replica->Execute(sql);
      benchmark::DoNotOptimize(result.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_SlaveApplyStatement)->Arg(768)->Arg(3072);

// Writeset apply: the row-based fast path — the master's captured row images
// go straight into the tables, no SQL front end.
void BM_SlaveApplyWriteset(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<db::BinlogEvent> events =
      CaptureEvents(MakeBalancedWorkload(/*seed=*/17, n / 3));
  auto replica = MakeNode(/*row_based=*/false);
  for (auto _ : state) {
    for (const db::BinlogEvent& event : events) {
      auto rows = db::ApplyStatementWriteset(replica.get(), *event.writeset);
      benchmark::DoNotOptimize(rows.ok());
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
  std::vector<std::string> workload = MakeWriteWorkload(/*seed=*/23, kWrites);
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
