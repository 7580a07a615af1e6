// Microbenchmarks (google-benchmark) for the engine substrates: B+Tree
// operations, SQL parsing, the statement cache, statement execution, and the
// simulation kernel. These bound how many simulated operations per wall-clock
// second the experiment harness can push.
//
// Usage: micro_engine [--json <path>] [google-benchmark flags]
// --json writes the standard benchmark JSON report to <path>.

#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/bplus_tree.h"
#include "db/database.h"
#include "db/sql_lexer.h"
#include "db/sql_parser.h"
#include "db/statement_cache.h"
#include "sim/cpu_scheduler.h"
#include "sim/simulation.h"

namespace {

using namespace clouddb;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_BPlusTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    db::BPlusTree<int64_t, int64_t> tree;
    Rng rng(7);
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      tree.Insert(rng.NextU64() >> 1, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeFind(benchmark::State& state) {
  db::BPlusTree<int64_t, int64_t> tree;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) tree.Insert(i * 2, i);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(rng.UniformInt(0, 2 * n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeFind)->Arg(10000)->Arg(100000);

void BM_BPlusTreeScan100(benchmark::State& state) {
  db::BPlusTree<int64_t, int64_t> tree;
  for (int64_t i = 0; i < 100000; ++i) tree.Insert(i, i);
  Rng rng(4);
  for (auto _ : state) {
    int64_t lo = rng.UniformInt(0, 99899);
    int64_t hi = lo + 100;
    int64_t sum = 0;
    tree.Scan(&lo, true, &hi, false, [&](const int64_t&, const int64_t& v) {
      sum += v;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BPlusTreeScan100);

void BM_SqlParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18200 AND created_by = 17 ORDER BY event_date "
      "LIMIT 10";
  for (auto _ : state) {
    auto parsed = db::ParseSql(sql);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_SqlParseSelect);

void BM_SqlParseInsert(benchmark::State& state) {
  const std::string sql =
      "INSERT INTO comments (comment_id, event_id, user_id, body, created_at)"
      " VALUES (12345, 678, 91, 'nice event, see you there', 1234567890)";
  for (auto _ : state) {
    auto parsed = db::ParseSql(sql);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_SqlParseInsert);

void BM_SqlTokenizeSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18200 AND created_by = 17 ORDER BY event_date "
      "LIMIT 10";
  for (auto _ : state) {
    auto tokens = db::Tokenize(sql);
    benchmark::DoNotOptimize(tokens.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlTokenizeSelect);

// Hit-path throughput on identical text: the fused fingerprint scan, the
// map lookup and the literal binding, no parse.
void BM_StatementCachePrepareHit(benchmark::State& state) {
  db::StatementCache cache;
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18200 AND created_by = 17 ORDER BY event_date "
      "LIMIT 10";
  (void)cache.Prepare(sql);
  for (auto _ : state) {
    auto call = cache.Prepare(sql);
    benchmark::DoNotOptimize(call.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatementCachePrepareHit);

// The same hit path when the text changes call to call (fresh literals).
// Compare against BM_SqlParseSelect for the per-statement work removed.
void BM_StatementCachePrepareScanHit(benchmark::State& state) {
  db::StatementCache cache;
  const std::string sql[2] = {
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18200 AND created_by = 17 ORDER BY event_date "
      "LIMIT 10",
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18321 AND created_by = 3 ORDER BY event_date "
      "LIMIT 10"};
  (void)cache.Prepare(sql[0]);
  size_t i = 0;
  for (auto _ : state) {
    auto call = cache.Prepare(sql[i ^= 1]);
    benchmark::DoNotOptimize(call.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatementCachePrepareScanHit);

// Miss path: every statement has a distinct shape, so each Prepare parses
// and remembers a fresh template; a fresh cache every 64 statements bounds
// the memo's size.
void BM_StatementCachePrepareMiss(benchmark::State& state) {
  std::optional<db::StatementCache> cache;
  int64_t i = 0;
  for (auto _ : state) {
    if (i % 64 == 0) cache.emplace();
    auto call = cache->Prepare(
        StrFormat("SELECT c%lld FROM t WHERE a = 1",
                  static_cast<long long>(i++ % 1000)));
    benchmark::DoNotOptimize(call.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatementCachePrepareMiss);

void BM_DatabaseInsert(benchmark::State& state) {
  db::Database database;
  (void)database.Execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT)");
  int64_t key = 0;
  for (auto _ : state) {
    auto r = database.Execute(
        StrFormat("INSERT INTO t VALUES (%lld, 'value')",
                  static_cast<long long>(key++)));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatabaseInsert);

void BM_DatabaseSelectPk(benchmark::State& state) {
  db::Database database;
  (void)database.Execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT)");
  for (int64_t i = 0; i < 10000; ++i) {
    (void)database.Execute(StrFormat("INSERT INTO t VALUES (%lld, 'v')",
                                     static_cast<long long>(i)));
  }
  Rng rng(5);
  for (auto _ : state) {
    auto r = database.Execute(StrFormat(
        "SELECT * FROM t WHERE a = %lld",
        static_cast<long long>(rng.UniformInt(0, 9999))));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatabaseSelectPk);

void BM_DatabaseIndexRange(benchmark::State& state) {
  db::Database database;
  (void)database.Execute(
      "CREATE TABLE t (a BIGINT PRIMARY KEY, d BIGINT)");
  (void)database.Execute("CREATE INDEX idx_d ON t (d)");
  Rng fill(6);
  for (int64_t i = 0; i < 10000; ++i) {
    (void)database.Execute(StrFormat(
        "INSERT INTO t VALUES (%lld, %lld)", static_cast<long long>(i),
        static_cast<long long>(fill.UniformInt(0, 365))));
  }
  Rng rng(7);
  for (auto _ : state) {
    int64_t lo = rng.UniformInt(0, 355);
    auto r = database.Execute(StrFormat(
        "SELECT a FROM t WHERE d >= %lld AND d < %lld LIMIT 10",
        static_cast<long long>(lo), static_cast<long long>(lo + 10)));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatabaseIndexRange);

db::DatabaseOptions EventsDbOptions(bool cache_enabled) {
  db::DatabaseOptions options;
  options.statement_cache = cache_enabled;
  return options;
}

void FillEventsTable(db::Database& database) {
  (void)database.Execute(
      "CREATE TABLE events (event_id BIGINT PRIMARY KEY, title TEXT, "
      "event_date BIGINT, created_by BIGINT)");
  for (int64_t i = 0; i < 2048; ++i) {
    (void)database.Execute(StrFormat(
        "INSERT INTO events VALUES (%lld, 'release party', %lld, %lld)",
        static_cast<long long>(i), static_cast<long long>(18200 + i % 365),
        static_cast<long long>(i % 97)));
  }
}

// The PR's headline comparison: end-to-end Execute() throughput of one
// repeated statement (a fixed point SELECT, as issued by an application's
// fixed query set) with the statement cache on (cache:1) vs off (cache:0).
// With the cache on the repeated text is fingerprinted and resolves to the
// cached template without a parse; off, it is parsed from scratch every
// call.
void BM_DatabaseExecuteRepeated(benchmark::State& state) {
  const bool cache_enabled = state.range(0) != 0;
  db::Database database(EventsDbOptions(cache_enabled));
  FillEventsTable(database);
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_id = 1027 AND event_date >= 18200 AND created_by = 57";
  for (auto _ : state) {
    auto r = database.Execute(sql);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache_enabled ? "cache_on" : "cache_off");
}
BENCHMARK(BM_DatabaseExecuteRepeated)->ArgName("cache")->Arg(0)->Arg(1);

// Same comparison when every call carries a fresh literal: the text differs
// call to call, so the cache path pays the fingerprint scan but still skips
// the parse.
void BM_DatabaseExecuteParamVaried(benchmark::State& state) {
  const bool cache_enabled = state.range(0) != 0;
  db::Database database(EventsDbOptions(cache_enabled));
  FillEventsTable(database);
  Rng rng(9);
  for (auto _ : state) {
    auto r = database.Execute(StrFormat(
        "SELECT event_id, title, event_date FROM events WHERE event_id = %lld",
        static_cast<long long>(rng.UniformInt(0, 2047))));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache_enabled ? "cache_on" : "cache_off");
}
BENCHMARK(BM_DatabaseExecuteParamVaried)->ArgName("cache")->Arg(0)->Arg(1);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int64_t count = 0;
    const int64_t kEvents = 100000;
    std::function<void()> tick = [&] {
      if (++count < kEvents) sim.ScheduleAfter(1, tick);
    };
    sim.ScheduleAt(0, tick);
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulationEventThroughput);

void BM_CpuSchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::CpuScheduler cpu(&sim, 1, 1.0);
    for (int i = 0; i < 10000; ++i) cpu.Submit(10, [] {});
    sim.Run();
    benchmark::DoNotOptimize(cpu.JobsCompleted());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CpuSchedulerChurn);

}  // namespace

// BENCHMARK_MAIN(), plus a `--json <path>` convenience flag that expands to
// --benchmark_out=<path> --benchmark_out_format=json.
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
