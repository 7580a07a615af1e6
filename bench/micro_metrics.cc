// Microbenchmarks for the metrics spine: the registry is instrumented into
// every Execute-class hot path (db nodes, proxy routing, slave apply), so
// its primitives must be counter-increment cheap. The headline pair —
// BM_ExecutePathPlain vs BM_ExecutePathInstrumented — bounds the end-to-end
// overhead of the instrumentation actually placed on the Execute path
// (acceptance: < 5%).
//
// Usage: micro_metrics [--json <path>] [google-benchmark flags]

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "db/database.h"
#include "metrics/metric_registry.h"

namespace {

using namespace clouddb;

void BM_CounterIncrement(benchmark::State& state) {
  metrics::MetricRegistry registry("bench");
  metrics::Counter* counter = registry.AddCounter("bench.ops.total");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

void BM_GaugeSet(benchmark::State& state) {
  metrics::MetricRegistry registry("bench");
  metrics::Gauge* gauge = registry.AddGauge("bench.queue.depth");
  double v = 0.0;
  for (auto _ : state) {
    gauge->Set(v += 1.0);
    benchmark::DoNotOptimize(gauge);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_ProbeRead(benchmark::State& state) {
  metrics::MetricRegistry registry("bench");
  int64_t backing = 0;
  metrics::Gauge* gauge = registry.AddProbe(
      "bench.backlog", [&backing] { return static_cast<double>(backing); });
  for (auto _ : state) {
    ++backing;
    benchmark::DoNotOptimize(gauge->value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeRead);

void BM_EwmaObserve(benchmark::State& state) {
  metrics::MetricRegistry registry("bench");
  metrics::Ewma* ewma = registry.AddEwma("bench.response_us");
  double v = 0.0;
  for (auto _ : state) {
    ewma->Observe(v += 3.0);
    benchmark::DoNotOptimize(ewma);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EwmaObserve);

void FillWideRegistry(metrics::MetricRegistry& registry, int n) {
  for (int i = 0; i < n; ++i) {
    registry.AddCounter(StrFormat("bench.counter_%d.total", i))
        ->Increment(i);
    registry.AddGauge(StrFormat("bench.gauge_%d.depth", i))
        ->Set(static_cast<double>(i));
    registry.AddEwma(StrFormat("bench.ewma_%d.us", i))
        ->Observe(static_cast<double>(i));
  }
}

void BM_RegistrySnapshot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  metrics::MetricRegistry registry("bench");
  FillWideRegistry(registry, n);
  for (auto _ : state) {
    auto snapshot = registry.Snapshot();
    benchmark::DoNotOptimize(snapshot.size());
  }
  state.SetItemsProcessed(state.iterations() * n * 3);
}
BENCHMARK(BM_RegistrySnapshot)->ArgName("metrics_x3")->Arg(8)->Arg(64);

void BM_RegistryMergeFrom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  metrics::MetricRegistry source("slave");
  FillWideRegistry(source, n);
  for (auto _ : state) {
    metrics::MetricRegistry total("cluster");
    total.MergeFrom(source);
    total.MergeFrom(source);
    benchmark::DoNotOptimize(total.Snapshot().size());
  }
  state.SetItemsProcessed(state.iterations() * n * 3 * 2);
}
BENCHMARK(BM_RegistryMergeFrom)->ArgName("metrics_x3")->Arg(8)->Arg(64);

void FillEventsDb(db::Database& database) {
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

// Baseline: the Execute path with no metrics touched, the same fixed point
// SELECT the engine microbench uses.
void BM_ExecutePathPlain(benchmark::State& state) {
  db::Database database;
  FillEventsDb(database);
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_id = 1027 AND event_date >= 18200 AND created_by = 57";
  for (auto _ : state) {
    auto r = database.Execute(sql);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("plain");
}
BENCHMARK(BM_ExecutePathPlain);

// The same Execute plus exactly the per-operation metric work the
// instrumented hot paths do: two counter bumps (routed + completed) and one
// EWMA observation (response time) — what DbNode/proxy add per statement.
// Acceptance: within 5% of BM_ExecutePathPlain.
void BM_ExecutePathInstrumented(benchmark::State& state) {
  db::Database database;
  FillEventsDb(database);
  metrics::MetricRegistry registry("node");
  metrics::Counter* routed = registry.AddCounter("bench.ops.routed");
  metrics::Counter* completed = registry.AddCounter("bench.ops.completed");
  metrics::Ewma* response = registry.AddEwma("bench.ops.response_us");
  const std::string sql =
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_id = 1027 AND event_date >= 18200 AND created_by = 57";
  double fake_clock = 0.0;
  for (auto _ : state) {
    routed->Increment();
    auto r = database.Execute(sql);
    completed->Increment();
    response->Observe(fake_clock += 2.0);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("instrumented");
}
BENCHMARK(BM_ExecutePathInstrumented);

}  // namespace

// BENCHMARK_MAIN() plus the same `--json <path>` convenience flag as
// micro_engine.
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
