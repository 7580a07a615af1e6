// End-to-end benchmark of the replication simulator: runs one named
// workload through the harness's public entry points, checks its outputs,
// and prints every metric as the last stdout line (one JSON object).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--short] [--trace-out PATH]
//
// One run measures, in one single-threaded process:
//   1. set-up: the harness call with every traffic phase zero, repeated for
//      a tenth of --seconds (at least 3 times) -> setup_s;
//   2. the workload's harness call, repeated for the rest of --seconds (at
//      least 3 times) -> wall_s; its simulated results -> the simulated
//      metrics, identical on every repetition. Both times are sums over the
//      call's cells of each cell's median across repetitions;
//   3. the layered run: the same deployment rebuilt from the layers' public
//      functions. Its simulated results must equal the harness's; it gives
//      the work counters. With --trace 1 it runs again with spans recorded,
//      and the two repetitions' work counters must agree exactly; the traced
//      one gives the per-layer metrics and the tracing overhead.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "layered.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using clouddb::Result;
using clouddb::harness::ExperimentResult;
using ControlResult = clouddb::harness::ControlExperimentResult;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool short_mode = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--short") {
      args->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Failed output checks, by name. Any failure makes the run exit nonzero
/// without printing a result.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) failed_.push_back(name + ": " + detail);
  }
  bool ok() const { return failed_.empty(); }
  void Report() const {
    for (const std::string& f : failed_) {
      std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());
    }
  }

 private:
  std::vector<std::string> failed_;
};

/// Every harness cell ends with all slaves caught up and identical.
void CheckCells(const SimOutcome& outcome, const char* phase, Checks* checks) {
  for (size_t i = 0; i < outcome.cells.size(); ++i) {
    const ExperimentResult& cell = outcome.cells[i];
    std::string where = std::string(phase) + " cell " + std::to_string(i);
    checks->Expect(cell.fully_replicated, "fully_replicated", where);
    checks->Expect(cell.converged, "converged", where);
  }
}

/// Share of --seconds spent on set-up repetitions; the rest times the
/// workload itself.
constexpr double kSetupShare = 0.1;

/// Cell times of the repetitions of one harness call.
struct RepTimes {
  std::vector<double> wall;               // per repetition: the whole call
  std::vector<std::vector<double>> cells;  // per repetition, per cell

  /// The call's wall time as the sum over cells of each cell's median
  /// across repetitions. On a shared host, slowdowns come in bursts shorter
  /// than a repetition; a per-cell median drops a burst that hit some cells
  /// of one repetition, where the median of whole repetitions keeps it
  /// whenever bursts hit most repetitions somewhere.
  double CellMedianSum() const {
    double sum = 0.0;
    for (size_t i = 0; i < cells.front().size(); ++i) {
      std::vector<double> across;
      for (const std::vector<double>& rep : cells) across.push_back(rep[i]);
      sum += Median(across);
    }
    return sum;
  }
};

/// Repeats `run` at least `min_reps` times, then while another repetition
/// (as long as the slowest so far) still fits in `budget_s` of wall time.
/// `run` reports its cells' wall times.
RepTimes Repeat(double budget_s, int min_reps, int max_reps,
                const std::function<bool(std::vector<double>*)>& run) {
  RepTimes times;
  auto begin = std::chrono::steady_clock::now();
  auto fits = [&] {
    double slowest = *std::max_element(times.wall.begin(), times.wall.end());
    return SecondsSince(begin) + slowest <= budget_s;
  };
  while (static_cast<int>(times.wall.size()) < max_reps &&
         (static_cast<int>(times.wall.size()) < min_reps || fits())) {
    std::vector<double> cells;
    if (!run(&cells)) break;
    double wall = 0.0;
    for (double c : cells) wall += c;
    times.wall.push_back(wall);
    times.cells.push_back(std::move(cells));
  }
  return times;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int64_t Get(const WorkCounters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--short] [--trace-out PATH]\n");
    return 2;
  }
  std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.short_mode);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, args.short_mode ? " short" : "");
  Checks checks;
  std::string error;

  // 1. Set-up time: the harness call with zero traffic phases.
  const Workload setup = SetupOnly(*workload);
  const RepTimes setup_times =
      Repeat(kSetupShare * args.seconds, 3, 2000, [&](std::vector<double>* cells) {
        Result<SimOutcome> r = RunHarness(setup, cells);
        if (!r.ok()) {
          error = "setup: " + r.status().ToString();
          return false;
        }
        CheckCells(*r, "setup", &checks);
        return true;
      });

  // 2. The workload's harness call; every repetition must agree exactly.
  std::string described;
  SimOutcome outcome;
  RepTimes wall_times;
  if (error.empty()) {
    wall_times = Repeat((1 - kSetupShare) * args.seconds, 3, 1000,
                        [&](std::vector<double>* cells) {
      Result<SimOutcome> r = RunHarness(*workload, cells);
      if (!r.ok()) {
        error = "harness: " + r.status().ToString();
        return false;
      }
      std::string d = Describe(*r);
      if (described.empty()) {
        described = d;
        outcome = std::move(r).value();
        CheckCells(outcome, "harness", &checks);
      } else {
        std::string diff = FirstDifference(described, d);
        checks.Expect(diff.empty(), "harness_repeats", diff);
      }
      return true;
    });
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // 3. Layered run: untraced, and with --trace 1 traced as well.
  auto layered = [&](Tracer* tracer, const char* check, LayeredOutcome* out,
                     double* wall) {
    if (!error.empty()) return;
    auto start = std::chrono::steady_clock::now();
    Result<LayeredOutcome> r = RunLayered(*workload, tracer);
    *wall = SecondsSince(start);
    if (!r.ok()) {
      error = "layered: " + r.status().ToString();
      return;
    }
    *out = std::move(r).value();
    std::string diff = FirstDifference(described, Describe(out->sim));
    checks.Expect(diff.empty(), check, diff);
    checks.Expect(out->all_fully_replicated, "fully_replicated", check);
    checks.Expect(out->all_converged, "converged", check);
  };
  LayeredOutcome plain;
  double plain_wall = 0.0;
  layered(nullptr, "layered_equals_harness", &plain, &plain_wall);
  LayeredOutcome traced;
  double traced_wall = 0.0;
  Tracer tracer;
  if (args.trace == 1) {
    layered(&tracer, "traced_equals_harness", &traced, &traced_wall);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "run failed: %s\n", error.c_str());
    return 1;
  }
  if (args.trace == 1) {
    for (const auto& [name, value] : plain.counters) {
      checks.Expect(Get(traced.counters, name) == value,
                    "work_counters_repeat",
                    name + " " + std::to_string(value) + " vs " +
                        std::to_string(Get(traced.counters, name)));
    }
    checks.Expect(plain.counters.size() == traced.counters.size(),
                  "work_counters_repeat", "counter sets differ");
  }

  const WorkCounters& c = plain.counters;
  auto count = [&](const std::string& name) {
    return static_cast<double>(Get(c, name));
  };
  // Every op the users issued reached the proxy once and came back as one
  // record, failed or not.
  const int64_t attempted = Get(c, "cloudstone.ops_attempted");
  const int64_t failed = Get(c, "cloudstone.ops_failed");
  checks.Expect(attempted > 0, "ops_counted", "no ops attempted");
  checks.Expect(
      Get(c, "client.reads_routed") + Get(c, "client.writes_routed") ==
          attempted,
      "ops_counted", "proxy-routed ops != recorded ops");
  if (c.count("cloudstone.ops_issued") > 0) {
    checks.Expect(Get(c, "cloudstone.ops_issued") == attempted, "ops_counted",
                  "issued ops != recorded ops");
  }
  int64_t harness_failed = 0;
  for (const ExperimentResult& cell : outcome.cells) {
    harness_failed += cell.benchmark.failed_ops;
  }
  for (const ControlResult& cell : outcome.controls) {
    harness_failed += cell.failed_ops;
  }
  checks.Expect(harness_failed == failed, "ops_failed_counted",
                std::to_string(harness_failed) + " vs " +
                    std::to_string(failed));

  // Simulated end-to-end metrics, averaged over cells.
  const double cells = static_cast<double>(plain.cells);
  double throughput = 0.0;
  double mean_response = 0.0;
  double p95_response = 0.0;
  double staleness = 0.0;
  double freshness = 0.0;
  double offload = 0.0;
  for (const ExperimentResult& cell : outcome.cells) {
    throughput += cell.benchmark.throughput_ops / cells;
    mean_response += cell.benchmark.mean_response_ms / cells;
    p95_response += cell.benchmark.p95_response_ms / cells;
    staleness += cell.mean_relative_delay_ms / cells;
  }
  if (outcome.controls.empty()) {
    // No read carries a staleness bound, so every read is within it.
    freshness = 100.0;
    offload = 100.0 * Ratio(count("client.reads_to_replica"),
                            count("client.reads_routed"));
  } else {
    for (size_t i = 0; i < outcome.controls.size(); ++i) {
      const ControlResult& cell = outcome.controls[i];
      throughput += cell.throughput_ops / cells;
      mean_response += cell.mean_response_ms / cells;
      freshness += cell.achieved_freshness_pct / cells;
      offload += cell.master_offload_pct / cells;
      p95_response += plain.control_p95_response_ms[i] / cells;
      staleness += plain.control_relative_delay_ms[i] / cells;
      std::printf("cell %zu: seed %llu, scale out/in %lld/%lld, peak "
                  "staleness %.1f ms, first-slave delay %.1f ms, p95 %.1f ms\n",
                  i,
                  static_cast<unsigned long long>(workload->controls[i].seed),
                  static_cast<long long>(cell.scale_outs),
                  static_cast<long long>(cell.scale_ins),
                  cell.peak_staleness_ms, plain.control_relative_delay_ms[i],
                  plain.control_p95_response_ms[i]);
    }
  }

  const double setup_s = setup_times.CellMedianSum();
  const double wall_s = wall_times.CellMedianSum();
  std::vector<Metric> end_to_end = {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"throughput_ops", throughput, "ops/s"},
      {"mean_response_ms", mean_response, "ms"},
      {"p95_response_ms", p95_response, "ms"},
      {"staleness_ms", staleness, "ms"},
      {"freshness_pct", freshness, "%"},
      {"offload_pct", offload, "%"},
  };

  // Per-layer metrics from the traced run.
  const double sim_run_s = tracer.TotalSeconds("sim.idle") +
                           tracer.TotalSeconds("sim.traffic") +
                           tracer.TotalSeconds("sim.drain");
  const double uncovered_s = traced_wall - tracer.TopLevelSeconds();
  std::vector<Metric> per_layer = {
      {"harness.setup_share", Ratio(setup_s, wall_s), "ratio"},
      {"harness.deploy_s", tracer.TotalSeconds("harness.deploy"), "s"},
      {"harness.teardown_s", tracer.TotalSeconds("harness.teardown"), "s"},
      {"cloudstone.load_s", tracer.TotalSeconds("cloudstone.load"), "s"},
      {"cloudstone.loadgen_s", tracer.SelfSeconds("cloudstone.load"), "s"},
      {"cloudstone.load_statements", count("cloudstone.load_statements"),
       "count"},
      {"cloudstone.ops_attempted", count("cloudstone.ops_attempted"),
       "count"},
      {"cloudstone.ops_failed", count("cloudstone.ops_failed"), "count"},
      {"cloudstone.report_s", tracer.TotalSeconds("cloudstone.report"), "s"},
      {"repl.load_execute_s", tracer.FoldedSeconds("repl.load_execute"), "s"},
      {"repl.heartbeat_table_s", tracer.TotalSeconds("repl.heartbeat_table"),
       "s"},
      {"repl.fully_replicated_s",
       tracer.TotalSeconds("repl.fully_replicated"), "s"},
      {"repl.converged_s", tracer.TotalSeconds("repl.converged"), "s"},
      {"repl.binlog_events", count("repl.binlog_events"), "count"},
      {"repl.events_applied", count("repl.events_applied"), "count"},
      {"repl.relay_backlog_peak", count("repl.relay_backlog_peak"), "count"},
      {"repl.apply.writeset", count("repl.apply.writeset"), "count"},
      {"repl.apply.fallback", count("repl.apply.fallback"), "count"},
      {"repl.binlog.batches", count("repl.binlog.batches"), "count"},
      {"db.queries", count("db.queries"), "count"},
      {"db.statement_cache.hits", count("db.statement_cache.hits"), "count"},
      {"db.statement_cache.misses", count("db.statement_cache.misses"),
       "count"},
      {"db.statement_cache.hit_rate",
       Ratio(count("db.statement_cache.hits"),
             count("db.statement_cache.hits") +
                 count("db.statement_cache.misses")),
       "ratio"},
      {"db.cpu_util.master", Ratio(plain.cpu_util_master_sum, cells),
       "ratio"},
      {"db.cpu_util.slave_mean", Ratio(plain.cpu_util_slave_mean_sum, cells),
       "ratio"},
      {"sim.events", count("sim.events"), "count"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.run_self_s",
       tracer.SelfSeconds("sim.idle") + tracer.SelfSeconds("sim.traffic") +
           tracer.SelfSeconds("sim.drain"),
       "s"},
      {"sim.events_per_s", Ratio(count("sim.events"), sim_run_s), "1/s"},
      {"sim.sim_s_per_wall_s", Ratio(plain.sim_seconds, sim_run_s), "s/s"},
      {"net.messages", count("net.messages"), "count"},
      {"net.bytes", count("net.bytes"), "B"},
      {"net.dropped", count("net.dropped"), "count"},
      {"client.reads_routed", count("client.reads_routed"), "count"},
      {"client.writes_routed", count("client.writes_routed"), "count"},
      {"client.route_cache.hit_rate",
       Ratio(count("client.route_cache.hits"),
             count("client.route_cache.hits") +
                 count("client.route_cache.misses")),
       "ratio"},
      {"client.master_fallbacks", count("client.master_fallbacks"), "count"},
      {"client.read_retries", count("client.read_retries"), "count"},
      {"control.poll_s", tracer.TotalSeconds("control.poll"), "s"},
      {"control.polls", count("control.polls"), "count"},
      {"control.tick_s", tracer.TotalSeconds("control.tick"), "s"},
      {"control.scale_outs", count("control.scale_outs"), "count"},
      {"control.scale_ins", count("control.scale_ins"), "count"},
      {"control.sla_violations", count("control.sla_violations"), "count"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.untraced_wall_s", plain_wall, "s"},
      {"trace.overhead_s", traced_wall - plain_wall, "s"},
      {"trace.uncovered_s", uncovered_s, "s"},
  };

  // Human-readable record (everything before the final JSON line).
  auto print_reps = [](const char* what, const RepTimes& times) {
    std::printf("%s: %zu reps of %zu cells, cell-median sum %.6f s, "
                "median %.6f s, reps:",
                what, times.wall.size(), times.cells.front().size(),
                times.CellMedianSum(), Median(times.wall));
    for (size_t i = 0; i < times.wall.size() && i < 12; ++i) {
      std::printf(" %.4f", times.wall[i]);
    }
    std::printf("%s\n", times.wall.size() > 12 ? " ..." : "");
  };
  print_reps("setup", setup_times);
  print_reps("harness", wall_times);
  std::printf("work counters (deterministic per seed):\n");
  for (const auto& [name, value] : c) {
    std::printf("  %-28s %lld\n", name.c_str(), static_cast<long long>(value));
  }
  std::printf("end-to-end:\n");
  for (const Metric& m : end_to_end) {
    std::printf("  %-28s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace == 1) {
    std::printf("traced run: wall %.6f s, untraced %.6f s, uncovered %.6f s\n",
                traced_wall, plain_wall, uncovered_s);
    std::printf("%s", tracer.Table().c_str());
    std::printf("per-layer:\n");
    for (const Metric& m : per_layer) {
      std::printf("  %-28s %.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      checks.Expect(false, "trace_written", args.trace_out);
    }
  }

  const std::vector<Metric>& reported = args.trace == 1 ? per_layer : end_to_end;
  for (const Metric& m : reported) {
    checks.Expect(std::isfinite(m.value), "finite_metric", m.name);
  }
  for (const Metric& m : end_to_end) {
    checks.Expect(m.value > 0, "nonzero_metric", m.name);
  }
  if (!checks.ok()) {
    checks.Report();
    return 1;
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", reported[i].value);
    json += (i == 0 ? "\"" : ", \"") + reported[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
