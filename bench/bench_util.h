#ifndef CLOUDDB_BENCH_BENCH_UTIL_H_
#define CLOUDDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "harness/sweep.h"
#include "cloudstone/operations.h"
#include "common/time_types.h"
#include "harness/experiment.h"

namespace clouddb::bench {

/// True when the CLOUDDB_FAST environment variable is set: figure benches
/// then use shortened phases (2/5/1 minutes instead of the paper's 10/20/5)
/// for quick iteration. The shapes survive; absolute delays shrink.
inline bool FastMode() {
  const char* v = std::getenv("CLOUDDB_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Worker count for sweep parallelism: `--jobs N` on the command line wins,
/// else the CLOUDDB_JOBS environment variable, else 1 (serial). 0 means one
/// worker per hardware core. Output is byte-identical for every value — only
/// wall-clock time changes (see harness::SweepConfig::jobs).
inline int SweepJobs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--jobs") return std::atoi(argv[i + 1]);
  }
  const char* v = std::getenv("CLOUDDB_JOBS");
  return v != nullptr && v[0] != '\0' ? std::atoi(v) : 1;
}

/// Applies the paper's run structure (§III-B) or the fast variant.
inline void ApplyRunDurations(harness::ExperimentConfig* config) {
  if (FastMode()) {
    config->benchmark.ramp_up = Minutes(2);
    config->benchmark.steady = Minutes(5);
    config->benchmark.ramp_down = Minutes(1);
    config->idle_window = Minutes(1);
  } else {
    config->benchmark.ramp_up = Minutes(10);
    config->benchmark.steady = Minutes(20);
    config->benchmark.ramp_down = Minutes(5);
    config->idle_window = Minutes(2);
  }
}

/// The paper's 50/50 experiment base: data size 300, think time tuned so one
/// slave saturates around 100 concurrent users (Fig. 2a).
inline harness::ExperimentConfig FiftyFiftyBase() {
  harness::ExperimentConfig config;
  config.mix = cloudstone::WorkloadMix::FiftyFifty();
  config.data_scale = 300;
  config.benchmark.think_time_mean = Seconds(9);
  ApplyRunDurations(&config);
  return config;
}

/// The paper's 80/20 experiment base: data size 600, lighter think time to
/// reach the higher workloads of Fig. 3.
inline harness::ExperimentConfig EightyTwentyBase() {
  harness::ExperimentConfig config;
  config.mix = cloudstone::WorkloadMix::EightyTwenty();
  config.data_scale = 600;
  config.benchmark.think_time_mean = Seconds(7);
  ApplyRunDurations(&config);
  return config;
}

inline std::vector<int> Fig2Users() { return {50, 75, 100, 125, 150, 175, 200}; }
inline std::vector<int> Fig2Slaves() { return {1, 2, 3, 4}; }
inline std::vector<int> Fig3Users() {
  return {50, 100, 150, 200, 250, 300, 350, 400, 450};
}
inline std::vector<int> Fig3Slaves() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Stderr progress line after each run of a sweep.
inline void Progress(const harness::SweepCell& cell) {
  std::fprintf(stderr,
               "  [run] slaves=%-2d users=%-3d -> %6.1f ops/s, delay %10.1f ms\n",
               cell.slaves, cell.users,
               cell.result.benchmark.throughput_ops,
               cell.result.mean_relative_delay_ms);
}

/// One figure printed from a grid: its title and its subfigure prefix
/// ("Fig2" names subfigures Fig2a, Fig2b and Fig2c).
struct FigureLabel {
  const char* title;
  const char* prefix;
};

/// Runs one grid's sweep in each of the three placements, then prints the
/// throughput figure's tables followed by the delay figure's tables. Both
/// figures come from the same simulations (the paper reports Figs. 2 and 5,
/// and Figs. 3 and 6, from the same runs).
inline int RunLocationSweeps(const harness::ExperimentConfig& base,
                             const std::vector<int>& slaves,
                             const std::vector<int>& users,
                             const FigureLabel& throughput,
                             const FigureLabel& delay, int jobs = 1) {
  using harness::LocationConfig;
  const LocationConfig kLocations[] = {LocationConfig::kSameZone,
                                       LocationConfig::kDifferentZone,
                                       LocationConfig::kDifferentRegion};
  const char* kSubfig[] = {"a", "b", "c"};
  std::vector<harness::SweepResult> results;
  for (int i = 0; i < 3; ++i) {
    harness::SweepConfig sweep;
    sweep.base = base;
    sweep.base.location = kLocations[i];
    // Each location's sweep gets its own instance lottery (the paper
    // launched distinct machines per configuration).
    sweep.base.placement_seed = base.seed * 977 + static_cast<uint64_t>(i) + 1;
    sweep.slave_counts = slaves;
    sweep.user_counts = users;
    sweep.jobs = jobs;
    std::fprintf(stderr, "[%s%s] sweeping %s...\n", throughput.prefix,
                 kSubfig[i], LocationConfigToString(kLocations[i]));
    auto result = harness::RunSweep(sweep, Progress);
    if (!result.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(result).value());
  }
  PrintHeader(throughput.title);
  for (int i = 0; i < 3; ++i) {
    PrintHeader(StrFormat(
        "%s%s: End-to-end throughput (ops/s) — %s, read/write %d/%d",
        throughput.prefix, kSubfig[i], LocationConfigToString(kLocations[i]),
        static_cast<int>(base.mix.read_fraction * 100),
        static_cast<int>((1 - base.mix.read_fraction) * 100 + 0.5)));
    std::printf("%s",
                results[i].ThroughputTable(slaves, users).ToAscii().c_str());
    std::printf("Observed saturation points (users right after max "
                "throughput; 0 = still rising):\n");
    for (int s : slaves) {
      std::printf("  %2d slave%s: %d\n", s, s == 1 ? " " : "s",
                  results[i].SaturationUsers(s, users));
    }
  }
  PrintHeader(delay.title);
  for (int i = 0; i < 3; ++i) {
    PrintHeader(StrFormat("%s%s: Average relative replication delay (ms) — %s",
                          delay.prefix, kSubfig[i],
                          LocationConfigToString(kLocations[i])));
    std::printf("%s", results[i].DelayTable(slaves, users).ToAscii().c_str());
  }
  return 0;
}

}  // namespace clouddb::bench

#endif  // CLOUDDB_BENCH_BENCH_UTIL_H_
