#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "cloudstone/operations.h"
#include "common/time_types.h"
#include "control/elasticity_controller.h"

namespace perfbench {

using namespace clouddb;

namespace {

// Pinned cloud seeds: the repo's figure binaries' deployments at their
// default seed 42 (fig2a same zone, fig3c different region, fig7 sweep).
constexpr uint64_t kFig2Placement = 42 * 977 + 1;
constexpr uint64_t kFig3Placement = 42 * 977 + 3;
constexpr uint64_t kFig7Placement = 42 * 131;
// Fig. 7 cells per run; at most 16 (see the seed derivation below). One
// cell's wall time swings by ~20% (cv) with its elastic trajectory; 16 short
// cells bring a run's total to a few percent.
constexpr uint64_t kFig7Cells = 16;

void SetPhases(harness::ExperimentConfig* config, SimDuration ramp_up,
               SimDuration steady, SimDuration ramp_down, SimDuration idle) {
  config->benchmark.ramp_up = ramp_up;
  config->benchmark.steady = steady;
  config->benchmark.ramp_down = ramp_down;
  config->idle_window = idle;
}

Workload Fig2SweepFast(uint64_t seed, bool short_mode) {
  Workload w;
  w.name = "fig2_sweep_fast";
  w.entry = Entry::kSweep;
  harness::ExperimentConfig& base = w.sweep.base;
  base.location = harness::LocationConfig::kSameZone;
  base.mix = cloudstone::WorkloadMix::FiftyFifty();
  base.data_scale = 300;
  base.benchmark.think_time_mean = Seconds(9);
  base.seed = seed;
  base.placement_seed = kFig2Placement;
  w.sweep.jobs = 1;
  if (short_mode) {
    SetPhases(&base, Seconds(30), Seconds(60), Seconds(30), Seconds(30));
    w.sweep.slave_counts = {1, 2};
    w.sweep.user_counts = {50, 75};
  } else {
    SetPhases(&base, Minutes(2), Minutes(5), Minutes(1), Minutes(1));
    w.sweep.slave_counts = {1, 2, 3, 4};
    w.sweep.user_counts = {50, 75, 100, 125, 150, 175, 200};
  }
  return w;
}

Workload Fig3WideRowRepl(uint64_t seed, bool short_mode) {
  Workload w;
  w.name = "fig3_wide_rowrepl";
  w.entry = Entry::kExperiment;
  harness::ExperimentConfig& c = w.experiment;
  c.location = harness::LocationConfig::kDifferentRegion;
  c.mix = cloudstone::WorkloadMix::EightyTwenty();
  c.data_scale = 600;
  c.benchmark.think_time_mean = Seconds(7);
  c.row_based_repl = true;
  c.binlog_batch_size = 64;
  c.seed = seed;
  c.placement_seed = kFig3Placement;
  if (short_mode) {
    c.num_slaves = 3;
    c.num_users = 60;
    SetPhases(&c, Minutes(1), Minutes(2), Minutes(1), Seconds(30));
  } else {
    c.num_slaves = 11;
    c.num_users = 450;
    SetPhases(&c, Minutes(10), Minutes(20), Minutes(5), Minutes(2));
  }
  return w;
}

Workload Fig7FreshnessSurge(uint64_t seed, bool short_mode) {
  Workload w;
  w.name = "fig7_freshness_surge";
  w.entry = Entry::kControl;
  harness::ControlExperimentConfig c;
  c.mix = cloudstone::WorkloadMix::FiftyFifty();
  c.data_scale = 100;
  c.initial_slaves = 1;
  c.controller.max_active_slaves = 4;
  c.think_time_mean = Seconds(1);
  c.staleness_bound = Millis(1000);
  c.base_users = 10;
  c.surge_users = 30;
  c.placement_seed = kFig7Placement;
  // A shortened Fig. 7 cell: surge for half of a 2-minute window, then
  // 40 s of base load for the scale-in. The tracker re-reads the whole
  // heartbeat table, so a cell's cost grows with the square of its length.
  c.warmup = Seconds(20);
  c.measure = Minutes(2);
  c.surge_start = Seconds(20);
  c.surge_duration = Seconds(60);
  if (short_mode) {
    c.warmup = Seconds(10);
    c.measure = Seconds(60);
    c.surge_start = Seconds(10);
    c.surge_duration = Seconds(20);
  }
  const uint64_t cells = short_mode ? 2 : kFig7Cells;
  for (uint64_t i = 0; i < cells; ++i) {
    c.seed = seed * 16 + i;  // disjoint batches for distinct seeds
    w.controls.push_back(c);
  }
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "fig2_sweep_fast", "fig3_wide_rowrepl", "fig7_freshness_surge"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool short_mode) {
  if (name == "fig2_sweep_fast") return Fig2SweepFast(seed, short_mode);
  if (name == "fig3_wide_rowrepl") return Fig3WideRowRepl(seed, short_mode);
  if (name == "fig7_freshness_surge") {
    return Fig7FreshnessSurge(seed, short_mode);
  }
  return std::nullopt;
}

Workload SetupOnly(const Workload& workload) {
  Workload w = workload;
  SetPhases(&w.sweep.base, 0, 0, 0, 0);
  SetPhases(&w.experiment, 0, 0, 0, 0);
  for (harness::ControlExperimentConfig& c : w.controls) {
    c.warmup = 0;
    c.measure = 0;
    c.surge_start = 0;
    c.surge_duration = 0;
  }
  return w;
}

Result<SimOutcome> RunHarness(const Workload& workload,
                              std::vector<double>* cell_seconds) {
  using Clock = std::chrono::steady_clock;
  cell_seconds->clear();
  Clock::time_point last = Clock::now();
  auto lap = [&] {
    Clock::time_point now = Clock::now();
    cell_seconds->push_back(std::chrono::duration<double>(now - last).count());
    last = now;
  };
  SimOutcome outcome;
  switch (workload.entry) {
    case Entry::kSweep: {
      // RunSweep reports each finished cell through its progress callback,
      // on the calling thread (jobs = 1): the laps are the cells' times.
      CLOUDDB_ASSIGN_OR_RETURN(
          harness::SweepResult sweep,
          harness::RunSweep(workload.sweep,
                            [&](const harness::SweepCell&) { lap(); }));
      for (const harness::SweepCell& cell : sweep.cells()) {
        outcome.cells.push_back(cell.result);
      }
      break;
    }
    case Entry::kExperiment: {
      CLOUDDB_ASSIGN_OR_RETURN(harness::ExperimentResult result,
                               harness::RunExperiment(workload.experiment));
      lap();
      outcome.cells.push_back(std::move(result));
      break;
    }
    case Entry::kControl: {
      for (const harness::ControlExperimentConfig& c : workload.controls) {
        CLOUDDB_ASSIGN_OR_RETURN(harness::ControlExperimentResult result,
                                 harness::RunControlExperiment(c));
        lap();
        outcome.controls.push_back(std::move(result));
      }
      break;
    }
  }
  return outcome;
}

namespace {

class Lines {
 public:
  void Add(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(name, std::string(buf));
  }
  void Add(const std::string& name, int64_t v) {
    Add(name, std::to_string(v));
  }
  void Add(const std::string& name, bool v) {
    Add(name, std::string(v ? "true" : "false"));
  }
  void Add(const std::string& name, const std::vector<double>& v) {
    for (size_t i = 0; i < v.size(); ++i) {
      Add(name + "[" + std::to_string(i) + "]", v[i]);
    }
  }
  void Add(const std::string& name, const std::string& v) {
    out_ += prefix_ + name + "=" + v + "\n";
  }
  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }
  const std::string& str() const { return out_; }

 private:
  std::string prefix_;
  std::string out_;
};

void DescribeCell(const harness::ExperimentResult& r, Lines* out) {
  const cloudstone::BenchmarkReport& b = r.benchmark;
  out->Add("throughput_ops", b.throughput_ops);
  out->Add("read_throughput_ops", b.read_throughput_ops);
  out->Add("write_throughput_ops", b.write_throughput_ops);
  out->Add("mean_response_ms", b.mean_response_ms);
  out->Add("p95_response_ms", b.p95_response_ms);
  out->Add("completed_ops", b.completed_ops);
  out->Add("failed_ops", b.failed_ops);
  out->Add("master_cpu_utilization", b.master_cpu_utilization);
  out->Add("slave_cpu_utilization", b.slave_cpu_utilization);
  out->Add("statement_cache_hits", b.statement_cache_hits);
  out->Add("statement_cache_misses", b.statement_cache_misses);
  out->Add("route_cache_hits", b.route_cache_hits);
  out->Add("route_cache_misses", b.route_cache_misses);
  out->Add("binlog_batches", b.binlog_batches);
  out->Add("writeset_applies", b.writeset_applies);
  out->Add("fallback_applies", b.fallback_applies);
  out->Add("relative_delay_ms", r.relative_delay_ms);
  out->Add("idle_delay_ms", r.idle_delay_ms);
  out->Add("loaded_delay_ms", r.loaded_delay_ms);
  out->Add("mean_relative_delay_ms", r.mean_relative_delay_ms);
  out->Add("fully_replicated", r.fully_replicated);
  out->Add("converged", r.converged);
  out->Add("heartbeats_issued", r.heartbeats_issued);
  out->Add("binlog_events", r.binlog_events);
}

void DescribeControl(const harness::ControlExperimentResult& r, Lines* out) {
  out->Add("bounded_reads", r.bounded_reads);
  out->Add("bounded_to_slave", r.bounded_to_slave);
  out->Add("master_fallbacks", r.master_fallbacks);
  out->Add("read_retries", r.read_retries);
  out->Add("sla_checked", r.sla_checked);
  out->Add("sla_violations", r.sla_violations);
  out->Add("achieved_freshness_pct", r.achieved_freshness_pct);
  out->Add("master_offload_pct", r.master_offload_pct);
  out->Add("scale_outs", r.scale_outs);
  out->Add("scale_ins", r.scale_ins);
  out->Add("final_active_slaves", static_cast<int64_t>(r.final_active_slaves));
  out->Add("peak_active_slaves", static_cast<int64_t>(r.peak_active_slaves));
  for (size_t i = 0; i < r.scaling_events.size(); ++i) {
    const control::ScalingEvent& e = r.scaling_events[i];
    out->Add("scaling_event[" + std::to_string(i) + "]",
             std::to_string(e.at) + " " +
                 control::ScalingActionToString(e.action) + " " +
                 std::to_string(e.num_active) + " " + e.reason);
  }
  out->Add("peak_staleness_ms", r.peak_staleness_ms);
  out->Add("completed_ops", r.completed_ops);
  out->Add("failed_ops", r.failed_ops);
  out->Add("throughput_ops", r.throughput_ops);
  out->Add("mean_response_ms", r.mean_response_ms);
  std::istringstream table(r.metrics_table);
  std::string line;
  for (int i = 0; std::getline(table, line); ++i) {
    out->Add("metrics_table[" + std::to_string(i) + "]", line);
  }
}

}  // namespace

std::string Describe(const SimOutcome& outcome) {
  Lines out;
  for (size_t i = 0; i < outcome.cells.size(); ++i) {
    out.set_prefix("cell" + std::to_string(i) + ".");
    DescribeCell(outcome.cells[i], &out);
  }
  for (size_t i = 0; i < outcome.controls.size(); ++i) {
    out.set_prefix("control" + std::to_string(i) + ".");
    DescribeControl(outcome.controls[i], &out);
  }
  return out.str();
}

std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  while (true) {
    bool ga = static_cast<bool>(std::getline(sa, la));
    bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "";
    if (!ga) la = "<missing>";
    if (!gb) lb = "<missing>";
    if (la != lb) return la + " vs " + lb;
  }
}

}  // namespace perfbench
