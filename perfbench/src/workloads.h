#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/control_experiment.h"
#include "harness/experiment.h"
#include "harness/sweep.h"

namespace perfbench {

/// Which harness entry point a workload goes through.
enum class Entry { kSweep, kExperiment, kControl };

/// One named benchmark workload: a fixed harness configuration whose
/// workload randomness comes from the benchmark seed. The cloud (instance
/// speed lottery, clock offsets, network jitter) is pinned through
/// `placement_seed`, as the paper reuses one deployment per figure, so the
/// seed varies the offered operations and not the machines.
struct Workload {
  std::string name;
  Entry entry = Entry::kSweep;
  clouddb::harness::SweepConfig sweep;            // kSweep
  clouddb::harness::ExperimentConfig experiment;  // kExperiment
  /// kControl: one cell per seed of a batch. A single cell's elastic
  /// trajectory (how many scale-outs, when) swings with the seed, so the
  /// workload runs several and reports their mean.
  std::vector<clouddb::harness::ControlExperimentConfig> controls;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`; `short_mode` shrinks every phase (and
/// the fig2 grid) for the benchmark's own self-test. nullopt for an unknown
/// name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool short_mode);

/// The same workload with every traffic phase set to zero: the harness call
/// then covers deploy, NTP, initial load, heartbeat table, drain and the
/// final checks — the set-up a user waits through before the first op.
Workload SetupOnly(const Workload& workload);

/// Simulated results of one pass over the workload: one ExperimentResult per
/// cell (sweep, experiment) or one control result per batch cell.
struct SimOutcome {
  std::vector<clouddb::harness::ExperimentResult> cells;
  std::vector<clouddb::harness::ControlExperimentResult> controls;
};

/// Runs the workload through its public harness entry point (serially:
/// sweeps use jobs = 1; control batches call it once per cell) and stores
/// each cell's wall time (s) in `cell_seconds`, in cell order; they add up
/// to the whole call.
clouddb::Result<SimOutcome> RunHarness(const Workload& workload,
                                       std::vector<double>* cell_seconds);

/// Every simulated field of `outcome`, one `name=value` line each, doubles
/// printed with all their digits — two outcomes are equal iff these texts
/// are. Host-only changes must leave it byte-identical.
std::string Describe(const SimOutcome& outcome);

/// The first line where two descriptions differ ("" when equal).
std::string FirstDifference(const std::string& a, const std::string& b);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
