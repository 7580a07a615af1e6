#ifndef CLOUDDB_HARNESS_SWEEP_CONTROL_H_
#define CLOUDDB_HARNESS_SWEEP_CONTROL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/table_writer.h"
#include "common/time_types.h"
#include "harness/control_experiment.h"

namespace clouddb::harness {

/// Grid of control-plane runs: SLA bound x offered load. Each cell is one
/// RunControlExperiment with the load step and the controller enabled.
struct ControlSweepConfig {
  ControlExperimentConfig base;
  /// Staleness bounds (negative = unbounded is allowed as a control cell).
  std::vector<SimDuration> staleness_bounds;
  /// Offered load per cell: base users; surge users scale with the base.
  std::vector<int> user_counts;
  double surge_factor = 3.0;
  /// Offset folded into each cell's seed.
  uint64_t seed_salt = 0;
  /// Worker threads; identical contract to SweepConfig::jobs — results are
  /// consumed strictly in grid order, so output is byte-identical for every
  /// value.
  int jobs = 1;
};

struct ControlSweepCell {
  SimDuration bound = 0;
  int users = 0;
  ControlExperimentResult result;
};

class ControlSweepResult {
 public:
  void Add(ControlSweepCell cell) { cells_.push_back(std::move(cell)); }
  const std::vector<ControlSweepCell>& cells() const { return cells_; }
  const ControlSweepCell* Find(SimDuration bound, int users) const;

  double AchievedFreshness(SimDuration bound, int users) const;
  double MasterOffload(SimDuration bound, int users) const;

  /// Figure tables: one row per SLA bound, one column per offered load.
  TableWriter FreshnessTable(const std::vector<SimDuration>& bounds,
                             const std::vector<int>& user_counts) const;
  TableWriter OffloadTable(const std::vector<SimDuration>& bounds,
                           const std::vector<int>& user_counts) const;
  TableWriter ReplicaTable(const std::vector<SimDuration>& bounds,
                           const std::vector<int>& user_counts) const;

 private:
  std::vector<ControlSweepCell> cells_;
};

/// Runs every (bound, users) combination, on `config.jobs` worker threads
/// when > 1; `progress` fires on the calling thread in grid order.
Result<ControlSweepResult> RunControlSweep(
    const ControlSweepConfig& config,
    const std::function<void(const ControlSweepCell&)>& progress = nullptr);

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_SWEEP_CONTROL_H_
