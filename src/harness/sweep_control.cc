#include "harness/sweep_control.h"

#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/control_experiment.h"
#include "harness/grid.h"
#include "common/time_types.h"

namespace clouddb::harness {
namespace {

std::string BoundLabel(SimDuration bound) {
  if (bound < 0) return "unbounded";
  return StrFormat("%lldms", static_cast<long long>(bound / 1000));
}

}  // namespace

const ControlSweepCell* ControlSweepResult::Find(SimDuration bound,
                                                 int users) const {
  for (const ControlSweepCell& cell : cells_) {
    if (cell.bound == bound && cell.users == users) return &cell;
  }
  return nullptr;
}

double ControlSweepResult::AchievedFreshness(SimDuration bound,
                                             int users) const {
  const ControlSweepCell* cell = Find(bound, users);
  return cell == nullptr ? 0.0 : cell->result.achieved_freshness_pct;
}

double ControlSweepResult::MasterOffload(SimDuration bound, int users) const {
  const ControlSweepCell* cell = Find(bound, users);
  return cell == nullptr ? 0.0 : cell->result.master_offload_pct;
}

TableWriter ControlSweepResult::FreshnessTable(
    const std::vector<SimDuration>& bounds,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"SLA bound"};
  for (int u : user_counts) header.push_back(StrFormat("%d users", u));
  TableWriter table(std::move(header));
  for (SimDuration b : bounds) {
    std::vector<std::string> row = {BoundLabel(b)};
    for (int u : user_counts) {
      row.push_back(StrFormat("%.2f%%", AchievedFreshness(b, u)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

TableWriter ControlSweepResult::OffloadTable(
    const std::vector<SimDuration>& bounds,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"SLA bound"};
  for (int u : user_counts) header.push_back(StrFormat("%d users", u));
  TableWriter table(std::move(header));
  for (SimDuration b : bounds) {
    std::vector<std::string> row = {BoundLabel(b)};
    for (int u : user_counts) {
      row.push_back(StrFormat("%.1f%%", MasterOffload(b, u)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

TableWriter ControlSweepResult::ReplicaTable(
    const std::vector<SimDuration>& bounds,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"SLA bound"};
  for (int u : user_counts) header.push_back(StrFormat("%d users", u));
  TableWriter table(std::move(header));
  for (SimDuration b : bounds) {
    std::vector<std::string> row = {BoundLabel(b)};
    for (int u : user_counts) {
      const ControlSweepCell* cell = Find(b, u);
      row.push_back(
          cell == nullptr
              ? std::string("-")
              : StrFormat("peak %d, final %d (+%lld/-%lld)",
                          cell->result.peak_active_slaves,
                          cell->result.final_active_slaves,
                          static_cast<long long>(cell->result.scale_outs),
                          static_cast<long long>(cell->result.scale_ins)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

namespace {

/// Planned grid cell: seeds derived from grid coordinates up front, exactly
/// like harness::RunSweep — RunGrid's parallel output must be
/// byte-identical to the serial one.
struct PlannedControlCell {
  SimDuration bound = 0;
  int users = 0;
  ControlExperimentConfig run;
};

std::vector<PlannedControlCell> PlanCells(const ControlSweepConfig& config) {
  std::vector<PlannedControlCell> cells;
  cells.reserve(config.staleness_bounds.size() * config.user_counts.size());
  for (SimDuration bound : config.staleness_bounds) {
    for (int users : config.user_counts) {
      ControlExperimentConfig run = config.base;
      run.staleness_bound = bound;
      run.base_users = users;
      run.surge_users =
          static_cast<int>(static_cast<double>(users) * config.surge_factor);
      run.seed = config.base.seed + config.seed_salt +
                 static_cast<uint64_t>(users) * 7919ull +
                 static_cast<uint64_t>(bound < 0 ? 1 : bound) * 104729ull;
      if (!run.placement_seed.has_value()) {
        run.placement_seed = config.base.seed * 131 + config.seed_salt;
      }
      cells.push_back(PlannedControlCell{bound, users, std::move(run)});
    }
  }
  return cells;
}

}  // namespace

Result<ControlSweepResult> RunControlSweep(
    const ControlSweepConfig& config,
    const std::function<void(const ControlSweepCell&)>& progress) {
  ControlSweepResult result;
  CLOUDDB_RETURN_IF_ERROR(RunGrid(
      PlanCells(config), config.jobs,
      [](const PlannedControlCell& cell) {
        return RunControlExperiment(cell.run);
      },
      [&](const PlannedControlCell& cell, ControlExperimentResult outcome) {
        ControlSweepCell done{cell.bound, cell.users, std::move(outcome)};
        if (progress) progress(done);
        result.Add(std::move(done));
      }));
  return result;
}

}  // namespace clouddb::harness
