#include "harness/sweep.h"

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table_writer.h"
#include "harness/experiment.h"
#include "harness/grid.h"

namespace clouddb::harness {

const SweepCell* SweepResult::Find(int slaves, int users) const {
  for (const SweepCell& cell : cells_) {
    if (cell.slaves == slaves && cell.users == users) return &cell;
  }
  return nullptr;
}

double SweepResult::Throughput(int slaves, int users) const {
  const SweepCell* cell = Find(slaves, users);
  return cell == nullptr ? 0.0 : cell->result.benchmark.throughput_ops;
}

double SweepResult::RelativeDelay(int slaves, int users) const {
  const SweepCell* cell = Find(slaves, users);
  return cell == nullptr ? 0.0 : cell->result.mean_relative_delay_ms;
}

int SweepResult::SaturationUsers(int slaves,
                                 const std::vector<int>& user_counts) const {
  // Find the workload with the maximum observed throughput; the saturation
  // point is the next workload step (0 if the maximum sits at the end).
  double best = -1.0;
  size_t best_i = 0;
  for (size_t i = 0; i < user_counts.size(); ++i) {
    double t = Throughput(slaves, user_counts[i]);
    if (t > best) {
      best = t;
      best_i = i;
    }
  }
  if (best_i + 1 >= user_counts.size()) return 0;
  return user_counts[best_i + 1];
}

TableWriter SweepResult::ThroughputTable(
    const std::vector<int>& slave_counts,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"users"};
  for (int s : slave_counts) {
    header.push_back(StrFormat("%d slave%s", s, s == 1 ? "" : "s"));
  }
  TableWriter table(std::move(header));
  for (int u : user_counts) {
    std::vector<std::string> row = {StrFormat("%d", u)};
    for (int s : slave_counts) {
      row.push_back(StrFormat("%.1f", Throughput(s, u)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

TableWriter SweepResult::DelayTable(const std::vector<int>& slave_counts,
                                    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"users"};
  for (int s : slave_counts) {
    header.push_back(StrFormat("%d slave%s", s, s == 1 ? "" : "s"));
  }
  TableWriter table(std::move(header));
  for (int u : user_counts) {
    std::vector<std::string> row = {StrFormat("%d", u)};
    for (int s : slave_counts) {
      row.push_back(StrFormat("%.1f", RelativeDelay(s, u)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

namespace {

/// One grid cell's fully derived run configuration. Planning every cell up
/// front (in grid order) makes each seed a pure function of the grid
/// coordinates — never of worker scheduling — which is what lets RunGrid's
/// parallel mode reproduce the serial output byte for byte.
struct PlannedCell {
  int slaves = 0;
  int users = 0;
  ExperimentConfig run;
};

std::vector<PlannedCell> PlanCells(const SweepConfig& config) {
  std::vector<PlannedCell> cells;
  cells.reserve(config.slave_counts.size() * config.user_counts.size());
  for (int slaves : config.slave_counts) {
    for (int users : config.user_counts) {
      ExperimentConfig run = config.base;
      run.num_slaves = slaves;
      run.num_users = users;
      // Decorrelate the workload deterministically, but pin the cloud
      // randomness so the whole sweep runs on one fixed set of instances
      // (the paper's deployment is constant within a figure).
      run.seed = config.base.seed + config.seed_salt +
                 static_cast<uint64_t>(slaves) * 1000003ull +
                 static_cast<uint64_t>(users) * 7919ull;
      if (!run.placement_seed.has_value()) {
        run.placement_seed = config.base.seed * 131 + config.seed_salt;
      }
      cells.push_back(PlannedCell{slaves, users, std::move(run)});
    }
  }
  return cells;
}

}  // namespace

Result<SweepResult> RunSweep(
    const SweepConfig& config,
    const std::function<void(const SweepCell&)>& progress) {
  SweepResult result;
  CLOUDDB_RETURN_IF_ERROR(RunGrid(
      PlanCells(config), config.jobs,
      [](const PlannedCell& cell) { return RunExperiment(cell.run); },
      [&](const PlannedCell& cell, ExperimentResult outcome) {
        SweepCell done{cell.slaves, cell.users, std::move(outcome)};
        if (progress) progress(done);
        result.Add(std::move(done));
      }));
  return result;
}

}  // namespace clouddb::harness
