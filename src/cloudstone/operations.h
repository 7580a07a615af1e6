#ifndef CLOUDDB_CLOUDSTONE_OPERATIONS_H_
#define CLOUDDB_CLOUDSTONE_OPERATIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloudstone/schema.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "repl/cost_model.h"

namespace clouddb::cloudstone {

/// The seven user operations of the social-events-calendar workload.
/// "users ... perform individual operations (e.g. browsing, searching and
/// creating events), as well as social operations (e.g. joining and tagging
/// events)" (§III-A).
enum class OpType {
  // Reads (served by slaves through the proxy):
  kBrowseEvents,   // upcoming events ordered by date
  kSearchEvents,   // events carrying a given tag
  kViewEvent,      // one event's detail page
  // Writes (served by the master):
  kCreateEvent,
  kJoinEvent,      // attend an event
  kTagEvent,
  kAddComment,
};

bool IsReadOp(OpType op);

/// A generated operation, ready to send through the proxy.
struct GeneratedOp {
  OpType type;
  std::string sql;
  bool is_read;
  SimDuration cpu_cost;  // nominal CPU cost on the serving replica
};

/// Relative frequencies of the operations. The two mixes realize the paper's
/// 50/50 and 80/20 read/write ratios; within each class the blend determines
/// the *average* CPU cost per read and per write, which is what positions
/// the saturation points.
struct WorkloadMix {
  double read_fraction = 0.5;
  // Within-class weights (need not sum to 1; normalized on use):
  double browse_weight = 1.0;
  double search_weight = 1.0;
  double view_weight = 1.0;
  double create_weight = 1.0;
  double join_weight = 1.0;
  double tag_weight = 1.0;
  double comment_weight = 1.0;

  /// The paper's 50/50 configuration (run with initial data size 300).
  static WorkloadMix FiftyFifty();
  /// The paper's 80/20 configuration (run with initial data size 600).
  static WorkloadMix EightyTwenty();
};

/// Nominal per-operation CPU costs (µs at small-instance speed 1.0).
/// Centralised so the cost model, the generator and the benches agree.
struct OperationCosts {
  SimDuration browse = Millis(120);
  SimDuration search = Millis(200);
  SimDuration view = Millis(80);
  SimDuration create = Millis(130);
  SimDuration join = Millis(85);
  SimDuration tag = Millis(65);
  SimDuration comment = Millis(90);

  SimDuration CostOf(OpType op) const;
};

/// Builds the replication cost model matching the workload: slave apply
/// costs per written table (apply_factor x the op cost) plus the tiny
/// heartbeat-table override.
repl::CostModel MakeWorkloadCostModel(const OperationCosts& costs,
                                      double apply_factor = 0.5);

/// Draws operations according to a mix, allocating ids from the shared
/// WorkloadState.
class OperationGenerator {
 public:
  /// `now_micros` supplies the application-side timestamp embedded as a
  /// *literal* in write statements (the web tier computes timestamps before
  /// sending SQL). Embedding literals keeps statement-based replication
  /// deterministic — only the heartbeat probe deliberately uses the
  /// per-replica NOW_MICROS(). Defaults to a constant 0 source.
  OperationGenerator(WorkloadMix mix, OperationCosts costs,
                     WorkloadState* state,
                     std::function<int64_t()> now_micros = nullptr);

  /// Generates the next operation using `rng` (each emulated user owns an
  /// independent stream).
  GeneratedOp Next(Rng& rng);

  const WorkloadMix& mix() const { return mix_; }
  const OperationCosts& costs() const { return costs_; }

 private:
  GeneratedOp Generate(OpType op, Rng& rng);

  WorkloadMix mix_;
  OperationCosts costs_;
  WorkloadState* state_;
  std::function<int64_t()> now_micros_;
  std::vector<double> read_weights_;
  std::vector<double> write_weights_;
};

}  // namespace clouddb::cloudstone

#endif  // CLOUDDB_CLOUDSTONE_OPERATIONS_H_
