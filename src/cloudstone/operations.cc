#include "cloudstone/operations.h"

#include <cassert>

#include "common/str_util.h"
#include "cloudstone/schema.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "repl/cost_model.h"

namespace clouddb::cloudstone {

bool IsReadOp(OpType op) {
  switch (op) {
    case OpType::kBrowseEvents:
    case OpType::kSearchEvents:
    case OpType::kViewEvent:
      return true;
    default:
      return false;
  }
}

WorkloadMix WorkloadMix::FiftyFifty() {
  WorkloadMix mix;
  mix.read_fraction = 0.5;
  // Heavier interactive reads: average read cost ~146 ms.
  mix.browse_weight = 0.30;
  mix.search_weight = 0.45;
  mix.view_weight = 0.25;
  // Average write cost ~98.75 ms.
  mix.create_weight = 0.35;
  mix.join_weight = 0.30;
  mix.tag_weight = 0.15;
  mix.comment_weight = 0.20;
  return mix;
}

WorkloadMix WorkloadMix::EightyTwenty() {
  WorkloadMix mix;
  mix.read_fraction = 0.8;
  // Lighter browsing-dominated reads: average read cost ~112 ms.
  mix.browse_weight = 0.35;
  mix.search_weight = 0.15;
  mix.view_weight = 0.50;
  // Average write cost ~90 ms.
  mix.create_weight = 0.20;
  mix.join_weight = 0.35;
  mix.tag_weight = 0.25;
  mix.comment_weight = 0.20;
  return mix;
}

SimDuration OperationCosts::CostOf(OpType op) const {
  switch (op) {
    case OpType::kBrowseEvents:
      return browse;
    case OpType::kSearchEvents:
      return search;
    case OpType::kViewEvent:
      return view;
    case OpType::kCreateEvent:
      return create;
    case OpType::kJoinEvent:
      return join;
    case OpType::kTagEvent:
      return tag;
    case OpType::kAddComment:
      return comment;
  }
  return 0;
}

repl::CostModel MakeWorkloadCostModel(const OperationCosts& costs,
                                      double apply_factor) {
  repl::CostModel model;
  model.apply_factor = apply_factor;
  auto apply = [&](SimDuration cost) {
    return static_cast<SimDuration>(apply_factor *
                                    static_cast<double>(cost));
  };
  model.apply_cost_by_table["events"] = apply(costs.create);
  model.apply_cost_by_table["attendees"] = apply(costs.join);
  model.apply_cost_by_table["event_tags"] = apply(costs.tag);
  model.apply_cost_by_table["comments"] = apply(costs.comment);
  model.apply_cost_by_table["heartbeat"] = Millis(4);
  return model;
}

OperationGenerator::OperationGenerator(WorkloadMix mix, OperationCosts costs,
                                       WorkloadState* state,
                                       std::function<int64_t()> now_micros)
    : mix_(mix),
      costs_(costs),
      state_(state),
      now_micros_(now_micros ? std::move(now_micros)
                             : [] { return int64_t{0}; }) {
  read_weights_ = {mix.browse_weight, mix.search_weight, mix.view_weight};
  write_weights_ = {mix.create_weight, mix.join_weight, mix.tag_weight,
                    mix.comment_weight};
}

GeneratedOp OperationGenerator::Next(Rng& rng) {
  bool read = rng.Bernoulli(mix_.read_fraction);
  OpType op;
  if (read) {
    static constexpr OpType kReads[] = {
        OpType::kBrowseEvents, OpType::kSearchEvents, OpType::kViewEvent};
    op = kReads[rng.WeightedIndex(read_weights_)];
  } else {
    static constexpr OpType kWrites[] = {OpType::kCreateEvent,
                                         OpType::kJoinEvent, OpType::kTagEvent,
                                         OpType::kAddComment};
    op = kWrites[rng.WeightedIndex(write_weights_)];
  }
  return Generate(op, rng);
}

GeneratedOp OperationGenerator::Generate(OpType op, Rng& rng) {
  GeneratedOp out;
  out.type = op;
  out.is_read = IsReadOp(op);
  out.cpu_cost = costs_.CostOf(op);
  switch (op) {
    case OpType::kBrowseEvents: {
      int64_t from_date = 18000 + rng.UniformInt(0, 364);
      out.sql = StrFormat(
          "SELECT event_id, title, event_date FROM events "
          "WHERE event_date >= %lld ORDER BY event_date LIMIT 10",
          static_cast<long long>(from_date));
      break;
    }
    case OpType::kSearchEvents: {
      out.sql = StrFormat(
          "SELECT et_id, event_id FROM event_tags WHERE tag_id = %lld "
          "LIMIT 20",
          static_cast<long long>(state_->RandomTagId(rng)));
      break;
    }
    case OpType::kViewEvent: {
      out.sql = StrFormat("SELECT * FROM events WHERE event_id = %lld",
                          static_cast<long long>(state_->RandomEventId(rng)));
      break;
    }
    case OpType::kCreateEvent: {
      int64_t id = state_->next_event_id++;
      int64_t creator = state_->RandomUserId(rng);
      int64_t date = 18000 + rng.UniformInt(0, 364);
      out.sql = StrFormat(
          "INSERT INTO events (event_id, title, description, created_by, "
          "event_date, created_at) VALUES (%lld, 'Event %lld', "
          "'A freshly created event', %lld, %lld, %lld)",
          static_cast<long long>(id), static_cast<long long>(id),
          static_cast<long long>(creator), static_cast<long long>(date),
          static_cast<long long>(now_micros_()));
      break;
    }
    case OpType::kJoinEvent: {
      int64_t id = state_->next_attendee_id++;
      out.sql = StrFormat(
          "INSERT INTO attendees (att_id, event_id, user_id, joined_at) "
          "VALUES (%lld, %lld, %lld, %lld)",
          static_cast<long long>(id),
          static_cast<long long>(state_->RandomEventId(rng)),
          static_cast<long long>(state_->RandomUserId(rng)),
          static_cast<long long>(now_micros_()));
      break;
    }
    case OpType::kTagEvent: {
      int64_t id = state_->next_event_tag_id++;
      out.sql = StrFormat(
          "INSERT INTO event_tags (et_id, event_id, tag_id) "
          "VALUES (%lld, %lld, %lld)",
          static_cast<long long>(id),
          static_cast<long long>(state_->RandomEventId(rng)),
          static_cast<long long>(state_->RandomTagId(rng)));
      break;
    }
    case OpType::kAddComment: {
      int64_t id = state_->next_comment_id++;
      out.sql = StrFormat(
          "INSERT INTO comments (comment_id, event_id, user_id, body, "
          "created_at) VALUES (%lld, %lld, %lld, 'nice event, see you "
          "there', %lld)",
          static_cast<long long>(id),
          static_cast<long long>(state_->RandomEventId(rng)),
          static_cast<long long>(state_->RandomUserId(rng)),
          static_cast<long long>(now_micros_()));
      break;
    }
  }
  return out;
}

}  // namespace clouddb::cloudstone
