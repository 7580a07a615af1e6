#ifndef CLOUDDB_CLOUDSTONE_SCHEMA_H_
#define CLOUDDB_CLOUDSTONE_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace clouddb::cloudstone {

/// Shared mutable workload state: id allocators and table cardinalities.
/// Operation generators allocate primary keys here so that concurrent
/// emulated users never collide (the role the web tier's sequences played in
/// the original Cloudstone).
struct WorkloadState {
  int64_t num_users = 0;
  int64_t num_tags = 0;
  int64_t next_event_id = 1;   // events with ids [1, next_event_id) exist
  int64_t next_attendee_id = 1;
  int64_t next_event_tag_id = 1;
  int64_t next_comment_id = 1;

  int64_t RandomUserId(Rng& rng) const {
    return rng.UniformInt(1, num_users);
  }
  int64_t RandomEventId(Rng& rng) const {
    return rng.UniformInt(1, next_event_id - 1);
  }
  int64_t RandomTagId(Rng& rng) const { return rng.UniformInt(1, num_tags); }
};

/// DDL for the social-events-calendar database (the Cloudstone/Olio model):
/// users, events, tags, event_tags, attendees, comments, plus the two
/// secondary indexes the read operations use (events.event_date,
/// event_tags.tag_id).
std::vector<std::string> SchemaStatements();

/// Sizing derived from the paper's "initial data size" parameter
/// (300 for the 50/50 runs, 600 for the 80/20 runs).
struct DataProfile {
  int64_t users;
  int64_t events;
  int64_t tags;
  int64_t attendees_per_event;
  int64_t tags_per_event;
  int64_t comments_per_event;

  static DataProfile FromScale(int64_t scale);
};

/// Generates the initial data set (deterministic under `seed`) and feeds
/// every statement to `execute` — the harness runs them on the master and
/// copies the result onto every slave ("a pre-loaded, fully-synchronized
/// database"). Calls no SQL function, so one evaluation serves every copy.
/// Fills `state` with the resulting id ranges.
Status LoadInitialData(
    const std::function<Status(const std::string&)>& execute, int64_t scale,
    uint64_t seed, WorkloadState* state);

}  // namespace clouddb::cloudstone

#endif  // CLOUDDB_CLOUDSTONE_SCHEMA_H_
