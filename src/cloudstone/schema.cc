#include "cloudstone/schema.h"

#include "common/str_util.h"
#include "common/rng.h"
#include "common/status.h"

namespace clouddb::cloudstone {

std::vector<std::string> SchemaStatements() {
  return {
      "CREATE TABLE users ("
      "  user_id BIGINT PRIMARY KEY,"
      "  username TEXT NOT NULL,"
      "  created_at BIGINT)",
      "CREATE TABLE events ("
      "  event_id BIGINT PRIMARY KEY,"
      "  title TEXT NOT NULL,"
      "  description TEXT,"
      "  created_by BIGINT NOT NULL,"
      "  event_date BIGINT NOT NULL,"
      "  created_at BIGINT)",
      "CREATE TABLE tags ("
      "  tag_id BIGINT PRIMARY KEY,"
      "  name TEXT NOT NULL)",
      "CREATE TABLE event_tags ("
      "  et_id BIGINT PRIMARY KEY,"
      "  event_id BIGINT NOT NULL,"
      "  tag_id BIGINT NOT NULL)",
      "CREATE TABLE attendees ("
      "  att_id BIGINT PRIMARY KEY,"
      "  event_id BIGINT NOT NULL,"
      "  user_id BIGINT NOT NULL,"
      "  joined_at BIGINT)",
      "CREATE TABLE comments ("
      "  comment_id BIGINT PRIMARY KEY,"
      "  event_id BIGINT NOT NULL,"
      "  user_id BIGINT NOT NULL,"
      "  body TEXT,"
      "  created_at BIGINT)",
      // The secondary indexes the reads use: browse scans event_date and
      // search looks up tag_id (view reads events by primary key). Every
      // replica updates each index on every insert, so none is kept that no
      // read uses (OperationsTest.EverySecondaryIndexServesARead).
      "CREATE INDEX idx_events_date ON events (event_date)",
      "CREATE INDEX idx_event_tags_tag ON event_tags (tag_id)",
  };
}

DataProfile DataProfile::FromScale(int64_t scale) {
  DataProfile p;
  p.users = scale;
  p.events = 2 * scale;
  p.tags = 50;
  p.attendees_per_event = 3;
  p.tags_per_event = 2;
  p.comments_per_event = 2;
  return p;
}

namespace {

/// Arbitrary but fixed epoch-day base for event dates.
constexpr int64_t kDateBase = 18000;
constexpr int64_t kDateRange = 365;

}  // namespace

Status LoadInitialData(
    const std::function<Status(const std::string&)>& execute, int64_t scale,
    uint64_t seed, WorkloadState* state) {
  DataProfile profile = DataProfile::FromScale(scale);
  Rng rng(seed);

  for (const std::string& ddl : SchemaStatements()) {
    CLOUDDB_RETURN_IF_ERROR(execute(ddl));
  }

  for (int64_t u = 1; u <= profile.users; ++u) {
    CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
        "INSERT INTO users (user_id, username, created_at) "
        "VALUES (%lld, 'user_%lld', 0)",
        static_cast<long long>(u), static_cast<long long>(u))));
  }
  for (int64_t t = 1; t <= profile.tags; ++t) {
    CLOUDDB_RETURN_IF_ERROR(execute(
        StrFormat("INSERT INTO tags (tag_id, name) VALUES (%lld, 'tag_%lld')",
                  static_cast<long long>(t), static_cast<long long>(t))));
  }

  int64_t next_att = 1;
  int64_t next_et = 1;
  int64_t next_comment = 1;
  for (int64_t e = 1; e <= profile.events; ++e) {
    int64_t creator = rng.UniformInt(1, profile.users);
    int64_t date = kDateBase + rng.UniformInt(0, kDateRange - 1);
    CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
        "INSERT INTO events (event_id, title, description, created_by, "
        "event_date, created_at) VALUES (%lld, 'Event %lld', "
        "'Description of event %lld', %lld, %lld, 0)",
        static_cast<long long>(e), static_cast<long long>(e),
        static_cast<long long>(e), static_cast<long long>(creator),
        static_cast<long long>(date))));
    for (int64_t a = 0; a < profile.attendees_per_event; ++a) {
      CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
          "INSERT INTO attendees (att_id, event_id, user_id, joined_at) "
          "VALUES (%lld, %lld, %lld, 0)",
          static_cast<long long>(next_att++), static_cast<long long>(e),
          static_cast<long long>(rng.UniformInt(1, profile.users)))));
    }
    for (int64_t t = 0; t < profile.tags_per_event; ++t) {
      CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
          "INSERT INTO event_tags (et_id, event_id, tag_id) "
          "VALUES (%lld, %lld, %lld)",
          static_cast<long long>(next_et++), static_cast<long long>(e),
          static_cast<long long>(rng.UniformInt(1, profile.tags)))));
    }
    for (int64_t c = 0; c < profile.comments_per_event; ++c) {
      int64_t comment_id = next_comment++;
      CLOUDDB_RETURN_IF_ERROR(execute(StrFormat(
          "INSERT INTO comments (comment_id, event_id, user_id, body, "
          "created_at) VALUES (%lld, %lld, %lld, 'comment body %lld', 0)",
          static_cast<long long>(comment_id), static_cast<long long>(e),
          static_cast<long long>(rng.UniformInt(1, profile.users)),
          static_cast<long long>(comment_id))));
    }
  }

  state->num_users = profile.users;
  state->num_tags = profile.tags;
  state->next_event_id = profile.events + 1;
  state->next_attendee_id = next_att;
  state->next_event_tag_id = next_et;
  state->next_comment_id = next_comment;
  return Status::Ok();
}

}  // namespace clouddb::cloudstone
