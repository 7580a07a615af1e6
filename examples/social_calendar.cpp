// Example: the social-events-calendar application, end to end.
//
// Demonstrates the public API a downstream application would use directly:
// the Fig. 1 tier (harness::Deployment: a ReplicationCluster and the
// R/W-splitting proxy over DBCP-style pools) and hand-written SQL — without
// the benchmark driver. Walks through
// a user's session (browse, view, create, join, comment) and shows where the
// statements were routed and what the slaves can see.

#include <cstdio>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "common/str_util.h"
#include "repl/replication_cluster.h"
#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "db/value.h"
#include "harness/deployment.h"
#include "sim/simulation.h"

using namespace clouddb;

namespace {

/// Runs one statement through the proxy and prints the outcome.
void Run(sim::Simulation& sim, client::ReadWriteSplitProxy& proxy,
         const std::string& sql) {
  proxy.Execute(sql, /*cpu_cost=*/-1, [&, sql](Result<db::ExecResult> r) {
    if (!r.ok()) {
      std::printf("  !! %s -> %s\n", sql.c_str(),
                  r.status().ToString().c_str());
      return;
    }
    if (!r->rows.empty()) {
      std::printf("  -> %s\n     %zu row(s), first: %s\n", sql.c_str(),
                  r->rows.size(), db::RowToString(r->rows[0]).c_str());
    } else {
      std::printf("  -> %s (%lld row(s) affected)\n", sql.c_str(),
                  static_cast<long long>(r->rows_affected));
    }
  });
  sim.Run();  // settle before the next statement (demo pacing)
}

}  // namespace

int main() {
  // One master + two read replicas in the same availability zone.
  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = 2;
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  harness::Deployment d(cloud::CloudOptions{}, /*cloud_seed=*/2026,
                        cluster_config, client::ProxyOptions{});

  // Pre-load the calendar on every replica.
  Status loaded = d.Load(/*scale=*/100, /*seed=*/7);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  std::printf("Loaded calendar: %lld users, %lld events\n\n",
              static_cast<long long>(d.state.num_users),
              static_cast<long long>(d.state.next_event_id - 1));

  std::printf("A user's session (reads go to slaves, writes to the master):\n");
  Run(d.sim, d.proxy,
      "SELECT event_id, title, event_date FROM events "
      "WHERE event_date >= 18100 ORDER BY event_date LIMIT 5");
  Run(d.sim, d.proxy, "SELECT * FROM events WHERE event_id = 17");
  int64_t new_event = d.state.next_event_id++;
  Run(d.sim, d.proxy,
      StrFormat("INSERT INTO events (event_id, title, description, "
                "created_by, event_date, created_at) VALUES (%lld, "
                "'Paper reading group', 'ICDE 2012 replication paper', 3, "
                "18250, 0)",
                static_cast<long long>(new_event)));
  Run(d.sim, d.proxy,
      StrFormat("INSERT INTO attendees (att_id, event_id, user_id, joined_at)"
                " VALUES (%lld, %lld, 5, 0)",
                static_cast<long long>(d.state.next_attendee_id++),
                static_cast<long long>(new_event)));
  Run(d.sim, d.proxy,
      StrFormat("INSERT INTO comments (comment_id, event_id, user_id, body, "
                "created_at) VALUES (%lld, %lld, 5, 'count me in', 0)",
                static_cast<long long>(d.state.next_comment_id++),
                static_cast<long long>(new_event)));
  // The replicas have applied the writes by now (the sim drained); reads see
  // the new event on whichever slave the proxy picks.
  Run(d.sim, d.proxy,
      StrFormat("SELECT COUNT(*) FROM attendees WHERE event_id = %lld",
                static_cast<long long>(new_event)));

  std::printf("\nRouting summary: %lld writes to the master; reads per slave:",
              static_cast<long long>(d.proxy.writes_routed()));
  for (int i = 0; i < d.proxy.num_slaves(); ++i) {
    std::printf(" %lld", static_cast<long long>(d.proxy.reads_routed(i)));
  }
  std::printf("\nAll replicas converged: %s\n",
              d.cluster.Converged() ? "yes" : "no");
  return d.cluster.Converged() ? 0 : 1;
}
