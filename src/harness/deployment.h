#ifndef CLOUDDB_HARNESS_DEPLOYMENT_H_
#define CLOUDDB_HARNESS_DEPLOYMENT_H_

#include <cstdint>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloudstone/schema.h"
#include "common/status.h"
#include "repl/replication_cluster.h"
#include "sim/simulation.h"

namespace clouddb::harness {

/// The paper's Fig. 1 tier (§III-A): a master and its slaves (L2/L3), the
/// large application instance in the master's zone that runs the benchmark
/// (L1), and the read/write-splitting proxy over every slave inside it.
/// Members are built in declaration order and callers use them directly.
///
/// Instances launch in the order master, slaves, app. That order fixes the
/// cloud's random draws (speed, clock offset, drift per instance), so every
/// figure depends on it; callers that need more instances (a failover
/// monitor) launch them after construction.
struct Deployment {
  Deployment(const cloud::CloudOptions& cloud_options, uint64_t cloud_seed,
             const repl::ClusterConfig& cluster_config,
             const client::ProxyOptions& proxy_options);

  // Components hold pointers to each other (and callbacks capture them).
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Pre-loads the Cloudstone data set, bypassing CPU and replication: the
  /// loader runs on the master once and each slave gets one copy of its
  /// tables (ReplicationCluster::LoadDirect). Records the data's extent in
  /// `state`. Separate from construction because callers act between the
  /// two: the experiment starts NTP (and draws its seeds) first, the
  /// failover drills launch their monitor instance.
  Status Load(int64_t scale, uint64_t seed);

  sim::Simulation sim;
  cloud::CloudProvider provider;
  repl::ReplicationCluster cluster;
  cloud::Instance* app;
  cloudstone::WorkloadState state;
  client::ReadWriteSplitProxy proxy;
};

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_DEPLOYMENT_H_
