#include "harness/deployment.h"

#include <functional>
#include <string>
#include <vector>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloudstone/schema.h"
#include "common/status.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"

namespace clouddb::harness {

namespace {

std::vector<repl::SlaveNode*> SlavesOf(repl::ReplicationCluster& cluster) {
  std::vector<repl::SlaveNode*> slaves;
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    slaves.push_back(cluster.slave(i));
  }
  return slaves;
}

}  // namespace

Deployment::Deployment(const cloud::CloudOptions& cloud_options,
                       uint64_t cloud_seed,
                       const repl::ClusterConfig& cluster_config,
                       const client::ProxyOptions& proxy_options)
    : provider(&sim, cloud_options, cloud_seed),
      cluster(&provider, cluster_config),
      // "The benchmark is deployed in a large instance to avoid any overload
      // on the application tier."
      app(provider.Launch("app", cloud::InstanceType::kLarge,
                          cluster_config.master_placement)),
      proxy(&sim, &provider.network(), app->node_id(), cluster.master(),
            SlavesOf(cluster), proxy_options) {}

Status Deployment::Load(int64_t scale, uint64_t seed) {
  return cluster.LoadDirect(
      [&](const std::function<Status(const std::string&)>& execute) {
        return cloudstone::LoadInitialData(execute, scale, seed, &state);
      });
}

}  // namespace clouddb::harness
