// Chaos failover: the clouddb::fault subsystem in ~100 lines.
//
// A master + 2 slaves tier takes a steady trickle of writes through the
// read/write-splitting proxy while a scripted fault schedule partitions one
// slave and then crashes the master. The FailoverManager detects the death
// and promotes a slave; the RecoveryObserver measures how long each step
// took and how many committed writes were lost. Everything runs on the
// deterministic event queue: re-running this program prints the exact same
// timeline and report every time.

#include <cstdio>
#include <functional>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "common/str_util.h"
#include "fault/fault_injector.h"
#include "fault/recovery_observer.h"
#include "repl/failover.h"
#include "repl/replication_cluster.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/database.h"
#include "fault/fault_schedule.h"
#include "harness/deployment.h"
#include "repl/master_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

int main() {
  using namespace clouddb;

  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = 2;
  cluster_config.cost_model.insert_cost = Millis(5);
  harness::Deployment d(cloud::CloudOptions{}, /*cloud_seed=*/42,
                        cluster_config, client::ProxyOptions{});
  cloud::Instance* monitor = d.provider.Launch(
      "monitor", cloud::InstanceType::kSmall, cloud::MasterPlacement());

  Status created = d.cluster.ExecuteEverywhereDirect(
      "CREATE TABLE events (id INT PRIMARY KEY, payload INT)");
  if (!created.ok()) {
    std::printf("setup failed: %s\n", created.ToString().c_str());
    return 1;
  }

  // Slaves survive transient faults by re-requesting missed events with
  // bounded exponential backoff instead of silently diverging.
  for (int i = 0; i < 2; ++i) d.cluster.slave(i)->StartAutoResync();

  repl::FailoverManager manager(&d.sim, &d.provider.network(),
                                monitor->node_id(), &d.cluster,
                                repl::FailoverOptions{});
  manager.AddFailoverListener([&](repl::MasterNode* new_master) {
    std::printf("t=%-8s failover! proxy repointed at the promoted slave\n",
                FormatDuration(d.sim.Now()).c_str());
    d.proxy.ReplaceMaster(new_master);
  });
  manager.Start();

  fault::RecoveryObserver observer(&d.sim, &manager);
  observer.Start();

  fault::FaultInjector injector(&d.sim, &d.provider);
  injector.SetFaultListener([&](const fault::FaultEvent& event, bool begin) {
    std::printf("t=%-8s %s %s\n", FormatDuration(d.sim.Now()).c_str(),
                begin ? "inject:" : "heal:  ", event.ToString().c_str());
    if (event.kind != fault::FaultKind::kCrash) return;
    if (begin) {
      observer.NoteFault();
    } else {
      observer.NoteHeal();
    }
  });
  fault::FaultSchedule schedule;
  schedule.Partition(Seconds(10), "slave-1", "master", Seconds(8))
      .Crash(Seconds(30), "master", Seconds(30));
  Status armed = injector.Arm(schedule);
  if (!armed.ok()) {
    std::printf("arm failed: %s\n", armed.ToString().c_str());
    return 1;
  }
  std::printf("fault schedule:\n%s\n", schedule.ToString().c_str());

  // A steady trickle of writes: one INSERT every 500 ms for 90 s.
  SimTime horizon = Seconds(90);
  int64_t next_id = 0, write_ok = 0, write_failed = 0;
  std::function<void()> write_tick = [&] {
    if (d.sim.Now() >= horizon) return;
    d.proxy.Execute(
        StrFormat("INSERT INTO events VALUES (%lld, %lld)",
                  static_cast<long long>(next_id),
                  static_cast<long long>(next_id * 7)),
        /*cpu_cost=*/-1, [&](Result<db::ExecResult> r) {
          if (r.ok()) {
            ++write_ok;
          } else {
            ++write_failed;  // unavailable window: the app's retry problem
          }
        });
    ++next_id;
    d.sim.ScheduleAfter(Millis(500), write_tick);
  };
  d.sim.ScheduleAfter(Millis(500), write_tick);

  d.sim.RunUntil(horizon);
  manager.Stop();
  observer.Stop();
  for (int i = 0; i < 2; ++i) d.cluster.slave(i)->StopAutoResync();
  d.sim.Run();

  bool converged = d.cluster.Converged();

  std::printf("\n-- recovery report --\n%s", observer.report().ToString().c_str());
  std::printf("writes acknowledged   %lld\n", static_cast<long long>(write_ok));
  std::printf("writes failed         %lld (during the unavailability window)\n",
              static_cast<long long>(write_failed));
  std::printf("cluster converged     %s\n", converged ? "yes" : "no");
  return converged ? 0 : 1;
}
