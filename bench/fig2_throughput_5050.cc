// Reproduces paper Figs. 2 (a–c) and 5 (a–c) from one grid of runs: an
// increasing workload (50–200 users), an increasing number of database
// replicas (1–4 slaves) and three geographic configurations of the slaves.
// Read/write ratio 50/50, initial data size 300, master in us-west-1a.
// Fig. 2 is the end-to-end throughput; Fig. 5 the average relative
// replication delay of the same runs.
//
// Expected shape (paper §IV-A): 1 slave saturates around 100 users; 2 slaves
// push the saturation point to ~175 users; from the 3rd slave on the master
// is the bottleneck and extra slaves add (almost) nothing.
//
// Expected shape (paper §IV-B.2): delay rises with workload — by orders of
// magnitude once replicas saturate (up to 10^5..10^6 ms) — and falls as
// slaves are added; the placement's contribution (16/21/173 ms one-way) is
// minor compared to the workload's.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace clouddb;
  return bench::RunLocationSweeps(
      bench::FiftyFiftyBase(), bench::Fig2Slaves(), bench::Fig2Users(),
      {"Figure 2: throughput, 50/50 read/write, data size 300, 1-4 slaves",
       "Fig2"},
      {"Figure 5: average relative replication delay (ms), 50/50, 1-4 slaves",
       "Fig5"},
      bench::SweepJobs(argc, argv));
}
