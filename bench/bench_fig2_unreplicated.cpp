// Experiment F2 (Figure 2): the non-replicated regime |Sv|=|St|=1.
//
// One server node, one store node. We sweep node churn (mean time
// between crashes) and measure availability: with no replication, every
// crash of either node aborts the in-flight action and makes the object
// unavailable until recovery. This is the baseline the replicated
// regimes of figs 3-5 improve on.
#include "bench/common.h"

using namespace gv;
using namespace gv::bench;

namespace {

WorkloadResult run(sim::SimTime mean_uptime, std::uint64_t seed, Summary* latency) {
  SystemConfig cfg;
  cfg.nodes = 6;
  cfg.seed = seed;
  ReplicaSystem sys{cfg};
  const Uid obj = sys.define_object("obj", "counter", replication::Counter{}.snapshot(), {2},
                                    {3}, ReplicationPolicy::SingleCopyPassive, 1);
  core::CrashNemesis chaos{sys.sim(), sys.cluster(),
                           core::CrashNemesisConfig{.mean_uptime = mean_uptime,
                                                    .mean_downtime = 400 * sim::kMillisecond,
                                                    .victims = {2, 3}}};
  chaos.start();
  auto* client = sys.client(1);
  WorkloadResult out;
  sys.sim().spawn(run_workload(client, obj, WorkloadOptions{.transactions = 80}, out, latency));
  sys.sim().run_until(120 * sim::kSecond);
  chaos.stop();
  return out;
}

}  // namespace

int main() {
  std::printf("F2 / Figure 2: |Sv|=|St|=1 (non-replicated baseline)\n");
  std::printf("80 txns per run, 5 seeds; crash/recover cycling on the 2 nodes\n");
  core::Table table({"mean uptime (ms)", "availability", "committed txn latency (ms)"});
  for (sim::SimTime uptime : {500u, 1000u, 2000u, 4000u, 8000u}) {
    WorkloadResult sum;
    Summary latency;
    for (auto seed : seeds()) {
      auto r = run(uptime * sim::kMillisecond, seed, &latency);
      sum.attempted += r.attempted;
      sum.committed += r.committed;
    }
    table.add_row({std::to_string(uptime), core::Table::fmt_pct(sum.availability()),
                   core::Table::fmt(latency.mean())});
  }
  table.print("availability vs churn, unreplicated");
  std::printf("\nExpected shape: availability degrades sharply as crashes become\n"
              "frequent — either node being down stalls the object entirely.\n");
  return 0;
}
