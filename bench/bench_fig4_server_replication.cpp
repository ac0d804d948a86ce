// Experiment F4 (Figure 4): |Sv|>1, |St|=1 — replicated servers over a
// single object state.
//
// Sweep |Sv'| (activated replicas) from 1 to 5 with server nodes cycling
// through crashes; the store node stays up. Compare the two replicated
// activation policies the paper identifies:
//   active             — all replicas execute; crash masked immediately
//   coordinator-cohort — one executes; a crash aborts the current action
//                        but the next action fails over to a warm cohort
// With k replicas, up to k-1 server failures are masked.
#include "bench/common.h"

using namespace gv;
using namespace gv::bench;

namespace {

WorkloadResult run(std::size_t k, ReplicationPolicy policy, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 10;
  cfg.seed = seed;
  ReplicaSystem sys{cfg};
  std::vector<sim::NodeId> sv;
  for (std::size_t i = 0; i < k; ++i) sv.push_back(static_cast<sim::NodeId>(2 + i));
  const Uid obj = sys.define_object("obj", "counter", replication::Counter{}.snapshot(), sv,
                                    {8}, policy, k);
  core::CrashNemesis chaos{sys.sim(), sys.cluster(),
                           core::CrashNemesisConfig{.mean_uptime = 1200 * sim::kMillisecond,
                                                    .mean_downtime = 600 * sim::kMillisecond,
                                                    .victims = sv}};
  chaos.start();
  auto* client = sys.client(1);
  WorkloadResult out;
  sys.sim().spawn(run_workload(client, obj, WorkloadOptions{.transactions = 80}, out));
  sys.sim().run_until(120 * sim::kSecond);
  chaos.stop();
  return out;
}

}  // namespace

int main() {
  std::printf("F4 / Figure 4: |St|=1, |Sv'| swept 1..5; server nodes churn\n");
  std::printf("80 txns per run, 5 seeds\n");
  core::Table table({"|Sv'|", "active: availability", "coord-cohort: availability"});
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u}) {
    WorkloadResult active_sum, cc_sum;
    for (auto seed : seeds()) {
      auto a = run(k, ReplicationPolicy::Active, seed);
      active_sum.attempted += a.attempted;
      active_sum.committed += a.committed;
      auto c = run(k, ReplicationPolicy::CoordinatorCohort, seed);
      cc_sum.attempted += c.attempted;
      cc_sum.committed += c.committed;
    }
    table.add_row({std::to_string(k), core::Table::fmt_pct(active_sum.availability()),
                   core::Table::fmt_pct(cc_sum.availability())});
  }
  table.print("availability vs server replication degree");
  std::printf("\nExpected shape: availability rises with k on both policies — the\n"
              "paper's k-1 masking claim. The relative order of the two policies\n"
              "depends on the failure mix: active masks mid-action crashes but\n"
              "re-forms its group via the stores; coordinator-cohort aborts the\n"
              "in-flight action yet fails over to a warm cohort without store\n"
              "reads.\n");
  return 0;
}
