// Experiment F5 (Figure 5): the general case |Sv|>1 AND |St|>1.
//
// 2-D sweep over (|Sv'|, |St|) with BOTH server and store nodes cycling
// through crashes. The paper's claim: this regime subsumes the special
// cases of figs 2-4 and offers maximum flexibility during activation —
// each server may load from any store, commits survive any store subset
// dying, invocations survive any server subset dying.
#include "bench/common.h"

using namespace gv;
using namespace gv::bench;

namespace {

WorkloadResult run(std::size_t n_sv, std::size_t n_st, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 12;
  cfg.seed = seed;
  ReplicaSystem sys{cfg};
  std::vector<sim::NodeId> sv, st, victims;
  for (std::size_t i = 0; i < n_sv; ++i) sv.push_back(static_cast<sim::NodeId>(2 + i));
  for (std::size_t i = 0; i < n_st; ++i) st.push_back(static_cast<sim::NodeId>(7 + i));
  victims.insert(victims.end(), sv.begin(), sv.end());
  victims.insert(victims.end(), st.begin(), st.end());
  const Uid obj = sys.define_object("obj", "counter", replication::Counter{}.snapshot(), sv, st,
                                    n_sv > 1 ? ReplicationPolicy::Active
                                             : ReplicationPolicy::SingleCopyPassive,
                                    n_sv);
  core::CrashNemesis chaos{sys.sim(), sys.cluster(),
                           core::CrashNemesisConfig{.mean_uptime = 2500 * sim::kMillisecond,
                                                    .mean_downtime = 500 * sim::kMillisecond,
                                                    .victims = victims}};
  chaos.start();
  auto* client = sys.client(1);
  WorkloadResult out;
  sys.sim().spawn(run_workload(client, obj, WorkloadOptions{.transactions = 120}, out));
  sys.sim().run_until(120 * sim::kSecond);
  chaos.stop();
  return out;
}

}  // namespace

int main() {
  std::printf("F5 / Figure 5: availability surface over (|Sv'|, |St|), both axes churn\n");
  std::printf("120 txns per run, 10 seeds per cell\n");
  core::Table table({"|Sv'| \\ |St|", "1", "2", "3"});
  for (std::size_t n_sv : {1u, 2u, 3u}) {
    std::vector<std::string> row{std::to_string(n_sv)};
    for (std::size_t n_st : {1u, 2u, 3u}) {
      WorkloadResult sum;
      for (std::uint64_t seed : {11u, 29u, 47u, 83u, 131u, 7u, 19u, 37u, 61u, 97u}) {
        auto r = run(n_sv, n_st, seed);
        sum.attempted += r.attempted;
        sum.committed += r.committed;
      }
      row.push_back(core::Table::fmt_pct(sum.availability()));
    }
    table.add_row(std::move(row));
  }
  table.print("availability (rows: |Sv'|, cols: |St|)");
  std::printf("\nExpected shape: monotone improvement along BOTH axes; the (3,3)\n"
              "corner (the general case) dominates every special case — (1,1) is\n"
              "fig 2, the top row is fig 3, the left column is fig 4.\n");
  return 0;
}
