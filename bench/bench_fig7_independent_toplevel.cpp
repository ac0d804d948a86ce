// Experiment F7 (Figure 7): independent top-level actions.
//
// Binding runs in its own top-level action, one osdb.bind call at the
// naming node that reads Sv with its use lists, Removes the servers a
// previous probe found dead, Increments use counters and commits. One
// Decrement call, with no action of its own, follows the client action.
// Sv stays current — at the cost of write locks on the database entry.
#include "bench/scheme_common.h"

using namespace gv;
using namespace gv::bench;

int main(int argc, char** argv) {
  const ObsOptions obs = parse_obs(argc, argv);
  const std::string json_out = parse_json_out(argc, argv);
  BenchJson json("fig7");
  std::printf("F7 / Figure 7: independent top-level actions (scheme S2)\n");
  std::printf("30 txns per client, 5 seeds; Sv={2,3,4,5}, servers 2,3 dead all run\n");
  core::Table table({"clients", "availability", "stale probes", "Removes", "txn latency (ms)",
                     "Sv write-lock conflicts", "top-level actions"});
  for (int clients : {1, 2, 4, 6}) {
    SchemeMetrics sum;
    Summary latency;
    for (auto seed : seeds()) {
      auto m =
          run_scheme_workload(naming::Scheme::IndependentTopLevel, clients, seed, &latency, 2,
                              &obs,
                              "f7_c" + std::to_string(clients) + "_s" + std::to_string(seed));
      sum.wl.attempted += m.wl.attempted;
      sum.wl.committed += m.wl.committed;
      sum.stale_probes += m.stale_probes;
      sum.removes += m.removes;
      sum.db_lock_conflicts += m.db_lock_conflicts;
      sum.top_level_actions += m.top_level_actions;
    }
    table.add_row({std::to_string(clients), core::Table::fmt_pct(sum.wl.availability()),
                   std::to_string(sum.stale_probes), std::to_string(sum.removes),
                   core::Table::fmt(latency.mean()), std::to_string(sum.db_lock_conflicts),
                   std::to_string(sum.top_level_actions)});
    json.add_summary("churn_c" + std::to_string(clients), latency);
  }
  table.print("scheme S2 under churn");
  std::printf("\nExpected shape: stale probes stay LOW and roughly flat in client\n"
              "count (first discoverer Removes the dead server; later clients see a\n"
              "current Sv); the price is Sv write-lock contention growing with\n"
              "clients and 2 top-level actions per transaction (bind, client;\n"
              "the Decrement needs none).\n");

  // Sec 6: the multi-object workload the group-view cache targets. Every
  // transaction binds 4 objects; uncached S2 pays per-object GetView +
  // use-list calls, the cache pays one warm lookup per object and one
  // batched validate per commit.
  core::Table mo({"view cache", "availability", "median (ms)", "p99 (ms)"});
  Summary lat_off, lat_on;
  WorkloadResult wl_off, wl_on;
  for (auto seed : seeds()) {
    auto r0 = run_multiobject_workload(naming::Scheme::IndependentTopLevel, false, seed,
                                       &lat_off);
    wl_off.attempted += r0.attempted;
    wl_off.committed += r0.committed;
    auto r1 = run_multiobject_workload(naming::Scheme::IndependentTopLevel, true, seed,
                                       &lat_on);
    wl_on.attempted += r1.attempted;
    wl_on.committed += r1.committed;
  }
  mo.add_row({"off", core::Table::fmt_pct(wl_off.availability()),
              core::Table::fmt(lat_off.percentile(50)), core::Table::fmt(lat_off.percentile(99))});
  mo.add_row({"on", core::Table::fmt_pct(wl_on.availability()),
              core::Table::fmt(lat_on.percentile(50)), core::Table::fmt(lat_on.percentile(99))});
  mo.print("4-object transactions, fault-free");
  std::printf("\nExpected shape: the cached median is lower: four osdb.bind\n"
              "calls and a Decrement become zero naming RPCs at bind plus ONE\n"
              "batched epoch validate at commit.\n");
  json.add_summary("multiobj_uncached", lat_off);
  json.add_summary("multiobj_cached", lat_on);
  json.add_scalar("multiobj_uncached_availability", wl_off.availability());
  json.add_scalar("multiobj_cached_availability", wl_on.availability());
  if (!json_out.empty() && !json.write(json_out))
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  return 0;
}
