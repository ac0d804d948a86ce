// Experiment F8 (Figure 8): nested top-level actions.
//
// Functionally scheme S2 — same GetServer/Remove/Increment/Decrement
// protocol, same use lists — but the binding action is invoked from
// INSIDE the running client action, folding the separate action
// envelopes of fig 7 into one enclosing structure. We run the same
// workload as F7 and compare the two enhanced schemes directly.
#include "bench/scheme_common.h"

using namespace gv;
using namespace gv::bench;

int main(int argc, char** argv) {
  const ObsOptions obs = parse_obs(argc, argv);
  const std::string json_out = parse_json_out(argc, argv);
  BenchJson json("fig8");
  std::printf("F8 / Figure 8: nested top-level actions (scheme S3) vs S2\n");
  std::printf("30 txns per client, 5 seeds; Sv={2,3,4,5}, servers 2,3 dead all run\n");
  core::Table table({"clients", "S3 availability", "S3 stale probes", "S3 latency (ms)",
                     "S2 latency (ms)"});
  for (int clients : {1, 2, 4, 6}) {
    SchemeMetrics s3_sum;
    Summary s3_latency, s2_latency;
    for (auto seed : seeds()) {
      auto m3 = run_scheme_workload(naming::Scheme::NestedTopLevel, clients, seed, &s3_latency,
                                    2, &obs,
                                    "f8_c" + std::to_string(clients) + "_s" +
                                        std::to_string(seed));
      s3_sum.wl.attempted += m3.wl.attempted;
      s3_sum.wl.committed += m3.wl.committed;
      s3_sum.stale_probes += m3.stale_probes;
      (void)run_scheme_workload(naming::Scheme::IndependentTopLevel, clients, seed,
                                &s2_latency);
    }
    table.add_row({std::to_string(clients), core::Table::fmt_pct(s3_sum.wl.availability()),
                   std::to_string(s3_sum.stale_probes), core::Table::fmt(s3_latency.mean()),
                   core::Table::fmt(s2_latency.mean())});
    json.add_summary("churn_c" + std::to_string(clients), s3_latency);
  }
  table.print("scheme S3 vs S2 under churn");
  std::printf("\nExpected shape: S3 matches S2 on every repair metric — the paper\n"
              "presents them as the SAME database protocol in different action\n"
              "structures. In this implementation both bind lazily at first use,\n"
              "so under a deterministic simulator the runs are bit-identical:\n"
              "functional equivalence measured as exact equality.\n");

  // Sec 6: multi-object workload with and without the group-view cache
  // (same comparison as F7, under S3's enclosing action structure).
  core::Table mo({"view cache", "availability", "median (ms)", "p99 (ms)"});
  Summary lat_off, lat_on;
  WorkloadResult wl_off, wl_on;
  for (auto seed : seeds()) {
    auto r0 = run_multiobject_workload(naming::Scheme::NestedTopLevel, false, seed, &lat_off);
    wl_off.attempted += r0.attempted;
    wl_off.committed += r0.committed;
    auto r1 = run_multiobject_workload(naming::Scheme::NestedTopLevel, true, seed, &lat_on);
    wl_on.attempted += r1.attempted;
    wl_on.committed += r1.committed;
  }
  mo.add_row({"off", core::Table::fmt_pct(wl_off.availability()),
              core::Table::fmt(lat_off.percentile(50)), core::Table::fmt(lat_off.percentile(99))});
  mo.add_row({"on", core::Table::fmt_pct(wl_on.availability()),
              core::Table::fmt(lat_on.percentile(50)), core::Table::fmt(lat_on.percentile(99))});
  mo.print("4-object transactions, fault-free");
  json.add_summary("multiobj_uncached", lat_off);
  json.add_summary("multiobj_cached", lat_on);
  json.add_scalar("multiobj_uncached_availability", wl_off.availability());
  json.add_scalar("multiobj_cached_availability", wl_on.availability());
  if (!json_out.empty() && !json.write(json_out))
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  return 0;
}
