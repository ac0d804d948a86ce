// Availability demo: sweep the degree of replication on both axes and
// measure the fraction of transactions that commit under node churn —
// a live rendition of the fig 2-5 regimes.
//
//   ./examples/availability_demo
#include <cstdio>

#include "core/nemesis.h"
#include "core/metrics.h"
#include "core/system.h"

using namespace gv;
using core::LockMode;
using core::ReplicationPolicy;

namespace {

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

struct Outcome {
  int committed = 0;
  int attempted = 0;
};

Outcome run_config(std::size_t n_servers, std::size_t n_stores, ReplicationPolicy policy,
                   std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.nodes = 12;
  cfg.seed = seed;
  core::ReplicaSystem sys{cfg};

  std::vector<sim::NodeId> sv, st, victims;
  for (std::size_t i = 0; i < n_servers; ++i) sv.push_back(static_cast<sim::NodeId>(2 + i));
  for (std::size_t i = 0; i < n_stores; ++i) st.push_back(static_cast<sim::NodeId>(6 + i));
  victims.insert(victims.end(), sv.begin(), sv.end());
  victims.insert(victims.end(), st.begin(), st.end());

  const Uid obj = sys.define_object("obj", "counter", replication::Counter{}.snapshot(), sv, st,
                                    policy, n_servers);

  core::CrashNemesis chaos{sys.sim(), sys.cluster(),
                           core::CrashNemesisConfig{.mean_uptime = 1500 * sim::kMillisecond,
                                                    .mean_downtime = 600 * sim::kMillisecond,
                                                    .victims = victims}};
  chaos.start();

  auto* client = sys.client(1);
  Outcome out;
  sys.sim().spawn([](core::ClientSession* client, Uid obj, Outcome& out) -> sim::Task<> {
    for (int i = 0; i < 60; ++i) {
      ++out.attempted;
      auto txn = client->begin();
      auto r = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
      if (!r.ok()) {
        (void)co_await txn->abort();
      } else if ((co_await txn->commit()).ok()) {
        ++out.committed;
      }
      co_await client->runtime().endpoint().node().sim().sleep(30 * sim::kMillisecond);
    }
  }(client, obj, out));
  sys.sim().run_until(120 * sim::kSecond);
  chaos.stop();
  return out;
}

}  // namespace

int main() {
  std::printf("Availability under churn (60 txns, crash/recover cycling on Sv+St nodes)\n");
  core::Table table({"|Sv|", "|St|", "policy", "committed", "availability"});
  struct Row {
    std::size_t sv, st;
    ReplicationPolicy policy;
  };
  const Row rows[] = {
      {1, 1, ReplicationPolicy::SingleCopyPassive},  // fig 2
      {1, 3, ReplicationPolicy::SingleCopyPassive},  // fig 3
      {3, 1, ReplicationPolicy::Active},             // fig 4
      {3, 3, ReplicationPolicy::Active},             // fig 5
  };
  for (const Row& r : rows) {
    Outcome sum;
    for (std::uint64_t seed : {101u, 202u, 303u}) {
      Outcome o = run_config(r.sv, r.st, r.policy, seed);
      sum.committed += o.committed;
      sum.attempted += o.attempted;
    }
    table.add_row({std::to_string(r.sv), std::to_string(r.st),
                   replication::to_string(r.policy), std::to_string(sum.committed),
                   core::Table::fmt_pct(static_cast<double>(sum.committed) /
                                        std::max(1, sum.attempted))});
  }
  table.print("availability vs replication degree");
  std::printf("\nExpected shape: availability rises on either axis; the general\n"
              "case (|Sv|>1 and |St|>1) dominates both special cases.\n");
  return 0;
}
