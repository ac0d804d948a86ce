// Experiment F1 (Figure 1): replica divergence when group communication
// lacks reliability/ordering guarantees.
//
// Scenario from the paper: replica group GA = {A1, A2} (EventLog state
// machines) receives replies from an invoked object B. If the reply is
// delivered unreliably and B "fails during delivery", a subset of GA sees
// the reply and the replicas diverge. With reliable, totally-ordered
// multicast the delivery is all-or-nothing and in identical order, so
// divergence is impossible.
//
// We sweep the per-copy loss probability and measure the fraction of
// rounds after which A1 and A2 checksums differ, under
//   (a) unreliable multicast of the reply,
//   (b) reliable+ordered multicast (the paper's requirement).
#include "bench/common.h"
#include "replication/state_machine.h"
#include "rpc/group_comm.h"

using namespace gv;

namespace {

struct Divergence {
  int rounds = 0;
  int diverged = 0;
};

Divergence run(double loss_prob, rpc::McastMode mode, std::uint64_t seed, int rounds) {
  sim::Simulator simu{seed};
  sim::Cluster cluster{simu};
  cluster.add_nodes(4);  // 0 = B, 1 = A1, 2 = A2, 3 = unused
  sim::Network net{simu, cluster};
  net.config().loss_prob = loss_prob;
  rpc::GroupComm gc{simu, cluster, net};

  replication::EventLog a1, a2;
  const Uid ga{0, 1};  // the client group GA
  gc.create_group(ga, {1, 2});
  bool modified;
  gc.join(ga, 1, [&a1, &modified](sim::NodeId, std::uint64_t, Buffer msg) {
    (void)a1.apply("append", std::move(msg), modified);
  });
  gc.join(ga, 2, [&a2, &modified](sim::NodeId, std::uint64_t, Buffer msg) {
    (void)a2.apply("append", std::move(msg), modified);
  });

  Divergence out;
  for (int round = 0; round < rounds; ++round) {
    // B multicasts its reply to the client group GA. (The paper's B then
    // fails; with unreliable delivery some copies are simply lost, which
    // is observationally the same hazard.)
    Buffer reply;
    reply.pack_string("reply-" + std::to_string(round));
    gc.multicast(0, ga, std::move(reply), mode);
    simu.run();
    ++out.rounds;
    if (a1.checksum() != a2.checksum()) {
      ++out.diverged;
      // Re-sync so each round measures one delivery independently.
      (void)a2.restore(a1.snapshot());
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("F1 / Figure 1: replica divergence vs reply-loss probability\n");
  std::printf("group GA = 2 EventLog replicas; 200 reply deliveries per cell, 5 seeds\n");
  core::Table table({"loss prob", "unreliable: diverged", "reliable+ordered: diverged"});
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    int unrel = 0, rel = 0, rounds = 0;
    for (auto seed : bench::seeds()) {
      auto u = run(loss, rpc::McastMode::Unreliable, seed, 200);
      auto r = run(loss, rpc::McastMode::ReliableOrdered, seed, 200);
      unrel += u.diverged;
      rel += r.diverged;
      rounds += u.rounds;
    }
    table.add_row({core::Table::fmt(loss, 2),
                   core::Table::fmt_pct(static_cast<double>(unrel) / rounds),
                   core::Table::fmt_pct(static_cast<double>(rel) / rounds)});
  }
  table.print("divergence rate");
  std::printf("\nExpected shape: divergence grows with loss under unreliable delivery\n"
              "and is identically ZERO under reliable totally-ordered multicast.\n");
  return 0;
}
