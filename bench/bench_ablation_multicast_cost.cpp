// Ablation A3 (sec 2.3): what the reliability/ordering guarantees cost.
//
// The paper requires reliable, totally-ordered delivery for replica
// groups but notes such guarantees are "not associated with
// non-replicated systems". We measure what the sequencer-based ordered
// multicast costs relative to raw unreliable datagram fan-out, as a
// function of group size: delivery latency (send -> last functioning
// member delivers, in-order for the reliable mode) and delivered-copy
// ratio under 5% loss.
#include "bench/common.h"
#include "rpc/group_comm.h"

using namespace gv;
using namespace gv::bench;

namespace {

constexpr Uid kGroup{0, 1};  // the multicast group

struct McastStats {
  Summary latency_ms;       // send -> delivery, per delivered copy
  std::uint64_t sent = 0;   // messages multicast
  std::uint64_t delivered = 0;
};

McastStats run(std::size_t group_size, rpc::McastMode mode, std::uint64_t seed) {
  sim::Simulator simu{seed};
  sim::Cluster cluster{simu};
  cluster.add_nodes(group_size + 1);
  sim::Network net{simu, cluster};
  net.config().loss_prob = 0.05;
  rpc::GroupComm gc{simu, cluster, net};

  std::vector<sim::NodeId> members;
  for (std::size_t i = 1; i <= group_size; ++i) members.push_back(static_cast<sim::NodeId>(i));
  gc.create_group(kGroup, members);

  McastStats stats;
  for (sim::NodeId m : members) {
    gc.join(kGroup, m, [&stats, &simu](sim::NodeId, std::uint64_t, Buffer msg) {
      auto sent_at = msg.unpack_u64();
      if (sent_at.ok())
        stats.latency_ms.add(static_cast<double>(simu.now() - sent_at.value()) /
                             sim::kMillisecond);
      ++stats.delivered;
    });
  }

  simu.spawn([](sim::Simulator& simu, rpc::GroupComm& gc, rpc::McastMode mode,
                McastStats& stats) -> sim::Task<> {
    for (int i = 0; i < 300; ++i) {
      Buffer msg;
      msg.pack_u64(simu.now());
      gc.multicast(0, kGroup, std::move(msg), mode);
      ++stats.sent;
      co_await simu.sleep(2 * sim::kMillisecond);
    }
  }(simu, gc, mode, stats));
  simu.run();
  return stats;
}

}  // namespace

int main() {
  std::printf("A3 / sec 2.3 ablation: ordered-reliable multicast cost vs group size\n");
  std::printf("300 multicasts per run, 5 seeds, 5%% per-copy loss in unreliable mode\n");
  core::Table table({"group size", "unrel: deliver ratio", "unrel: latency (ms)",
                     "ordered: deliver ratio", "ordered: latency (ms)"});
  for (std::size_t g : {2u, 3u, 5u, 8u}) {
    McastStats u_sum, r_sum;
    Summary u_lat, r_lat;
    for (auto seed : seeds()) {
      auto u = run(g, rpc::McastMode::Unreliable, seed);
      u_sum.sent += u.sent;
      u_sum.delivered += u.delivered;
      if (u.latency_ms.count()) u_lat.add(u.latency_ms.mean());
      auto r = run(g, rpc::McastMode::ReliableOrdered, seed);
      r_sum.sent += r.sent;
      r_sum.delivered += r.delivered;
      if (r.latency_ms.count()) r_lat.add(r.latency_ms.mean());
    }
    auto ratio = [g](const McastStats& s) {
      return s.sent == 0 ? 0.0
                         : static_cast<double>(s.delivered) /
                               (static_cast<double>(s.sent) * static_cast<double>(g));
    };
    table.add_row({std::to_string(g), core::Table::fmt_pct(ratio(u_sum)),
                   core::Table::fmt(u_lat.mean()), core::Table::fmt_pct(ratio(r_sum)),
                   core::Table::fmt(r_lat.mean())});
  }
  table.print("delivery guarantees: cost and coverage");
  std::printf("\nExpected shape: unreliable delivery loses ~5%% of copies at any group\n"
              "size; the ordered mode delivers 100%% to functioning members at a\n"
              "modest latency premium (sequencing + in-order hold-back).\n");
  return 0;
}
