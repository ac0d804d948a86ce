// Ablation A1 (sec 4.2.1): the type-specific EXCLUDE-WRITE lock vs plain
// read->write promotion — measured directly at the Object State database,
// exactly the case the paper describes:
//
//   "if an object is being shared between several clients, several read
//    locks would be held on to the list for the object, and a lock
//    promotion request by a client would be refused."
//
// R reader actions hold GetView read locks on the object's St entry (as
// bound clients do for the lifetime of their actions). A committing
// client that must Exclude a failed store promotes its own read lock.
// We sweep R and measure the promotion refusal rate under both policies.
#include "actions/atomic_action.h"
#include "bench/common.h"
#include "naming/group_view_db.h"

using namespace gv;
using namespace gv::bench;
using actions::AtomicAction;

namespace {

struct CellResult {
  int attempts = 0;
  int refused = 0;
};

CellResult run(int readers, naming::ExcludePolicy policy, std::uint64_t seed) {
  sim::Simulator simu{seed};
  sim::Cluster cluster{simu};
  cluster.add_nodes(4);
  sim::Network net{simu, cluster};
  rpc::RpcFabric fabric{cluster, net};
  actions::TxnRegistry txns{fabric.endpoint(0)};
  store::ObjectStore store0{cluster.node(0), fabric.endpoint(0)};
  naming::GroupViewDb gvdb{cluster.node(0), store0, fabric.endpoint(0), txns,
                           naming::NamingConfig{}, policy};
  const Uid obj{0xAB, 1};
  gvdb.create_object(obj, {2}, {2, 3});

  actions::ActionRuntime reader_rt{fabric.endpoint(1), 0x0AA};
  actions::ActionRuntime writer_rt{fabric.endpoint(2), 0x0BB};

  CellResult out;
  simu.spawn([](sim::Simulator& simu, actions::ActionRuntime& reader_rt,
                actions::ActionRuntime& writer_rt, Uid obj, int readers,
                CellResult& out) -> sim::Task<> {
    for (int round = 0; round < 40; ++round) {
      // Readers bind: each holds a GetView read lock for its action.
      std::vector<std::unique_ptr<AtomicAction>> reader_actions;
      for (int r = 0; r < readers; ++r) {
        reader_actions.push_back(std::make_unique<AtomicAction>(reader_rt));
        (void)co_await naming::ostdb_get_view(reader_rt.endpoint(), 0, obj,
                                              reader_actions.back()->uid());
        reader_actions.back()->enlist({0, naming::kGvdbService});
      }

      // The committing client: GetView (read), then Exclude (promotion).
      AtomicAction writer{writer_rt};
      (void)co_await naming::ostdb_get_view(writer_rt.endpoint(), 0, obj, writer.uid());
      writer.enlist({0, naming::kGvdbService});
      std::vector<naming::ExcludeItem> drop{{obj, {3}}};
      ++out.attempts;
      Status ex = co_await naming::ostdb_exclude(writer_rt.endpoint(), 0, drop, writer.uid());
      if (ex.ok()) {
        (void)co_await writer.abort();  // keep St intact for the next round
      } else {
        ++out.refused;
        (void)co_await writer.abort();
      }
      for (auto& ra : reader_actions) (void)co_await ra->commit();
      co_await simu.sleep(sim::kMillisecond);
    }
  }(simu, reader_rt, writer_rt, obj, readers, out));
  simu.run();
  return out;
}

}  // namespace

int main() {
  std::printf("A1 / sec 4.2.1 ablation: exclude-write lock vs plain write promotion\n");
  std::printf("40 Exclude attempts per cell while R readers hold the St entry, 5 seeds\n");
  core::Table table(
      {"concurrent readers", "plain-write: refused", "exclude-write: refused"});
  for (int readers : {0, 1, 2, 4, 8}) {
    CellResult plain_sum, ew_sum;
    for (auto seed : seeds()) {
      auto p = run(readers, naming::ExcludePolicy::PromoteToWrite, seed);
      plain_sum.attempts += p.attempts;
      plain_sum.refused += p.refused;
      auto e = run(readers, naming::ExcludePolicy::ExcludeWriteLock, seed);
      ew_sum.attempts += e.attempts;
      ew_sum.refused += e.refused;
    }
    auto rate = [](const CellResult& c) {
      return c.attempts == 0 ? 0.0 : static_cast<double>(c.refused) / c.attempts;
    };
    table.add_row({std::to_string(readers), core::Table::fmt_pct(rate(plain_sum)),
                   core::Table::fmt_pct(rate(ew_sum))});
  }
  table.print("Exclude promotion refusal rate vs reader sharing");
  std::printf("\nExpected shape: plain write promotion is refused whenever at least\n"
              "one reader shares the entry (the paper's abort case); the\n"
              "exclude-write lock is granted at ANY reader count.\n");
  return 0;
}
