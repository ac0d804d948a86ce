// Network-partition behaviour. The paper's protocols assume crash-stop
// failures ("in the absence of network partitions preventing
// communication", sec 2.3); these tests pin down what our implementation
// guarantees when partitions DO happen: safety is never lost — an
// unreachable store is Excluded exactly like a crashed one, and nobody
// can read a stale state through the naming service — only availability
// suffers.
#include <gtest/gtest.h>

#include "core/system.h"

namespace gv::core {
namespace {

using replication::Counter;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

struct Sys {
  ReplicaSystem sys;
  explicit Sys(SystemConfig cfg = {}) : sys(cfg) {}
  template <typename F>
  void run(F&& body) {
    sys.sim().spawn(std::forward<F>(body));
    sys.sim().run();
  }
};

TEST(Partition, ClientCutOffFromNamingCannotBind) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {3},
                                ReplicationPolicy::SingleCopyPassive, 1);
  s.sys.net().partition({1}, {0, 2, 3});
  auto* client = s.sys.client(1);
  Err got = Err::None;
  s.run([](ClientSession* client, Uid obj, Err& got) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    got = r.error();
    (void)co_await txn->abort();
  }(client, obj, got));
  EXPECT_EQ(got, Err::Timeout);  // GetView to the naming node never answers
}

TEST(Partition, UnreachableStoreExcludedLikeACrashedOne) {
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ReplicaSystem& sys, ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    // Cut store node 4 off from everyone just before commit: the copy
    // fails, the store is Excluded, the action still commits.
    sys.net().partition({4}, {0, 1, 2, 3, 5, 6, 7});
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, obj));
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));
  // Node 4 is alive but holds a stale v1; because it is out of St no
  // client can be routed to it — safety holds, availability degraded.
  EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 1u);
  EXPECT_EQ(s.sys.store_at(3).read(obj).value().version, 2u);
}

TEST(Partition, HealedStoreStaysExcludedUntilRecoveryProtocolRuns) {
  // A partition (unlike a crash) does not trigger the recovery daemon,
  // so the store stays out of St after the heal — conservative but safe.
  // An explicit repair pass (operator action) re-Includes it.
  Sys s{SystemConfig{.nodes = 8}};
  Uid obj = s.sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  s.run([](ReplicaSystem& sys, ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    sys.net().partition({4}, {0, 1, 2, 3, 5, 6, 7});
    (void)co_await txn->commit();
    sys.net().heal();
  }(s.sys, client, obj));
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));

  // Operator-triggered repair: mark local objects suspect and run the
  // daemon's pass by cycling the node (the supported repair entry point).
  s.sys.cluster().node(4).crash();
  s.sys.cluster().node(4).recover();
  s.sys.sim().run();
  auto st = s.sys.gvdb().states().peek(obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));
  EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 2u);
}

TEST(Partition, ViewProbeReIncludesHealedStoreWithoutCrashCycle) {
  // The DESIGN.md sec 8 liveness gap, closed: with the view probe armed,
  // a store that was Excluded while partitioned (it never crashed, so the
  // recovery hook never fires) notices its own absence from St after the
  // heal, demotes the object to SUSPECT, refreshes from a current member
  // and re-Includes itself — no operator-driven crash/recovery cycle.
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.start_view_probe = true;
  Sys s{cfg};
  Uid obj = s.sys.define_object("o", "counter", Counter{}.snapshot(), {2}, {3, 4},
                                ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = s.sys.client(1);
  const std::uint64_t crashes_before = s.sys.cluster().node(4).crash_count();

  s.sys.sim().spawn([](ReplicaSystem& sys, ClientSession* client, Uid obj) -> sim::Task<> {
    auto txn = client->begin();
    (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    sys.net().partition({4}, {0, 1, 2, 3, 5, 6, 7});
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, obj));
  s.sys.sim().run_until(1 * sim::kSecond);
  // Excluded during the partition, and the probe cannot fix anything
  // while the naming node is unreachable.
  EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));

  s.sys.net().heal();
  s.sys.sim().run_until(4 * sim::kSecond);

  auto st = s.sys.gvdb().states().peek(obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));
  EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 2u);
  // The whole point: no crash/recovery cycle was needed.
  EXPECT_EQ(s.sys.cluster().node(4).crash_count(), crashes_before);
  EXPECT_GE(s.sys.recovery_at(4).counters().get("recovery.probe_demoted"), 1u);
}

// The probe reads St for every object of its store in one naming call
// per pass, so the calls follow the passes, not the objects.
TEST(Partition, ViewProbeAsksNamingOncePerPass) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.start_view_probe = true;
  Sys s{cfg};
  constexpr std::size_t kObjects = 8;
  std::vector<Uid> objs;
  for (std::size_t i = 0; i < kObjects; ++i)
    objs.push_back(s.sys.define_object("o" + std::to_string(i), "counter",
                                       Counter{}.snapshot(), {2}, {3, 4},
                                       ReplicationPolicy::SingleCopyPassive, 1));
  auto* client = s.sys.client(1);
  s.sys.sim().spawn([](ReplicaSystem& sys, ClientSession* client,
                       std::vector<Uid> objs) -> sim::Task<> {
    auto txn = client->begin();
    for (const Uid& obj : objs) (void)co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    sys.net().partition({4}, {0, 1, 2, 3, 5, 6, 7});
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, objs));
  s.sys.sim().run_until(1 * sim::kSecond);
  for (const Uid& obj : objs)
    EXPECT_EQ(s.sys.gvdb().states().peek(obj), (std::vector<sim::NodeId>{3}));

  s.sys.net().heal();
  constexpr sim::SimTime kHorizon = 4 * sim::kSecond;
  s.sys.sim().run_until(kHorizon);
  for (const Uid& obj : objs) {
    auto st = s.sys.gvdb().states().peek(obj);
    std::sort(st.begin(), st.end());
    EXPECT_EQ(st, (std::vector<sim::NodeId>{3, 4}));
    EXPECT_EQ(s.sys.store_at(4).read(obj).value().version, 2u);
  }
  // Stores 3 and 4 probe; each pass starts a period after the last one
  // ended. Nothing else calls get_views: the view cache is off.
  constexpr std::uint64_t kMaxPasses = kHorizon / replication::RecoveryDaemon::kViewProbePeriod;
  const auto& latencies = s.sys.metrics().histograms();
  const auto get_views = latencies.find("rpc.gvdb.get_views_us");
  const std::uint64_t calls = get_views == latencies.end() ? 0 : get_views->second.count();
  EXPECT_GE(calls, 2 * (kMaxPasses - 2));
  EXPECT_LE(calls, 2 * kMaxPasses);

  // Once every store is back in St only the probes call anyone: over a
  // quiet window, all RPCs together still follow the passes.
  auto all_calls = [&latencies] {
    std::uint64_t n = 0;
    for (const auto& [name, h] : latencies)
      if (name.rfind("rpc.", 0) == 0) n += h.count();
    return n;
  };
  const std::uint64_t before = all_calls();
  s.sys.sim().run_until(2 * kHorizon);
  EXPECT_LE(all_calls() - before, 2 * kMaxPasses);
}

TEST(Partition, MinorityServerReplicaDroppedMajorityContinues) {
  Sys s{SystemConfig{.nodes = 9}};
  Uid obj = s.sys.define_object("o", "counter", Counter{}.snapshot(), {2, 3, 4}, {6},
                                ReplicationPolicy::Active, 3);
  auto* client = s.sys.client(1);
  std::int64_t final_value = -1;
  s.run([](ReplicaSystem& sys, ClientSession* client, Uid obj,
           std::int64_t& final_value) -> sim::Task<> {
    auto txn = client->begin();
    EXPECT_TRUE((co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write)).ok());
    // Replica 4 loses point-to-point contact with everyone. The group
    // communication service (modelled as an oracle, like a virtual
    // synchrony layer with its own channels) still delivers to it, but
    // its replies and 2PC traffic are cut: the client masks it via the
    // other replicas and the commit processor delists it.
    sys.net().partition({4}, {0, 1, 2, 3, 5, 6, 7, 8});
    auto r = co_await txn->invoke(obj, "add", i64_buf(1), LockMode::Write);
    EXPECT_TRUE(r.ok());
    if (r.ok()) final_value = r.value().unpack_i64().value();
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(s.sys, client, obj, final_value));
  EXPECT_EQ(final_value, 2);
  EXPECT_EQ(s.sys.store_at(6).read(obj).value().version, 2u);
}

}  // namespace
}  // namespace gv::core
