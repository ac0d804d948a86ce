// Tests for the binder strategies in isolation (scripted probes, no
// object servers): the exact database traffic each scheme of sec 4.1
// generates, and the paper's rules for joining an already-active group.
#include <gtest/gtest.h>

#include <set>

#include "actions/atomic_action.h"
#include "naming/binder.h"
#include "naming/group_view_db.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace gv::naming {
namespace {

using actions::ActionRuntime;
using actions::AtomicAction;

struct Fixture {
  sim::Simulator sim{71};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::unique_ptr<actions::TxnRegistry> txns;
  std::unique_ptr<store::ObjectStore> store0;
  std::unique_ptr<GroupViewDb> gvdb;
  std::unique_ptr<ActionRuntime> rt;
  Uid obj{300, 1};

  // Probe script: nodes in `dead` fail the probe.
  std::set<NodeId> dead;
  int probes = 0;

  Fixture() {
    cluster.add_nodes(8);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    txns = std::make_unique<actions::TxnRegistry>(fabric->endpoint(0));
    store0 = std::make_unique<store::ObjectStore>(cluster.node(0), fabric->endpoint(0));
    gvdb = std::make_unique<GroupViewDb>(cluster.node(0), *store0, fabric->endpoint(0), *txns);
    rt = std::make_unique<ActionRuntime>(fabric->endpoint(1), 0xB1D);
    gvdb->create_object(obj, {2, 3, 4}, {2, 3, 4});
  }

  Binder::Probe probe() {
    return [this](NodeId node) -> sim::Task<ProbeResult> {
      ++probes;
      co_await sim.sleep(sim::kMillisecond);
      co_return dead.count(node) == 0 ? ProbeResult::Ok : ProbeResult::Dead;
    };
  }

  template <typename F>
  void run(F&& body) {
    sim.spawn(std::forward<F>(body));
    sim.run();
  }

  // Drop every datagram from `from` to `to` for the next `span`.
  void drop_for(NodeId from, NodeId to, sim::SimTime span) {
    net.set_reachable(from, to, false);
    sim.spawn([](sim::Network& net, sim::Simulator& sim, NodeId from, NodeId to,
                 sim::SimTime span) -> sim::Task<> {
      co_await sim.sleep(span);
      net.set_reachable(from, to, true);
    }(net, sim, from, to, span));
  }

  // Live bindings of `client` on obj's use lists, summed over servers.
  std::uint32_t uses_of(NodeId client) {
    std::uint32_t n = 0;
    auto v = gvdb->servers().peek_view(obj);
    if (v.ok())
      for (const UseEntry& u : v.value().use)
        if (u.client == client) n += u.count;
    return n;
  }

  bool entry_unlocked() { return gvdb->servers().locks().holder_count("sv:" + obj.to_string()) == 0; }
};

TEST(BinderS1, BindsFirstKInSvOrder) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::StandardNested};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 2, &client, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(r.value().servers, (std::vector<NodeId>{2, 3}));
    (void)co_await client.commit();
  }(f, binder));
  EXPECT_EQ(f.probes, 2);
}

TEST(BinderS1, RequiresClientAction) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::StandardNested};
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& got) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 1, nullptr, f.probe());
    got = r.error();
  }(f, binder, got));
  EXPECT_EQ(got, Err::BadRequest);
}

TEST(BinderS1, DeadServerDiscoveredTheHardWayAndNotRemoved) {
  Fixture f;
  f.dead = {2};
  Binder binder{*f.rt, 0, Scheme::StandardNested};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 2, &client, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value().servers, (std::vector<NodeId>{3, 4}));
      EXPECT_EQ(r.value().failed, (std::vector<NodeId>{2}));
    }
    (void)co_await client.commit();
    // A second client pays the same price: Sv is static under S1.
    AtomicAction client2{*f.rt};
    auto r2 = co_await binder.bind(f.obj, 2, &client2, f.probe());
    EXPECT_TRUE(r2.ok());
    if (r2.ok()) EXPECT_EQ(r2.value().failed, (std::vector<NodeId>{2}));
    (void)co_await client2.commit();
  }(f, binder));
  EXPECT_EQ(binder.counters().get("bind.hard_way_failure"), 2u);
  // Sv unchanged in the database.
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction peek{*f.rt};
    auto v = co_await osdb_get_server(f.rt->endpoint(), 0, f.obj, peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_EQ(v.value().sv.size(), 3u);
    peek.enlist({0, kOsdbService});
    (void)co_await peek.commit();
  }(f));
}

TEST(BinderS2, RemovesDeadServersAndIncrementsUseLists) {
  Fixture f;
  f.dead = {2};
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(r.value().servers, (std::vector<NodeId>{3, 4}));
  }(f, binder));
  // The database now reflects the repair and the usage.
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction peek{*f.rt};
    auto v = co_await osdb_get_server(f.rt->endpoint(), 0, f.obj, peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{3, 4}));  // 2 Removed
      EXPECT_TRUE(v.value().in_use(3));
      EXPECT_TRUE(v.value().in_use(4));
    }
    peek.enlist({0, kOsdbService});
    (void)co_await peek.commit();
  }(f));
}

TEST(BinderS2, SecondClientJoinsActiveGroupOnly) {
  // Sec 4.1.3(i): with non-empty use lists, a client binds only to the
  // servers with non-zero counters — NOT to other Sv members.
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto first = co_await binder.bind(f.obj, 1, nullptr, f.probe());
    EXPECT_TRUE(first.ok());
    if (first.ok()) EXPECT_EQ(first.value().servers, (std::vector<NodeId>{2}));
    // Second client wants 2 servers but must join the active set {2}.
    auto second = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    EXPECT_TRUE(second.ok());
    if (second.ok()) EXPECT_EQ(second.value().servers, (std::vector<NodeId>{2}));
  }(f, binder));
  EXPECT_GE(binder.counters().get("bind.join_active_group"), 1u);
}

TEST(BinderS2, UnbindDecrementsToQuiescence) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_TRUE((co_await binder.unbind(f.obj, r.value())).ok());
    // Quiescent again: a fresh client is free to select any subset.
    AtomicAction peek{*f.rt};
    auto v = co_await osdb_get_server(f.rt->endpoint(), 0, f.obj, peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_TRUE(v.value().quiescent());
    peek.enlist({0, kOsdbService});
    (void)co_await peek.commit();
  }(f, binder));
}

TEST(BinderS2, AllProbesFailStillCommitsRemoves) {
  Fixture f;
  f.dead = {2, 3, 4};
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& got) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    got = r.error();
  }(f, binder, got));
  EXPECT_EQ(got, Err::NoReplicas);
  // The Removes committed so the next client sees an empty (honest) Sv.
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction peek{*f.rt};
    auto v = co_await osdb_get_server(f.rt->endpoint(), 0, f.obj, peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_TRUE(v.value().sv.empty());
    peek.enlist({0, kOsdbService});
    (void)co_await peek.commit();
  }(f));
}

TEST(BinderS3, StructurallySameRepairsAsS2) {
  Fixture f;
  f.dead = {3};
  Binder binder{*f.rt, 0, Scheme::NestedTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    // S3: invoked from within a running client action.
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 2, &client, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value().servers, (std::vector<NodeId>{2, 4}));
      (void)co_await binder.unbind(f.obj, r.value());
    }
    (void)co_await client.commit();
  }(f, binder));
  EXPECT_EQ(binder.counters().get("bind.removed_failed_server"), 1u);
  EXPECT_EQ(binder.counters().get("bind.nested_toplevel_action"), 1u);
}

// ------------------------------------------- single-site binder actions

// A bind costs GetServer + Increment, an unbind one Decrement: no
// prepare, no phase 2, no client action around the Decrement.
TEST(BinderS2, BindIsTwoCallsAndUnbindOne) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r.value().token, (Uid{0xB1D, 1}));  // the bind action's UID
    EXPECT_EQ(f.net.counters().get("net.send"), 4u);
    EXPECT_EQ(f.uses_of(1), 2u);
    EXPECT_TRUE((co_await binder.unbind(f.obj, r.value())).ok());
    EXPECT_EQ(f.net.counters().get("net.send"), 6u);
    EXPECT_EQ(f.uses_of(1), 0u);
  }(f, binder));
  EXPECT_EQ(f.rt->counters().get("action.committed_single_site"), 1u);
  EXPECT_EQ(f.rt->counters().get("action.begin_top"), 1u);
  EXPECT_EQ(f.gvdb->servers().counters().get("db.commit"), 1u);
}

// The Increment's reply is lost; the resend finds the token and answers
// OK, leaving exactly one binding.
TEST(BinderS2, LostIncrementReplyIsResentAndLeavesOneToken) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    Binder::Probe probe = [&f](NodeId) -> sim::Task<ProbeResult> {
      f.drop_for(0, 1, 20 * sim::kMillisecond);  // the naming node's next reply
      co_return ProbeResult::Ok;
    };
    auto r = co_await binder.bind(f.obj, 1, nullptr, probe);
    EXPECT_TRUE(r.ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(binder.counters().get("bind.increment_resent"), 1u);
  EXPECT_EQ(f.gvdb->servers().counters().get("osdb.increment_resent"), 1u);
  EXPECT_TRUE(f.entry_unlocked());
}

// Every datagram duplicated: the duplicate Increment changes nothing.
TEST(BinderS2, DuplicatedIncrementLeavesOneToken) {
  Fixture f;
  f.net.config().dup_prob = 1.0;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 1, nullptr, f.probe());
    EXPECT_TRUE(r.ok());
  }(f, binder));
  EXPECT_GE(f.net.counters().get("net.duplicated"), 4u);
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.gvdb->servers().counters().get("osdb.increment"), 1u);
}

// The naming node restarts after the Increment committed and before its
// reply arrived: the resend reaches the new incarnation, which answers OK
// from the reloaded token.
TEST(BinderS2, NamingRestartAfterIncrementCommittedAnswersFromToken) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    Binder::Probe probe = [&f](NodeId) -> sim::Task<ProbeResult> {
      f.drop_for(0, 1, 20 * sim::kMillisecond);
      f.sim.spawn([](Fixture& f) -> sim::Task<> {
        co_await f.sim.sleep(10 * sim::kMillisecond);  // the Increment has committed
        f.cluster.node(0).crash();
        f.cluster.node(0).recover();
      }(f));
      co_return ProbeResult::Ok;
    };
    auto r = co_await binder.bind(f.obj, 1, nullptr, probe);
    EXPECT_TRUE(r.ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.gvdb->servers().counters().get("osdb.increment_resent"), 1u);
}

// The naming node restarts during the bind's probe: the new incarnation
// holds no bind action, so the Increment is refused and records nothing;
// a retried bind succeeds.
TEST(BinderS2, NamingRestartDuringProbeRefusesIncrement) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  Err first = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& first) -> sim::Task<> {
    Binder::Probe probe = [&f](NodeId) -> sim::Task<ProbeResult> {
      f.cluster.node(0).crash();
      f.cluster.node(0).recover();
      co_return ProbeResult::Ok;
    };
    auto r = co_await binder.bind(f.obj, 1, nullptr, probe);
    first = r.ok() ? Err::None : r.error();
    EXPECT_EQ(f.uses_of(1), 0u);
    auto again = co_await binder.bind(f.obj, 1, nullptr, f.probe());
    EXPECT_TRUE(again.ok());
  }(f, binder, first));
  EXPECT_EQ(first, Err::Aborted);
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.gvdb->servers().counters().get("osdb.increment_refused"), 1u);
  EXPECT_TRUE(f.entry_unlocked());
}

// An unbind whose reply is lost is resent; the resend finds no token and
// answers OK, and the count is 0.
TEST(BinderS2, UnbindResentAfterLostReplyLeavesZero) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await binder.bind(f.obj, 2, nullptr, f.probe());
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    f.drop_for(0, 1, 20 * sim::kMillisecond);
    EXPECT_EQ((co_await binder.unbind(f.obj, r.value())).error(), Err::Timeout);
    EXPECT_EQ(f.uses_of(1), 0u);  // it was applied; only the reply was lost
    EXPECT_TRUE((co_await binder.unbind(f.obj, r.value())).ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 0u);
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_EQ(f.gvdb->servers().counters().get("osdb.decrement_absent"), 1u);
}

// Every Increment is lost, so the bind gives up: it aborts its action,
// and an Increment that arrives late is refused and records nothing.
TEST(BinderS2, GivenUpBindRefusesLateIncrement) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  const sim::SimTime timeout = f.fabric->endpoint(1).config().call_timeout;
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, sim::SimTime timeout, Err& got) -> sim::Task<> {
    // Requests to the naming node are lost until the last Increment has
    // gone; the abort that follows gets through.
    Binder::Probe probe = [&f, timeout](NodeId) -> sim::Task<ProbeResult> {
      f.drop_for(1, 0, (Binder::kIncrementAttempts - 1) * timeout + timeout / 2);
      co_return ProbeResult::Ok;
    };
    auto r = co_await binder.bind(f.obj, 1, nullptr, probe);
    got = r.ok() ? Err::None : r.error();
    const Uid token{0xB1D, 1};  // the bind action: the runtime's first UID
    const std::vector<NodeId> two{2};
    EXPECT_EQ((co_await osdb_increment(f.rt->endpoint(), 0, f.obj, 1, two, token)).error(),
              Err::Aborted);
  }(f, binder, timeout, got));
  EXPECT_EQ(got, Err::Timeout);
  EXPECT_EQ(binder.counters().get("bind.increment_resent"),
            static_cast<std::uint64_t>(Binder::kIncrementAttempts - 1));
  EXPECT_EQ(f.rt->counters().get("action.aborted_top"), 1u);
  EXPECT_EQ(f.uses_of(1), 0u);
  EXPECT_TRUE(f.entry_unlocked());
}

TEST(Binder, UnknownObjectFails) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& got) -> sim::Task<> {
    auto r = co_await binder.bind(Uid{9, 9}, 1, nullptr, f.probe());
    got = r.error();
  }(f, binder, got));
  EXPECT_EQ(got, Err::NotFound);
}

}  // namespace
}  // namespace gv::naming
