// Tests for the binder strategies in isolation (scripted probes, no
// object servers): the exact database traffic each scheme of sec 4.1
// generates, and the paper's rules for joining an already-active group.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "actions/atomic_action.h"
#include "core/system.h"
#include "naming/binder.h"
#include "naming/group_view_db.h"
#include "replication/state_machine.h"
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
    return [this](NodeId node, std::vector<NodeId>) -> sim::Task<ProbeResult> {
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

  bool entry_unlocked() { return gvdb->locks().holder_count({obj, kSvPart}) == 0; }

  // Sv through S1's naming read, with both locks under `action`.
  sim::Task<Result<SvView>> get_server(Uid action) {
    auto v = co_await osdb_bind_read(rt->endpoint(), 0, obj, action);
    if (!v.ok()) co_return v.error();
    co_return std::move(v).value().sv;
  }

  // An S2/S3 bind under a client action that ends right after it: St's
  // read lock lives as long as that action.
  sim::Task<Result<BindResult>> bind(Binder& binder, Uid object, std::size_t want,
                                     Binder::Probe probe) {
    AtomicAction client{*rt};
    auto r = co_await binder.bind(object, want, &client, std::move(probe));
    (void)co_await client.commit();
    co_return r;
  }

  // The Decrement batch that releases `binding`.
  std::vector<UseRelease> releases(const BindResult& binding) const {
    return {UseRelease{obj, binding.servers, binding.token}};
  }
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
    auto v = co_await f.get_server(peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_EQ(v.value().sv.size(), 3u);
    peek.enlist({0, kGvdbService});
    (void)co_await peek.commit();
  }(f));
}

TEST(BinderS2, RemovesDeadServersAndIncrementsUseLists) {
  Fixture f;
  f.dead = {2};
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await f.bind(binder, f.obj, 2, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(r.value().servers, (std::vector<NodeId>{3, 4}));
  }(f, binder));
  // The database now reflects the repair and the usage.
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction peek{*f.rt};
    auto v = co_await f.get_server(peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{3, 4}));  // 2 Removed
      std::set<NodeId> used;
      for (const UseEntry& u : v.value().use) used.insert(u.server);
      EXPECT_EQ(used, (std::set<NodeId>{3, 4}));
    }
    peek.enlist({0, kGvdbService});
    (void)co_await peek.commit();
  }(f));
}

TEST(BinderS2, SecondClientJoinsActiveGroupOnly) {
  // Sec 4.1.3(i): with non-empty use lists, a client binds only to the
  // servers with non-zero counters — NOT to other Sv members.
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto first = co_await f.bind(binder, f.obj, 1, f.probe());
    EXPECT_TRUE(first.ok());
    if (first.ok()) EXPECT_EQ(first.value().servers, (std::vector<NodeId>{2}));
    // Second client wants 2 servers but must join the active set {2}.
    auto second = co_await f.bind(binder, f.obj, 2, f.probe());
    EXPECT_TRUE(second.ok());
    if (second.ok()) EXPECT_EQ(second.value().servers, (std::vector<NodeId>{2}));
  }(f, binder));
  EXPECT_GE(binder.counters().get("bind.join_active_group"), 1u);
}

TEST(BinderS2, UnbindDecrementsToQuiescence) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await f.bind(binder, f.obj, 2, f.probe());
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_TRUE((co_await binder.unbind(f.releases(r.value()))).ok());
    // Quiescent again: a fresh client is free to select any subset.
    AtomicAction peek{*f.rt};
    auto v = co_await f.get_server(peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_TRUE(v.value().use.empty());
    peek.enlist({0, kGvdbService});
    (void)co_await peek.commit();
  }(f, binder));
}

TEST(BinderS2, AllProbesFailStillCommitsRemoves) {
  Fixture f;
  f.dead = {2, 3, 4};
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& got) -> sim::Task<> {
    auto r = co_await f.bind(binder, f.obj, 2, f.probe());
    got = r.error();
  }(f, binder, got));
  EXPECT_EQ(got, Err::NoReplicas);
  // The Removes committed so the next client sees an empty (honest) Sv.
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction peek{*f.rt};
    auto v = co_await f.get_server(peek.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_TRUE(v.value().sv.empty());
    peek.enlist({0, kGvdbService});
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
      (void)co_await binder.unbind(f.releases(r.value()));
    }
    (void)co_await client.commit();
  }(f, binder));
  EXPECT_EQ(binder.counters().get("bind.removed_failed_server"), 1u);
  EXPECT_EQ(binder.counters().get("bind.nested_toplevel_action"), 1u);
}

// ------------------------------------------- single-site binder actions

// A bind is one naming call — GetServer with GetView, the pick, the
// Increment and the bind action's commit — and an unbind one Decrement:
// no prepare, no phase 2, no client-side binder action.
TEST(BinderS2, BindIsOneCallAndUnbindOne) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 2, &client, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      // The bind token: the runtime's second UID, after the client's.
      EXPECT_EQ(r.value().token, (Uid{0xB1D, 2}));
      EXPECT_EQ(r.value().st, (std::vector<NodeId>{2, 3, 4}));
      EXPECT_EQ(f.net.counters().get("net.send"), 2u);
      EXPECT_EQ(f.uses_of(1), 2u);
      EXPECT_TRUE(f.entry_unlocked());
      EXPECT_TRUE((co_await binder.unbind(f.releases(r.value()))).ok());
      EXPECT_EQ(f.net.counters().get("net.send"), 4u);
      EXPECT_EQ(f.uses_of(1), 0u);
    }
    (void)co_await client.commit();
  }(f, binder));
  // One top-level action at the client: its own.
  EXPECT_EQ(f.rt->counters().get("action.begin_top"), 1u);
  // One commit at the naming node, the bind's. The client action only
  // read there, so it ended at its read-only vote.
  EXPECT_EQ(f.gvdb->counters().get("db.commit"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("db.read_only_vote"), 1u);
}

// A probe that finds its server dead sends one more bind: it Removes the
// server and releases the first binding in that call, and the auditor's
// use-list balance holds — one binding left, and none once unbound.
TEST(BinderS2, DeadFirstCandidateIsRemovedAndReleasedInTheRebind) {
  Fixture f;
  f.dead = {2};
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 1, &client, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value().servers, (std::vector<NodeId>{3}));
      EXPECT_EQ(r.value().token, (Uid{0xB1D, 3}));  // the second bind's
      EXPECT_EQ(f.net.counters().get("net.send"), 4u);
      EXPECT_EQ(f.uses_of(1), 1u);
      EXPECT_TRUE((co_await binder.unbind(f.releases(r.value()))).ok());
    }
    (void)co_await client.commit();
  }(f, binder));
  EXPECT_EQ(f.probes, 2);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind"), 2u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.remove"), 1u);
  EXPECT_EQ(binder.counters().get("bind.removed_failed_server"), 1u);
  EXPECT_EQ(f.gvdb->servers().entries.at(f.obj).sv, (std::vector<NodeId>{3, 4}));
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_TRUE(f.entry_unlocked());
}

// Two binders of a quiescent object, concurrently: the pick and the
// Increment are one step at the naming node, so the second sees the
// first's use list and binds the same server, without waiting for it.
TEST(BinderS2, ConcurrentBindersOfAQuiescentObjectPickTheSameServer) {
  Fixture f;
  f.dead = {2};  // the first candidate: both must move on to the same one
  auto rt5 = std::make_unique<ActionRuntime>(f.fabric->endpoint(5), 0xB15);
  Binder one{*f.rt, 0, Scheme::IndependentTopLevel};
  Binder two{*rt5, 0, Scheme::IndependentTopLevel};
  std::vector<NodeId> got1, got2;
  auto bind = [](Fixture& f, ActionRuntime& rt, Binder& binder,
                 std::vector<NodeId>& got) -> sim::Task<> {
    AtomicAction client{rt};
    auto r = co_await binder.bind(f.obj, 1, &client, f.probe());
    if (r.ok()) got = r.value().servers;
    (void)co_await client.commit();
  };
  f.sim.spawn(bind(f, *f.rt, one, got1));
  f.sim.spawn(bind(f, *rt5, two, got2));
  f.sim.run();
  EXPECT_EQ(got1, (std::vector<NodeId>{3}));
  EXPECT_EQ(got2, (std::vector<NodeId>{3}));
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.uses_of(5), 1u);
  EXPECT_EQ(f.gvdb->locks().counters().get("lock.conflict_wait"), 0u);
}

// The bind's reply is lost; the resend finds the token and answers the
// recorded pick, leaving exactly one binding.
TEST(BinderS2, LostIncrementReplyIsResentAndLeavesOneToken) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  std::vector<NodeId> got;
  f.run([](Fixture& f, Binder& binder, std::vector<NodeId>& got) -> sim::Task<> {
    f.drop_for(0, 1, 20 * sim::kMillisecond);  // the naming node's next reply
    auto r = co_await f.bind(binder, f.obj, 1, f.probe());
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = r.value().servers;
  }(f, binder, got));
  EXPECT_EQ(got, (std::vector<NodeId>{2}));
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.probes, 1);
  EXPECT_EQ(binder.counters().get("bind.resent"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind_resent"), 1u);
  EXPECT_TRUE(f.entry_unlocked());
}

// Every datagram duplicated: the duplicate bind changes nothing.
TEST(BinderS2, DuplicatedIncrementLeavesOneToken) {
  Fixture f;
  f.net.config().dup_prob = 1.0;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await f.bind(binder, f.obj, 1, f.probe());
    EXPECT_TRUE(r.ok());
  }(f, binder));
  EXPECT_GE(f.net.counters().get("net.duplicated"), 4u);
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind"), 1u);
}

// The naming node restarts after the bind committed and before its reply
// arrived: the resend reaches the new incarnation, which answers from
// the reloaded token.
TEST(BinderS2, NamingRestartAfterIncrementCommittedAnswersFromToken) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    f.drop_for(0, 1, 20 * sim::kMillisecond);
    f.sim.spawn([](Fixture& f) -> sim::Task<> {
      co_await f.sim.sleep(10 * sim::kMillisecond);  // the bind has committed
      f.cluster.node(0).crash();
      f.cluster.node(0).recover();
    }(f));
    auto r = co_await f.bind(binder, f.obj, 1, f.probe());
    EXPECT_TRUE(r.ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 1u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind_resent"), 1u);
}

// The naming node restarts during the bind's probe: the bind action
// committed in its one call, before the probe, so the new incarnation
// reloads the binding and the client's unbind drops it.
TEST(BinderS2, NamingRestartDuringProbeKeepsTheCommittedBinding) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    Binder::Probe probe = [&f](NodeId, std::vector<NodeId>) -> sim::Task<ProbeResult> {
      f.cluster.node(0).crash();
      f.cluster.node(0).recover();
      co_return ProbeResult::Ok;
    };
    auto r = co_await f.bind(binder, f.obj, 1, probe);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(f.uses_of(1), 1u);
    if (r.ok()) EXPECT_TRUE((co_await binder.unbind(f.releases(r.value()))).ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 0u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind"), 1u);
  EXPECT_TRUE(f.entry_unlocked());
}

// An unbind whose reply is lost is resent; the resend finds no token and
// answers OK, and the count is 0.
TEST(BinderS2, UnbindResentAfterLostReplyLeavesZero) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder) -> sim::Task<> {
    auto r = co_await f.bind(binder, f.obj, 2, f.probe());
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    f.drop_for(0, 1, 20 * sim::kMillisecond);
    EXPECT_EQ((co_await binder.unbind(f.releases(r.value()))).error(), Err::Timeout);
    EXPECT_EQ(f.uses_of(1), 0u);  // it was applied; only the reply was lost
    EXPECT_TRUE((co_await binder.unbind(f.releases(r.value()))).ok());
  }(f, binder));
  EXPECT_EQ(f.uses_of(1), 0u);
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement_absent"), 1u);
}

// Every bind request is lost, so the bind gives up: it Decrements its
// token wherever it may be, and a copy of the bind that arrives later is
// refused and records nothing.
TEST(BinderS2, GivenUpBindRefusesLateIncrement) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  const sim::SimTime timeout = f.fabric->endpoint(1).config().call_timeout;
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, sim::SimTime timeout, Err& got) -> sim::Task<> {
    // Requests to the naming node are lost until the last bind has gone;
    // the Decrement that follows gets through.
    f.drop_for(1, 0, (Binder::kBindAttempts - 1) * timeout + timeout / 2);
    AtomicAction client{*f.rt};
    auto r = co_await binder.bind(f.obj, 1, &client, f.probe());
    got = r.ok() ? Err::None : r.error();
    const Uid token{0xB1D, 2};  // the bind token: the runtime's second UID
    const std::vector<NodeId> none;
    auto late = co_await osdb_bind(f.rt->endpoint(), 0, f.obj, client.uid(), token, 1, none, none,
                                   Uid{});
    EXPECT_EQ(late.error(), Err::Aborted);
    (void)co_await client.abort();
  }(f, binder, timeout, got));
  EXPECT_EQ(got, Err::Timeout);
  EXPECT_EQ(binder.counters().get("bind.resent"),
            static_cast<std::uint64_t>(Binder::kBindAttempts - 1));
  EXPECT_EQ(f.probes, 0);
  EXPECT_EQ(f.uses_of(1), 0u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind_refused"), 1u);
  EXPECT_TRUE(f.entry_unlocked());
}

TEST(Binder, UnknownObjectFails) {
  Fixture f;
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  Err got = Err::None;
  f.run([](Fixture& f, Binder& binder, Err& got) -> sim::Task<> {
    auto r = co_await f.bind(binder, Uid{9, 9}, 1, f.probe());
    got = r.error();
  }(f, binder, got));
  EXPECT_EQ(got, Err::NotFound);
}

// ------------------------------------------------ one Decrement per action

// Two bindings released by one Decrement whose reply is lost: every slot
// is already 0, and the resend finds both tokens absent.
TEST(BinderS2, BatchedDecrementResentAfterLostReplyLeavesZero) {
  Fixture f;
  const Uid other{300, 2};
  f.gvdb->create_object(other, {2, 3}, {2, 3});
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder, Uid other) -> sim::Task<> {
    auto a = co_await f.bind(binder, f.obj, 2, f.probe());
    auto b = co_await f.bind(binder, other, 2, f.probe());
    EXPECT_TRUE(a.ok() && b.ok());
    if (!a.ok() || !b.ok()) co_return;
    std::vector<UseRelease> both{UseRelease{f.obj, a.value().servers, a.value().token},
                                 UseRelease{other, b.value().servers, b.value().token}};
    f.drop_for(0, 1, 20 * sim::kMillisecond);
    EXPECT_EQ((co_await binder.unbind(both)).error(), Err::Timeout);
    EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());  // applied; the reply was lost
    EXPECT_TRUE((co_await binder.unbind(both)).ok());
  }(f, binder, other));
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement"), 4u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement_absent"), 2u);
}

// Every datagram duplicated: the duplicate Decrement is not applied
// again, so each token is removed once.
TEST(BinderS2, DuplicatedBatchedDecrementRemovesEachTokenOnce) {
  Fixture f;
  const Uid other{300, 2};
  f.gvdb->create_object(other, {2, 3}, {2, 3});
  Binder binder{*f.rt, 0, Scheme::IndependentTopLevel};
  f.run([](Fixture& f, Binder& binder, Uid other) -> sim::Task<> {
    auto a = co_await f.bind(binder, f.obj, 1, f.probe());
    auto b = co_await f.bind(binder, other, 1, f.probe());
    EXPECT_TRUE(a.ok() && b.ok());
    if (!a.ok() || !b.ok()) co_return;
    f.net.config().dup_prob = 1.0;
    const std::uint64_t dups = f.net.counters().get("net.duplicated");
    std::vector<UseRelease> both{UseRelease{f.obj, a.value().servers, a.value().token},
                                 UseRelease{other, b.value().servers, b.value().token}};
    EXPECT_TRUE((co_await binder.unbind(both)).ok());
    EXPECT_GE(f.net.counters().get("net.duplicated"), dups + 2);  // request and reply
  }(f, binder, other));
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement"), 2u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement_absent"), 0u);
}

// ------------------------------------------------- binds with activation

using core::ReplicaSystem;
using core::SystemConfig;
using replication::ReplicationPolicy;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

// Calls of `service.method` this system's nodes made.
std::uint64_t calls(const ReplicaSystem& sys, const std::string& method) {
  auto it = sys.metrics().histograms().find("rpc." + method + "_us");
  return it == sys.metrics().histograms().end() ? 0 : it->second.count();
}

// A two-object S2 transaction binds each object in one naming call, and
// no probe: each object's first invocation activates and joins it at its
// server (the objects' servers differ). One Decrement releases both
// bindings.
TEST(BinderS2, TwoObjectTransactionIsOneNamingCallPerObjectAndOneDecrement) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 5;
  ReplicaSystem sys{cfg};
  const Uid a = sys.define_object("a", "counter", replication::Counter{}.snapshot(), {2, 3},
                                  {5, 6}, ReplicationPolicy::Active, 1);
  const Uid b = sys.define_object("b", "counter", replication::Counter{}.snapshot(), {3, 4},
                                  {6, 7}, ReplicationPolicy::Active, 1);
  bool committed = false;
  sys.sim().spawn([](ReplicaSystem& sys, Uid a, Uid b, bool& committed) -> sim::Task<> {
    auto txn = sys.client(1)->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), core::LockMode::Write)).ok());
    EXPECT_TRUE((co_await txn->invoke(b, "add", i64_buf(2), core::LockMode::Write)).ok());
    committed = (co_await txn->commit()).ok();
  }(sys, a, b, committed));
  sys.sim().run();
  EXPECT_TRUE(committed);
  // Per object: one naming call, one activating invocation.
  EXPECT_EQ(calls(sys, "osdb.bind"), 2u);
  EXPECT_EQ(calls(sys, "objsrv.activate"), 0u);
  EXPECT_EQ(calls(sys, "objsrv.invoke"), 2u);
  EXPECT_EQ(calls(sys, "osdb.decrement"), 1u);
  // Nothing else goes to the naming node but the client action's 2PC,
  // and no server is asked to join the group separately.
  EXPECT_EQ(calls(sys, "osdb.bind_read"), 0u);
  EXPECT_EQ(calls(sys, "ostdb.get_view"), 0u);
  EXPECT_EQ(calls(sys, "objsrv.join_group"), 0u);
  Counters all = sys.aggregate_counters();
  EXPECT_EQ(all.get("osdb.bind"), 2u);
  EXPECT_EQ(all.get("objsrv.activated"), 2u);
  EXPECT_EQ(sys.gc().members(a), (std::vector<NodeId>{2}));
  EXPECT_EQ(sys.gc().members(b), (std::vector<NodeId>{3}));
  EXPECT_TRUE(sys.gvdb().servers().clients_in_use().empty());
}

// A server that activates but cannot join the replica group (the network
// cuts it off from the member already in the group) fails the probe: the
// uncached bind leaves it out, and does not Remove it from Sv either.
TEST(BinderS2, ServerThatCannotJoinTheGroupIsNotBound) {
  SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 6;
  ReplicaSystem sys{cfg};
  const Uid a = sys.define_object("a", "counter", replication::Counter{}.snapshot(), {2, 3},
                                  {5, 6}, ReplicationPolicy::Active, 2);
  sys.net().set_reachable(2, 3, false);
  sys.net().set_reachable(3, 2, false);
  std::vector<NodeId> bound;
  sys.sim().spawn([](ReplicaSystem& sys, Uid a, std::vector<NodeId>& bound) -> sim::Task<> {
    auto txn = sys.client(1)->begin();
    EXPECT_TRUE((co_await txn->invoke(a, "add", i64_buf(1), core::LockMode::Write)).ok());
    bound = txn->bindings().at(a).bind.servers;
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(sys, a, bound));
  sys.sim().run();
  EXPECT_EQ(bound, (std::vector<NodeId>{2}));
  EXPECT_TRUE(sys.host_at(3).is_active(a));  // it activated...
  EXPECT_EQ(sys.gc().members(a), (std::vector<NodeId>{2}));  // ...alone
  Counters all = sys.aggregate_counters();
  EXPECT_EQ(all.get("objsrv.join_refused"), 1u);
  EXPECT_EQ(all.get("activate.join_failed"), 1u);
  EXPECT_EQ(all.get("bind.removed_failed_server"), 0u);
  auto sv = sys.gvdb().servers().peek_view(a);
  ASSERT_TRUE(sv.ok());
  EXPECT_EQ(sv.value().sv, (std::vector<NodeId>{2, 3}));
}

}  // namespace
}  // namespace gv::naming
