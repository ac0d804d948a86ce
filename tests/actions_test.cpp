// Tests for the atomic action framework: nested actions, inheritance,
// two-phase commit across remote participants, abort paths, and the
// independent / nested top-level action structures of sec 4.1.3.
#include <gtest/gtest.h>

#include <map>

#include "actions/atomic_action.h"
#include "actions/lock_manager.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "store/object_store.h"

namespace gv::actions {
namespace {

// A scripted in-memory participant that records the protocol events it
// sees and can be told how to vote. Told to vote ReadOnly, it does so only
// when the coordinator allows it to leave, and votes Yes otherwise.
class ScriptedParticipant final : public ServerParticipant {
 public:
  Vote vote = Vote::Yes;
  std::vector<std::string> events;
  std::vector<bool> asked_may_leave;

  sim::Task<Vote> prepare(const Uid&, bool may_leave) override {
    events.push_back("prepare");
    asked_may_leave.push_back(may_leave);
    co_return vote == Vote::ReadOnly && !may_leave ? Vote::Yes : vote;
  }
  sim::Task<Status> commit(const Uid&) override {
    events.push_back("commit");
    co_return ok_status();
  }
  sim::Task<Status> abort(const Uid&) override {
    events.push_back("abort");
    co_return ok_status();
  }
  void nested_commit(const Uid&, const Uid&) override { events.push_back("nested_commit"); }
  void nested_abort(const Uid&) override { events.push_back("nested_abort"); }
};

struct Fixture {
  sim::Simulator sim{17};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::vector<std::unique_ptr<TxnRegistry>> registries;
  std::unique_ptr<ActionRuntime> rt;

  explicit Fixture(std::size_t nodes = 4) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    for (NodeId id = 0; id < nodes; ++id)
      registries.push_back(std::make_unique<TxnRegistry>(fabric->endpoint(id)));
    rt = std::make_unique<ActionRuntime>(fabric->endpoint(0), /*uid_seed=*/0xAC);
  }
};

TEST(AtomicAction, TopLevelCommitRunsTwoPhase) {
  Fixture f;
  ScriptedParticipant p1, p2;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    s = co_await act.commit();
    EXPECT_EQ(act.state(), ActionState::Committed);
  }(f, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "commit"}));
  EXPECT_EQ(p2.events, (std::vector<std::string>{"prepare", "commit"}));
}

TEST(AtomicAction, NoVoteAbortsEveryone) {
  Fixture f;
  ScriptedParticipant p1, p2;
  p2.vote = Vote::No;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  Status s = Err::None;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    s = co_await act.commit();
    EXPECT_EQ(act.state(), ActionState::Aborted);
  }(f, s));
  f.sim.run();
  EXPECT_EQ(s.error(), Err::Aborted);
  // Prepare runs in reverse enlist order: p2's no vote ends phase 1
  // before p1 is asked, and both are told to abort.
  EXPECT_EQ(p1.events, (std::vector<std::string>{"abort"}));
  EXPECT_EQ(p2.events, (std::vector<std::string>{"prepare", "abort"}));
}

// R*'s read-only vote: an action whose every participant voted ReadOnly
// is over at its prepare, and no txn.commit is sent.
TEST(AtomicAction, AllReadOnlyActionSendsNoPhase2) {
  Fixture f;
  ScriptedParticipant p1, p2;
  p1.vote = p2.vote = Vote::ReadOnly;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    s = co_await act.commit();
    EXPECT_EQ(act.state(), ActionState::Committed);
  }(f, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare"}));
  EXPECT_EQ(p2.events, (std::vector<std::string>{"prepare"}));
  EXPECT_EQ(p1.asked_may_leave, (std::vector<bool>{true}));
  EXPECT_EQ(p2.asked_may_leave, (std::vector<bool>{true}));
  EXPECT_EQ(f.rt->counters().get("action.read_only_vote"), 2u);
  EXPECT_EQ(f.rt->counters().get("action.no_phase2"), 1u);
  EXPECT_EQ(f.net.counters().get("net.send"), 4u);  // two prepares and their replies
}

// Once a participant has voted Yes, no later one may leave: its read
// locks may pin what the Yes voter installs in phase 2. Phase 2 goes to
// the Yes voters alone, in enlist order.
TEST(AtomicAction, NoParticipantMayLeaveAfterAYesVote) {
  Fixture f;
  ScriptedParticipant p1, p2, p3;
  p1.vote = p3.vote = Vote::ReadOnly;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  f.registries[3]->add("svc3", &p3);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    act.enlist({3, "svc3"});
    s = co_await act.commit();
  }(f, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  // Reverse enlist order: p3 may leave and does; p2 votes Yes; p1 is then
  // asked without leave, so it votes Yes and takes part in phase 2.
  EXPECT_EQ(p3.asked_may_leave, (std::vector<bool>{true}));
  EXPECT_EQ(p2.asked_may_leave, (std::vector<bool>{true}));
  EXPECT_EQ(p1.asked_may_leave, (std::vector<bool>{false}));
  EXPECT_EQ(p3.events, (std::vector<std::string>{"prepare"}));
  EXPECT_EQ(p2.events, (std::vector<std::string>{"prepare", "commit"}));
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "commit"}));
  EXPECT_EQ(f.rt->counters().get("action.read_only_vote"), 1u);
  EXPECT_EQ(f.rt->counters().get("action.no_phase2"), 0u);
}

// A participant that left at its ReadOnly vote has forgotten the action:
// a later No vote aborts the others without it.
TEST(AtomicAction, AbortSkipsReadOnlyVoters) {
  Fixture f;
  ScriptedParticipant p1, p2;
  p1.vote = Vote::No;
  p2.vote = Vote::ReadOnly;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  Status s = Err::None;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    s = co_await act.commit();
  }(f, s));
  f.sim.run();
  EXPECT_EQ(s.error(), Err::Aborted);
  EXPECT_EQ(p2.events, (std::vector<std::string>{"prepare"}));
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "abort"}));
}

// A participant that voted Yes in the reply carrying its last work (an
// implicit yes vote) gets no txn.prepare, but phase 2 and an abort still
// reach it. Its vote counts from the start, so every participant that is
// asked is asked without leave. A nested action's vote is inherited.
TEST(AtomicAction, ImplicitYesVoterGetsNoPrepare) {
  Fixture f;
  ScriptedParticipant p1, p2, p3;
  p1.vote = Vote::ReadOnly;
  p3.vote = Vote::No;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  f.registries[3]->add("svc3", &p3);
  Status committed = Err::Timeout, aborted = Err::None;
  f.sim.spawn([](Fixture& f, Status& committed, Status& aborted) -> sim::Task<> {
    AtomicAction writer{*f.rt};
    writer.enlist({1, "svc1"});
    writer.enlist({2, "svc2"});
    writer.voted_yes({2, "svc2"});
    writer.voted_yes({3, "svc3"});  // not enlisted: ignored
    committed = co_await writer.commit();

    AtomicAction refused{*f.rt};
    refused.enlist({2, "svc2"});
    refused.voted_yes({2, "svc2"});
    refused.enlist({3, "svc3"});
    aborted = co_await refused.commit();

    AtomicAction top{*f.rt};
    {
      AtomicAction nested{*f.rt, &top};
      nested.enlist({2, "svc2"});
      nested.voted_yes({2, "svc2"});
      EXPECT_TRUE((co_await nested.commit()).ok());
    }
    EXPECT_TRUE((co_await top.commit()).ok());
  }(f, committed, aborted));
  f.sim.run();
  EXPECT_TRUE(committed.ok());
  EXPECT_EQ(aborted.error(), Err::Aborted);
  EXPECT_EQ(p1.asked_may_leave, (std::vector<bool>{false}));
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "commit"}));
  EXPECT_EQ(p2.events,
            (std::vector<std::string>{"commit", "abort", "nested_commit", "commit"}));
  EXPECT_EQ(p3.asked_may_leave, (std::vector<bool>{false}));
  EXPECT_EQ(p3.events, (std::vector<std::string>{"prepare", "abort"}));
}

TEST(AtomicAction, UnreachableParticipantAbortsAction) {
  Fixture f;
  ScriptedParticipant p1;
  f.registries[1]->add("svc1", &p1);
  f.cluster.node(2).crash();  // svc2's node is down
  Status s = Err::None;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({2, "svc2"});
    s = co_await act.commit();
  }(f, s));
  f.sim.run();
  EXPECT_EQ(s.error(), Err::Aborted);
}

TEST(AtomicAction, ExplicitAbortNotifiesParticipants) {
  Fixture f;
  ScriptedParticipant p1;
  f.registries[1]->add("svc1", &p1);
  f.sim.spawn([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    (void)co_await act.abort();
    EXPECT_EQ(act.state(), ActionState::Aborted);
  }(f));
  f.sim.run();
  EXPECT_EQ(p1.events, (std::vector<std::string>{"abort"}));
}

TEST(AtomicAction, NestedCommitInheritsParticipants) {
  Fixture f;
  ScriptedParticipant p1;
  f.registries[1]->add("svc1", &p1);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, ScriptedParticipant& p1, Status& s) -> sim::Task<> {
    AtomicAction top{*f.rt};
    {
      AtomicAction nested{*f.rt, &top};
      EXPECT_EQ(nested.top_level_uid(), top.uid());
      nested.enlist({1, "svc1"});
      EXPECT_TRUE((co_await nested.commit()).ok());
    }
    // The participant only sees the 2PC when the TOP level commits.
    EXPECT_EQ(p1.events, (std::vector<std::string>{"nested_commit"}));
    s = co_await top.commit();
  }(f, p1, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(p1.events, (std::vector<std::string>{"nested_commit", "prepare", "commit"}));
}

TEST(AtomicAction, NestedAbortDoesNotTouchParent) {
  Fixture f;
  ScriptedParticipant p1, p2;
  f.registries[1]->add("svc1", &p1);
  f.registries[2]->add("svc2", &p2);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction top{*f.rt};
    top.enlist({1, "svc1"});
    {
      AtomicAction nested{*f.rt, &top};
      nested.enlist({2, "svc2"});
      (void)co_await nested.abort();
    }
    s = co_await top.commit();  // parent commits fine
  }(f, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(p2.events, (std::vector<std::string>{"nested_abort"}));
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "commit"}));
}

TEST(AtomicAction, DeeplyNestedInheritanceReachesRoot) {
  Fixture f;
  ScriptedParticipant p1;
  f.registries[1]->add("svc1", &p1);
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    AtomicAction top{*f.rt};
    AtomicAction mid{*f.rt, &top};
    AtomicAction leaf{*f.rt, &mid};
    leaf.enlist({1, "svc1"});
    EXPECT_TRUE((co_await leaf.commit()).ok());
    EXPECT_TRUE((co_await mid.commit()).ok());
    s = co_await top.commit();
  }(f, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(p1.events,
            (std::vector<std::string>{"nested_commit", "nested_commit", "prepare", "commit"}));
}

// Sec 4.1.3(ii): a nested TOP-LEVEL action commits independently of (and
// before) the surrounding action — even if the surrounding action aborts.
TEST(AtomicAction, NestedTopLevelCommitsIndependently) {
  Fixture f;
  ScriptedParticipant outer_p, inner_p;
  f.registries[1]->add("outer", &outer_p);
  f.registries[2]->add("inner", &inner_p);
  f.sim.spawn([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "outer"});
    {
      // Nested top-level: a fresh root, not a child of `act`.
      AtomicAction ntl{*f.rt};
      ntl.enlist({2, "inner"});
      EXPECT_TRUE((co_await ntl.commit()).ok());
    }
    (void)co_await act.abort();
  }(f));
  f.sim.run();
  EXPECT_EQ(inner_p.events, (std::vector<std::string>{"prepare", "commit"}));
  EXPECT_EQ(outer_p.events, (std::vector<std::string>{"abort"}));
}

TEST(AtomicAction, EnlistDeduplicates) {
  Fixture f;
  ScriptedParticipant p1;
  f.registries[1]->add("svc1", &p1);
  f.sim.spawn([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    act.enlist({1, "svc1"});
    act.enlist({1, "svc1"});
    (void)co_await act.commit();
  }(f));
  f.sim.run();
  EXPECT_EQ(p1.events, (std::vector<std::string>{"prepare", "commit"}));
}

TEST(AtomicAction, CommitTwiceFails) {
  Fixture f;
  Status first = Err::Timeout, second = Err::None;
  f.sim.spawn([](Fixture& f, Status& first, Status& second) -> sim::Task<> {
    AtomicAction act{*f.rt};
    first = co_await act.commit();
    second = co_await act.commit();
  }(f, first, second));
  f.sim.run();
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(second.error(), Err::Aborted);
}

// End-to-end with a real store participant: states install only on
// top-level commit; nested abort discards only the nested writes.
TEST(AtomicAction, StoreParticipantEndToEnd) {
  Fixture f;
  store::ObjectStore store1{f.cluster.node(1), f.fabric->endpoint(1)};
  store::StoreTxnParticipant part1{store1};
  f.registries[1]->add(store::kStoreService, &part1);

  Uid obj{5, 1};
  Status s = Err::Timeout;
  f.sim.spawn([](Fixture& f, Uid obj, Status& s) -> sim::Task<> {
    auto& ep = f.fabric->endpoint(0);
    AtomicAction top{*f.rt};

    // Nested action stages a write at the store, then commits (inherits).
    {
      AtomicAction nested{*f.rt, &top};
      Buffer st;
      st.pack_string("nested-write");
      const std::vector<store::StagedWrite> writes{store::StagedWrite{obj, 1, std::move(st)}};
      auto errs = co_await store::ObjectStore::remote_prepare(ep, 1, nested.uid(), writes);
      EXPECT_TRUE(errs.ok());
      EXPECT_EQ(errs.value_or({}), (std::vector<std::uint32_t>{0}));
      nested.enlist({1, store::kStoreService});
      EXPECT_TRUE((co_await nested.commit()).ok());
    }
    s = co_await top.commit();
  }(f, obj, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
  auto r = store1.read(obj);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().state.unpack_string().value(), "nested-write");
}

TEST(AtomicAction, StoreParticipantAbortLeavesNoTrace) {
  Fixture f;
  store::ObjectStore store1{f.cluster.node(1), f.fabric->endpoint(1)};
  store::StoreTxnParticipant part1{store1};
  f.registries[1]->add(store::kStoreService, &part1);

  Uid obj{5, 2};
  f.sim.spawn([](Fixture& f, Uid obj) -> sim::Task<> {
    auto& ep = f.fabric->endpoint(0);
    AtomicAction act{*f.rt};
    Buffer st;
    st.pack_string("doomed");
    const std::vector<store::StagedWrite> writes{store::StagedWrite{obj, 1, std::move(st)}};
    (void)co_await store::ObjectStore::remote_prepare(ep, 1, act.uid(), writes);
    act.enlist({1, store::kStoreService});
    (void)co_await act.abort();
  }(f, obj));
  f.sim.run();
  EXPECT_FALSE(store1.contains(obj));
}

}  // namespace
}  // namespace gv::actions
