// Tests for the object store: versioned two-phase install, crash and
// recovery semantics (presumed abort, suspect marking), and the remote
// access helpers.
#include <gtest/gtest.h>

#include <algorithm>

#include "actions/coordinator_log.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "store/object_store.h"

namespace gv::store {
namespace {

Buffer state_of(const std::string& s) {
  Buffer b;
  b.pack_string(s);
  return b;
}

struct Fixture {
  sim::Simulator sim{5};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::vector<std::unique_ptr<ObjectStore>> stores;

  explicit Fixture(std::size_t nodes = 3) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    for (NodeId id = 0; id < nodes; ++id)
      stores.push_back(std::make_unique<ObjectStore>(cluster.node(id), fabric->endpoint(id)));
  }
};

TEST(ObjectStore, PrepareCommitInstalls) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 1, state_of("v1")).ok());
  // Not visible before commit.
  EXPECT_EQ(f.stores[0]->read(obj).error(), Err::NotFound);
  EXPECT_TRUE(f.stores[0]->commit(txn).ok());
  auto r = f.stores[0]->read(obj);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().version, 1u);
  EXPECT_EQ(r.value().state.unpack_string().value(), "v1");
}

TEST(ObjectStore, AbortDiscardsShadow) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 1, state_of("v1")).ok());
  EXPECT_TRUE(f.stores[0]->abort(txn).ok());
  EXPECT_EQ(f.stores[0]->read(obj).error(), Err::NotFound);
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
}

TEST(ObjectStore, StalePrepareRefused) {
  Fixture f;
  Uid obj{1, 1};
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 5, state_of("v5")).ok());
  EXPECT_EQ(f.stores[0]->prepare(obj, Uid{2, 1}, 5, state_of("stale")).error(), Err::Conflict);
  EXPECT_EQ(f.stores[0]->prepare(obj, Uid{2, 2}, 4, state_of("staler")).error(), Err::Conflict);
  EXPECT_TRUE(f.stores[0]->prepare(obj, Uid{2, 3}, 6, state_of("v6")).ok());
}

TEST(ObjectStore, DirectWriteOlderVersionRefused) {
  Fixture f;
  Uid obj{1, 1};
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 3, state_of("v3")).ok());
  EXPECT_EQ(f.stores[0]->write_direct(obj, 2, state_of("v2")).error(), Err::Conflict);
  // Same version re-write is idempotent (recovery refresh path).
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 3, state_of("v3")).ok());
}

TEST(ObjectStore, MultiObjectTransactionCommitsAtomically) {
  Fixture f;
  Uid a{1, 1}, b{1, 2}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(a, txn, 1, state_of("a1")).ok());
  EXPECT_TRUE(f.stores[0]->prepare(b, txn, 1, state_of("b1")).ok());
  EXPECT_TRUE(f.stores[0]->commit(txn).ok());
  EXPECT_EQ(f.stores[0]->read(a).value().state.unpack_string().value(), "a1");
  EXPECT_EQ(f.stores[0]->read(b).value().state.unpack_string().value(), "b1");
}

TEST(ObjectStore, ShadowSurvivesCrashAsInDoubtThenPresumesAbort) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 1, state_of("v1")).ok());
  // Coordinator kNoNode: nobody to ask, so after recovery the in-doubt
  // resolver presumes abort — but only via the resolver, never silently.
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 2, state_of("v2")).ok());

  f.cluster.node(0).crash();
  f.cluster.node(0).recover();

  // The shadow survived the crash (it is stable) and went through the
  // in-doubt path; with no coordinator to ask the resolver presumes
  // abort (for kNoNode it resolves synchronously inside recover()).
  f.sim.run();
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_EQ(f.stores[0]->commit(txn).error(), Err::NotFound);
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_presumed_abort"), 1u);
  // Committed v1 survived, but is suspect until recovery validates it.
  EXPECT_TRUE(f.stores[0]->suspect(obj));
  EXPECT_EQ(f.stores[0]->read(obj).error(), Err::Conflict);
  f.stores[0]->clear_suspect(obj);
  EXPECT_EQ(f.stores[0]->read(obj).value().state.unpack_string().value(), "v1");
}

TEST(ObjectStore, InDoubtShadowCommitsWhenCoordinatorSaysSo) {
  // The scenario that loses money without in-doubt resolution: prepared,
  // coordinator decided commit, store crashed before phase 2.
  Fixture f;
  actions::CoordinatorLog coord{f.fabric->endpoint(2)};
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 1, state_of("v1")).ok());
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 2, state_of("v2"), /*coordinator=*/2).ok());
  coord.record(txn, /*committed=*/true);  // the decision the store missed

  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  f.sim.run();  // resolver asks node 2 -> Committed -> install

  f.stores[0]->clear_suspect(obj);
  auto r = f.stores[0]->read(obj);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().version, 2u);
  EXPECT_EQ(r.value().state.unpack_string().value(), "v2");
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_committed"), 1u);
}

TEST(ObjectStore, InDoubtShadowAbortsWhenCoordinatorSaysSo) {
  Fixture f;
  actions::CoordinatorLog coord{f.fabric->endpoint(2)};
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 2, state_of("doomed"), /*coordinator=*/2).ok());
  coord.record(txn, /*committed=*/false);
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  f.sim.run();
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_FALSE(f.stores[0]->contains(obj));
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_aborted"), 1u);
}

TEST(ObjectStore, InDoubtShadowPresumedAbortedWhenCoordinatorAnswersUnknown) {
  // A live coordinator that never decided the action answers Unknown
  // through every retry: the store presumes abort.
  Fixture f;
  actions::CoordinatorLog coord{f.fabric->endpoint(2)};
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 2, state_of("undecided"), /*coordinator=*/2).ok());
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  f.sim.run();
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_presumed_abort"), 1u);
}

TEST(ObjectStore, InDoubtShadowStaysWhileCoordinatorSilent) {
  // A coordinator that never answers may hold Committed in its stable
  // log: the shadow stays in doubt, and the next trigger asks again.
  Fixture f;
  actions::CoordinatorLog coord{f.fabric->endpoint(2)};
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->write_direct(obj, 1, state_of("v1")).ok());
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 2, state_of("v2"), /*coordinator=*/2).ok());
  coord.record(txn, /*committed=*/true);
  f.cluster.node(2).crash();
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  f.sim.run();
  EXPECT_TRUE(f.stores[0]->has_shadow(txn));
  EXPECT_EQ(f.stores[0]->in_doubt_count(), 1u);
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_unanswered"), 1u);
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_presumed_abort"), 0u);

  f.cluster.node(2).recover();
  EXPECT_EQ(f.stores[0]->reap_orphan_shadows(), 0u);  // triggers the resolver
  f.sim.run();
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_EQ(f.stores[0]->version(obj).value(), 2u);
  EXPECT_EQ(f.stores[0]->counters().get("store.in_doubt_committed"), 1u);
}

TEST(ObjectStore, SuspectListMatchesLocalObjects) {
  Fixture f;
  f.stores[0]->write_direct(Uid{1, 1}, 1, state_of("x"));
  f.stores[0]->write_direct(Uid{1, 2}, 1, state_of("y"));
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  EXPECT_EQ(f.stores[0]->suspect_objects().size(), 2u);
}

// The committed table is hashed; the object list comes back in UID
// order whatever the order of the writes.
TEST(ObjectStore, LocalObjectsComeBackInUidOrder) {
  Fixture f;
  std::vector<Uid> written;
  for (std::uint64_t i = 0; i < 64; ++i) written.push_back(Uid{1 + i % 3, (i * 37) % 64 + 1});
  for (const Uid& uid : written) ASSERT_TRUE(f.stores[0]->write_direct(uid, 1, state_of("x")).ok());
  std::vector<Uid> sorted = written;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(f.stores[0]->local_objects(), sorted);
}

TEST(ObjectStore, NestedShadowRekeyMerges) {
  Fixture f;
  Uid obj{1, 1}, parent{2, 1}, child{2, 2};
  EXPECT_TRUE(f.stores[0]->prepare(obj, parent, 1, state_of("parent")).ok());
  EXPECT_TRUE(f.stores[0]->prepare(obj, child, 2, state_of("child")).ok());
  f.stores[0]->rekey_shadow(child, parent);
  EXPECT_FALSE(f.stores[0]->has_shadow(child));
  EXPECT_TRUE(f.stores[0]->commit(parent).ok());
  // The child's (newer) write wins within the merged shadow.
  EXPECT_EQ(f.stores[0]->read(obj).value().state.unpack_string().value(), "child");
  EXPECT_EQ(f.stores[0]->read(obj).value().version, 2u);
}

TEST(ObjectStore, RemoteReadWriteRoundTrip) {
  Fixture f;
  Uid obj{1, 1};
  bool done = false;
  f.sim.spawn([](Fixture& f, Uid obj, bool& done) -> sim::Task<> {
    auto& ep = f.fabric->endpoint(0);
    EXPECT_TRUE(f.stores[1]->write_direct(obj, 1, state_of("hello")).ok());
    auto r = co_await ObjectStore::remote_read(ep, 1, obj);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value().version, 1u);
      EXPECT_EQ(r.value().state.unpack_string().value(), "hello");
    }
    auto v = f.stores[1]->version(obj);
    EXPECT_TRUE(v.ok());
    if (v.ok()) EXPECT_EQ(v.value(), 1u);
    done = true;
  }(f, obj, done));
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(ObjectStore, RemoteTwoPhaseAcrossNodes) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  bool done = false;
  f.sim.spawn([](Fixture& f, Uid obj, Uid txn, bool& done) -> sim::Task<> {
    auto& ep = f.fabric->endpoint(0);
    Buffer s;
    s.pack_string("2pc");
    const std::vector<StagedWrite> writes{StagedWrite{obj, 1, std::move(s)}};
    auto errs = co_await ObjectStore::remote_prepare(ep, 2, txn, writes);
    EXPECT_EQ(errs.value_or({}), (std::vector<std::uint32_t>{0}));
    StoreTxnParticipant participant{*f.stores[2]};
    EXPECT_TRUE((co_await participant.commit(txn)).ok());
    auto r = co_await ObjectStore::remote_read(ep, 2, obj);
    EXPECT_TRUE(r.ok());
    done = true;
  }(f, obj, txn, done));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.stores[2]->contains(obj));
}

// A batched prepare runs each write through prepare() and answers per
// write: a write behind the committed version is refused without
// refusing the others.
TEST(ObjectStore, BatchedPrepareAnswersPerWrite) {
  Fixture f;
  Uid a{1, 1}, b{1, 2}, c{1, 3}, txn{2, 1};
  ASSERT_TRUE(f.stores[2]->write_direct(b, 3, state_of("b3")).ok());
  Result<std::vector<std::uint32_t>> errs = Err::Timeout;
  f.sim.spawn([](Fixture& f, Uid a, Uid b, Uid c, Uid txn,
                 Result<std::vector<std::uint32_t>>& errs) -> sim::Task<> {
    const std::vector<StagedWrite> writes{StagedWrite{a, 1, state_of("a1")},
                                          StagedWrite{b, 3, state_of("b3'")},
                                          StagedWrite{c, 1, state_of("c1")}};
    errs = co_await ObjectStore::remote_prepare(f.fabric->endpoint(0), 2, txn, writes);
  }(f, a, b, c, txn, errs));
  f.sim.run();
  ASSERT_TRUE(errs.ok());
  EXPECT_EQ(errs.value(), (std::vector<std::uint32_t>{static_cast<std::uint32_t>(Err::None),
                                                      static_cast<std::uint32_t>(Err::Conflict),
                                                      static_cast<std::uint32_t>(Err::None)}));
  EXPECT_EQ(f.stores[2]->counters().get("store.prepare"), 2u);
  EXPECT_EQ(f.stores[2]->counters().get("store.prepare_stale"), 1u);
  EXPECT_TRUE(f.stores[2]->has_pending_shadow(a));
  EXPECT_FALSE(f.stores[2]->has_pending_shadow(b));
  EXPECT_TRUE(f.stores[2]->has_pending_shadow(c));
  // The two accepted writes commit together.
  ASSERT_TRUE(f.stores[2]->commit(txn).ok());
  EXPECT_EQ(f.stores[2]->version(a).value_or(0), 1u);
  EXPECT_EQ(f.stores[2]->version(b).value_or(0), 3u);
  EXPECT_EQ(f.stores[2]->version(c).value_or(0), 1u);
}

TEST(ObjectStore, RemoteReadFromCrashedNodeTimesOut) {
  Fixture f;
  f.cluster.node(1).crash();
  Err got = Err::None;
  f.sim.spawn([](Fixture& f, Err& got) -> sim::Task<> {
    auto r = co_await ObjectStore::remote_read(f.fabric->endpoint(0), 1, Uid{1, 1});
    got = r.error();
  }(f, got));
  f.sim.run();
  EXPECT_EQ(got, Err::Timeout);
}

// participant adapter -----------------------------------------------------

TEST(StoreTxnParticipant, VotesYesWhileShadowSurvivesAsInDoubt) {
  // The shadow is stable: a fast crash/recover between the copy and the
  // 2PC prepare does not lose the staged data, so the store can honestly
  // vote yes. (The in-doubt resolver and the phase-1/2 RPCs coordinate
  // through the shadows map; whoever resolves first wins.)
  Fixture f;
  StoreTxnParticipant p{*f.stores[0]};
  Uid obj{1, 1}, txn{2, 1};
  f.stores[0]->prepare(obj, txn, 1, state_of("x"), /*coordinator=*/1);
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  actions::Vote vote = actions::Vote::No;
  f.sim.spawn([](StoreTxnParticipant& p, Uid txn, actions::Vote& vote) -> sim::Task<> {
    vote = co_await p.prepare(txn, /*may_leave=*/true);
  }(p, txn, vote));
  f.sim.run_until(f.sim.now() + 1);
  EXPECT_EQ(vote, actions::Vote::Yes);
}

// A store is enlisted only where a copy landed, so a missing shadow is a
// lost one: it votes No even when the coordinator would let it leave.
TEST(StoreTxnParticipant, LostShadowVotesNoEvenWhenAllowedToLeave) {
  Fixture f;
  StoreTxnParticipant p{*f.stores[0]};
  Uid obj{1, 1}, txn{2, 1};
  EXPECT_TRUE(f.stores[0]->prepare(obj, txn, 1, state_of("x")).ok());
  f.stores[0]->drop_shadow(txn);  // as a presumed abort does
  actions::Vote vote = actions::Vote::ReadOnly;
  f.sim.spawn([](StoreTxnParticipant& p, Uid txn, actions::Vote& vote) -> sim::Task<> {
    vote = co_await p.prepare(txn, /*may_leave=*/true);
  }(p, txn, vote));
  f.sim.run_until(f.sim.now() + 1);
  EXPECT_EQ(vote, actions::Vote::No);
}

TEST(StoreTxnParticipant, CommitIdempotentWhenShadowMissing) {
  Fixture f;
  StoreTxnParticipant p{*f.stores[0]};
  Status s = Err::Timeout;
  f.sim.spawn([](StoreTxnParticipant& p, Status& s) -> sim::Task<> {
    s = co_await p.commit(Uid{2, 9});
  }(p, s));
  f.sim.run();
  EXPECT_TRUE(s.ok());
}

TEST(ObjectStore, OrphanShadowReapedAfterTimeout) {
  // A coordinator that died (without this store crashing) leaves a
  // prepared shadow behind; the reaper presumes abort once it ages out.
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  f.stores[0]->prepare(obj, txn, 1, state_of("orphan"));
  EXPECT_TRUE(f.stores[0]->has_shadow(txn));
  f.sim.run_until(ObjectStore::kOrphanShadowAge + sim::kSecond);
  EXPECT_EQ(f.stores[0]->reap_orphan_shadows(), 1u);
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_EQ(f.stores[0]->commit(txn).error(), Err::NotFound);
}

TEST(ObjectStore, YoungShadowSurvivesReaper) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  f.sim.run_until(1 * sim::kSecond);
  f.stores[0]->prepare(obj, txn, 1, state_of("young"));
  f.sim.run_until(f.sim.now() + ObjectStore::kOrphanShadowAge - 1);
  EXPECT_EQ(f.stores[0]->reap_orphan_shadows(), 0u);
  EXPECT_TRUE(f.stores[0]->has_shadow(txn));
  EXPECT_TRUE(f.stores[0]->commit(txn).ok());
}

TEST(ObjectStore, PeriodicReaperRunsAndStops) {
  Fixture f;
  Uid obj{1, 1}, txn{2, 1};
  f.stores[0]->start_reaper();
  f.stores[0]->prepare(obj, txn, 1, state_of("orphan"));
  f.sim.run_until(ObjectStore::kOrphanShadowAge + 2 * ObjectStore::kReaperPeriod);
  EXPECT_FALSE(f.stores[0]->has_shadow(txn));
  EXPECT_GE(f.stores[0]->counters().get("store.reaped_orphan_shadows"), 1u);
  f.stores[0]->stop_reaper();
  f.sim.run();  // queue drains once the loop observes the stop flag
}

}  // namespace
}  // namespace gv::store
