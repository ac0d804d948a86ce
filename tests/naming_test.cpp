// Tests for the naming-and-binding service: the Object Server database
// (Sv, use lists, quiescence), the Object State database (St, Exclude/
// Include under both locking policies), transactional semantics of both,
// per-entry persistence across naming-node crashes, and the use-list
// janitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "actions/atomic_action.h"
#include "actions/coordinator_log.h"
#include "naming/group_view_db.h"
#include "naming/janitor.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace gv::naming {
namespace {

using actions::AtomicAction;
using actions::ActionRuntime;

// Cluster layout: node 0 = naming node, 1..N-1 free for clients/servers.
struct Fixture {
  sim::Simulator sim{31};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::unique_ptr<actions::TxnRegistry> naming_txns;
  std::unique_ptr<store::ObjectStore> naming_store;
  std::unique_ptr<GroupViewDb> gvdb;
  std::unique_ptr<actions::CoordinatorLog> naming_log;  // the janitor's
  std::unique_ptr<ActionRuntime> rt;  // a client runtime on node 1

  Uid obj{100, 1};

  explicit Fixture(std::size_t nodes = 6, ExcludePolicy policy = ExcludePolicy::ExcludeWriteLock) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    naming_txns = std::make_unique<actions::TxnRegistry>(fabric->endpoint(0));
    naming_store = std::make_unique<store::ObjectStore>(cluster.node(0), fabric->endpoint(0));
    gvdb = std::make_unique<GroupViewDb>(cluster.node(0), *naming_store, fabric->endpoint(0),
                                         *naming_txns, NamingConfig{}, policy);
    naming_log = std::make_unique<actions::CoordinatorLog>(fabric->endpoint(0));
    rt = std::make_unique<ActionRuntime>(fabric->endpoint(1), 0xC11);
    gvdb->create_object(obj, {2, 3, 4}, {2, 3, 4});
  }

  // A client runtime on `node` (node 1's is `rt`).
  ActionRuntime& runtime_at(NodeId node) {
    if (node == 1) return *rt;
    auto& r = clients[node];
    if (!r) r = std::make_unique<ActionRuntime>(fabric->endpoint(node), 0xC10 + node);
    return *r;
  }
  std::map<NodeId, std::unique_ptr<ActionRuntime>> clients;

  // Run a coroutine to completion.
  template <typename F>
  void run(F&& body) {
    sim.spawn(std::forward<F>(body));
    sim.run();
  }
};

// GetServer through S1's naming read, with the Sv and St locks both
// under `action`.
sim::Task<Result<SvView>> get_server(Fixture& f, Uid object, Uid action) {
  auto v = co_await osdb_bind_read(f.rt->endpoint(), 0, object, action);
  if (!v.ok()) co_return v.error();
  co_return std::move(v).value().sv;
}

// One osdb.bind of `client` under a client action that ends right after
// it (St's read lock lives as long as that action): the binder action
// named `token`, Removing `remove`, picking `want` servers and committing
// at the naming node.
sim::Task<Result<BindReply>> bind_once(Fixture& f, NodeId client, Uid object, std::uint32_t want,
                                       Uid token, std::vector<NodeId> remove) {
  ActionRuntime& rt = f.runtime_at(client);
  AtomicAction action{rt};
  const std::vector<NodeId> avoid;
  auto r = co_await osdb_bind(rt.endpoint(), 0, object, action.uid(), token, want, avoid, remove,
                              Uid{});
  action.enlist({0, kGvdbService});
  (void)co_await action.commit();
  co_return r;
}

// A binder action for `client` that picks `hosts` (Sv order), recording
// binding `token` on them.
sim::Task<Status> record_binding(Fixture& f, Uid object, NodeId client, std::vector<NodeId> hosts,
                                 Uid token) {
  auto r = co_await bind_once(f, client, object, static_cast<std::uint32_t>(hosts.size()), token,
                            std::vector<NodeId>{});
  if (!r.ok()) co_return r.error();
  EXPECT_EQ(r.value().servers, hosts);
  co_return ok_status();
}

// One binding's Decrement.
sim::Task<Status> decrement(Fixture& f, Uid object, NodeId client, std::vector<NodeId> hosts,
                            Uid token) {
  std::vector<UseRelease> bindings{UseRelease{object, std::move(hosts), token}};
  co_return co_await osdb_decrement(f.rt->endpoint(), 0, client, std::move(bindings));
}

// True if some client is bound through `server` in view `v`.
bool in_use(const SvView& v, NodeId server) {
  for (const UseEntry& u : v.use)
    if (u.server == server && u.count > 0) return true;
  return false;
}

// Live bindings of `client` on `object`'s use lists, summed over servers.
std::uint32_t uses_of(Fixture& f, const Uid& object, NodeId client) {
  std::uint32_t n = 0;
  auto v = f.gvdb->servers().peek_view(object);
  if (v.ok())
    for (const UseEntry& u : v.value().use)
      if (u.client == client) n += u.count;
  return n;
}

// ------------------------------------------------------ ObjectServerDb

TEST(ObjectServerDb, GetServerReturnsSvUnderReadLock) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto v = co_await get_server(f, f.obj, act.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{2, 3, 4}));
      EXPECT_TRUE(v.value().use.empty());
    }
    // The entry is read-locked by this action until it ends.
    EXPECT_TRUE(f.gvdb->locks().holds({f.obj, kSvPart}, act.uid(), actions::LockMode::Read));
    act.enlist({0, kGvdbService});
    (void)co_await act.commit();
    EXPECT_EQ(f.gvdb->locks().holder_count({f.obj, kSvPart}), 0u);
  }(f));
}

TEST(ObjectServerDb, UnknownObjectIsNotFound) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto v = co_await get_server(f, Uid{9, 9}, act.uid());
    EXPECT_EQ(v.error(), Err::NotFound);
    (void)co_await act.abort();
  }(f));
}

TEST(ObjectServerDb, ConcurrentReadersShareTheEntry) {
  Fixture f;
  int ok_count = 0;
  for (int i = 0; i < 3; ++i) {
    f.sim.spawn([](Fixture& f, int& ok_count) -> sim::Task<> {
      AtomicAction act{*f.rt};
      auto v = co_await get_server(f, f.obj, act.uid());
      if (v.ok()) ++ok_count;
      act.enlist({0, kGvdbService});
      (void)co_await act.commit();
    }(f, ok_count));
  }
  f.sim.run();
  EXPECT_EQ(ok_count, 3);
}

TEST(ObjectServerDb, RemoveCommitUpdatesSv) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
    act.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await act.commit()).ok());
    // A later reader sees the shrunk Sv.
    AtomicAction act2{*f.rt};
    auto v = co_await get_server(f, f.obj, act2.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{2, 4}));
    }
    act2.enlist({0, kGvdbService});
    (void)co_await act2.commit();
  }(f));
}

TEST(ObjectServerDb, AbortRollsBackRemoveAndInsert) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid())).ok());
    EXPECT_TRUE((co_await osdb_insert(f.rt->endpoint(), 0, f.obj, 5, act.uid())).ok());
    act.enlist({0, kGvdbService});
    (void)co_await act.abort();

    AtomicAction act2{*f.rt};
    auto v = co_await get_server(f, f.obj, act2.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{2, 3, 4}));
    }
    act2.enlist({0, kGvdbService});
    (void)co_await act2.commit();
  }(f));
}

TEST(ObjectServerDb, WriteLockBlocksWhileReaderHolds) {
  // S1's core property: while a client's action holds the read lock, a
  // Remove (write) from another action is refused.
  Fixture f;
  Err remove_err = Err::None;
  f.run([](Fixture& f, Err& remove_err) -> sim::Task<> {
    AtomicAction reader{*f.rt};
    (void)co_await get_server(f, f.obj, reader.uid());
    reader.enlist({0, kGvdbService});

    AtomicAction writer{*f.rt};
    Status s = co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, writer.uid());
    remove_err = s.error();
    (void)co_await writer.abort();
    (void)co_await reader.commit();
  }(f, remove_err));
  EXPECT_EQ(remove_err, Err::LockRefused);
}

TEST(ObjectServerDb, IncrementDecrementMaintainUseLists) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const Uid token = f.rt->new_uid();
    std::vector<NodeId> both{2, 3};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, both, token)).ok());
    // The Increment ended the bind action: its write lock is released.
    EXPECT_EQ(f.gvdb->locks().holder_count({f.obj, kSvPart}), 0u);

    AtomicAction a2{*f.rt};
    auto v = co_await get_server(f, f.obj, a2.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_FALSE(v.value().use.empty());
      EXPECT_TRUE(in_use(v.value(), 2));
      EXPECT_TRUE(in_use(v.value(), 3));
      EXPECT_FALSE(in_use(v.value(), 4));
    }
    a2.enlist({0, kGvdbService});
    (void)co_await a2.commit();

    // Decrement needs no client action.
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, both, token)).ok());

    AtomicAction a4{*f.rt};
    auto v2 = co_await get_server(f, f.obj, a4.uid());
    EXPECT_TRUE(v2.ok());
    if (v2.ok()) {
      EXPECT_TRUE(v2.value().use.empty());
    }
    a4.enlist({0, kGvdbService});
    (void)co_await a4.commit();
  }(f));
}

TEST(ObjectServerDb, InsertRefusedWhileObjectInUse) {
  // Sec 4.1.2: a recovered server node runs Insert as a quiescence check;
  // it must fail while any client is using the object.
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const Uid user = f.rt->new_uid();
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, user)).ok());

    AtomicAction recoverer{*f.rt};
    Status s = co_await osdb_insert(f.rt->endpoint(), 0, f.obj, 3, recoverer.uid());
    EXPECT_EQ(s.error(), Err::NotQuiescent);
    // Even a refused operation leaves the entry write-locked by this
    // action; the abort must reach the database to release it.
    recoverer.enlist({0, kGvdbService});
    (void)co_await recoverer.abort();

    // After the user departs, Insert succeeds (as a no-op membership check).
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, two, user)).ok());

    AtomicAction retry{*f.rt};
    EXPECT_TRUE((co_await osdb_insert(f.rt->endpoint(), 0, f.obj, 3, retry.uid())).ok());
    retry.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await retry.commit()).ok());
  }(f));
}

TEST(ObjectServerDb, NestedActionInheritsLockToParent) {
  // S1's mechanism: GetServer in a nested action; after nested commit the
  // parent holds the read lock.
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction top{*f.rt};
    {
      AtomicAction nested{*f.rt, &top};
      (void)co_await get_server(f, f.obj, nested.uid());
      nested.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await nested.commit()).ok());
    }
    const actions::LockKey lock{f.obj, kSvPart};
    EXPECT_TRUE(f.gvdb->locks().holds(lock, top.uid(), actions::LockMode::Read));
    (void)co_await top.commit();
    EXPECT_EQ(f.gvdb->locks().holder_count(lock), 0u);
  }(f));
}

TEST(ObjectServerDb, PersistsAcrossNamingNodeCrash) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    // A binder action: one call Removes, Increments and commits both.
    std::vector<NodeId> four{4};
    auto r = co_await bind_once(f, 1, f.obj, 1, f.rt->new_uid(), four);
    EXPECT_TRUE(r.ok() && r.value().servers == std::vector<NodeId>{2});
  }(f));

  f.cluster.node(0).crash();
  f.cluster.node(0).recover();

  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto v = co_await get_server(f, f.obj, act.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv, (std::vector<NodeId>{2, 3}));
      EXPECT_TRUE(in_use(v.value(), 2));  // committed use count survived
    }
    act.enlist({0, kGvdbService});
    (void)co_await act.commit();
  }(f));
}

TEST(ObjectServerDb, UncommittedChangesLostOnNamingNodeCrash) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    (void)co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 4, act.uid());
    // No commit: crash wipes the volatile applied-but-uncommitted edit.
  }(f));
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto v = co_await get_server(f, f.obj, act.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv.size(), 3u);
    }
    act.enlist({0, kGvdbService});
    (void)co_await act.commit();
  }(f));
}

// ------------------------------------------------------- ObjectStateDb

TEST(ObjectStateDb, GetViewExcludeInclude) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto st = co_await ostdb_get_view(f.rt->endpoint(), 0, f.obj, act.uid());
    EXPECT_TRUE(st.ok());
    if (st.ok()) {
      EXPECT_EQ(st.value().st, (std::vector<NodeId>{2, 3, 4}));
      EXPECT_GT(st.value().epoch, 0u);
    }

    std::vector<ExcludeItem> drop3{{f.obj, {3}}};
    EXPECT_TRUE((co_await ostdb_exclude(f.rt->endpoint(), 0, drop3, act.uid())).ok());
    act.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await act.commit()).ok());

    EXPECT_EQ(f.gvdb->states().peek(f.obj), (std::vector<NodeId>{2, 4}));

    AtomicAction act2{*f.rt};
    EXPECT_TRUE((co_await ostdb_include(f.rt->endpoint(), 0, f.obj, 3, act2.uid())).ok());
    act2.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await act2.commit()).ok());
    EXPECT_EQ(f.gvdb->states().peek(f.obj).size(), 3u);
  }(f));
}

TEST(ObjectStateDb, ExcludeBatchSpansObjects) {
  Fixture f;
  Uid obj2{100, 2};
  f.gvdb->create_object(obj2, {2, 3}, {2, 3});
  f.run([](Fixture& f, Uid obj2) -> sim::Task<> {
    AtomicAction act{*f.rt};
    std::vector<ExcludeItem> items{{f.obj, {2, 3}}, {obj2, {3}}};
    EXPECT_TRUE((co_await ostdb_exclude(f.rt->endpoint(), 0, items, act.uid())).ok());
    act.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await act.commit()).ok());
  }(f, obj2));
  EXPECT_EQ(f.gvdb->states().peek(f.obj), (std::vector<NodeId>{4}));
  EXPECT_EQ(f.gvdb->states().peek(obj2), (std::vector<NodeId>{2}));
}

TEST(ObjectStateDb, ExcludeRolledBackOnAbort) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    std::vector<ExcludeItem> items{{f.obj, {2, 3}}};
    (void)co_await ostdb_exclude(f.rt->endpoint(), 0, items, act.uid());
    act.enlist({0, kGvdbService});
    (void)co_await act.abort();
  }(f));
  auto st = f.gvdb->states().peek(f.obj);
  std::sort(st.begin(), st.end());
  EXPECT_EQ(st, (std::vector<NodeId>{2, 3, 4}));
}

// The centrepiece of sec 4.2.1: Exclude while OTHER clients hold read
// locks. With the exclude-write lock it succeeds; with plain write
// promotion it is refused.
TEST(ObjectStateDb, ExcludeSharesWithReadersUnderExcludeWritePolicy) {
  Fixture f{6, ExcludePolicy::ExcludeWriteLock};
  Err got = Err::Timeout;
  f.run([](Fixture& f, Err& got) -> sim::Task<> {
    // Reader holds the entry (simulating another client mid-action).
    AtomicAction reader{*f.rt};
    (void)co_await ostdb_get_view(f.rt->endpoint(), 0, f.obj, reader.uid());
    reader.enlist({0, kGvdbService});

    // Committing client: GetView (read) then Exclude (promotion).
    AtomicAction committer{*f.rt};
    (void)co_await ostdb_get_view(f.rt->endpoint(), 0, f.obj, committer.uid());
    std::vector<ExcludeItem> drop4{{f.obj, {4}}};
    Status s = co_await ostdb_exclude(f.rt->endpoint(), 0, drop4, committer.uid());
    got = s.ok() ? Err::None : s.error();
    committer.enlist({0, kGvdbService});
    (void)co_await committer.commit();
    (void)co_await reader.commit();
  }(f, got));
  EXPECT_EQ(got, Err::None);
  EXPECT_EQ(f.gvdb->states().peek(f.obj), (std::vector<NodeId>{2, 3}));
}

TEST(ObjectStateDb, ExcludeRefusedUnderPlainWritePolicy) {
  Fixture f{6, ExcludePolicy::PromoteToWrite};
  Err got = Err::None;
  f.run([](Fixture& f, Err& got) -> sim::Task<> {
    AtomicAction reader{*f.rt};
    (void)co_await ostdb_get_view(f.rt->endpoint(), 0, f.obj, reader.uid());
    reader.enlist({0, kGvdbService});

    AtomicAction committer{*f.rt};
    (void)co_await ostdb_get_view(f.rt->endpoint(), 0, f.obj, committer.uid());
    std::vector<ExcludeItem> drop4{{f.obj, {4}}};
    Status s = co_await ostdb_exclude(f.rt->endpoint(), 0, drop4, committer.uid());
    got = s.ok() ? Err::None : s.error();
    (void)co_await committer.abort();  // the paper: the action must abort
    (void)co_await reader.commit();
  }(f, got));
  EXPECT_EQ(got, Err::LockRefused);
  EXPECT_EQ(f.gvdb->states().peek(f.obj).size(), 3u);
}

TEST(ObjectStateDb, TwoConcurrentExcludersConflictEvenWithEwLock) {
  Fixture f;
  Err second = Err::None;
  f.run([](Fixture& f, Err& second) -> sim::Task<> {
    AtomicAction c1{*f.rt};
    std::vector<ExcludeItem> drop2{{f.obj, {2}}};
    EXPECT_TRUE((co_await ostdb_exclude(f.rt->endpoint(), 0, drop2, c1.uid())).ok());
    c1.enlist({0, kGvdbService});

    AtomicAction c2{*f.rt};
    std::vector<ExcludeItem> drop3{{f.obj, {3}}};
    Status s = co_await ostdb_exclude(f.rt->endpoint(), 0, drop3, c2.uid());
    second = s.ok() ? Err::None : s.error();
    (void)co_await c2.abort();
    (void)co_await c1.commit();
  }(f, second));
  EXPECT_EQ(second, Err::LockRefused);
}

// ------------------------------------------------ per-entry persistence

// Membership of both databases' entries for `object`, as text. Epochs are
// left out: an abort's epoch bumps are volatile and need not survive a
// crash (the naming node's incarnation covers them). St is sorted: an
// undone Exclude re-appends, so St order is not significant.
std::string entry_state(Fixture& f, const Uid& object) {
  auto sv = f.gvdb->servers().peek_view(object);
  if (!sv.ok()) return "missing";
  auto join = [](const std::vector<NodeId>& nodes) {
    std::string out;
    for (NodeId n : nodes) out += (out.empty() ? "" : ",") + std::to_string(n);
    return out;
  };
  std::string use;
  for (const UseEntry& u : sv.value().use)
    use += (use.empty() ? "" : ",") + std::to_string(u.server) + ":" + std::to_string(u.client) +
           "x" + std::to_string(u.count);
  std::vector<NodeId> st = f.gvdb->states().peek(object);
  std::sort(st.begin(), st.end());
  return "sv=" + join(sv.value().sv) + " use=" + use + " st=" + join(st);
}

using StableRecords = std::map<Uid, Buffer>;

StableRecords stable_records(const Fixture& f) { return f.naming_store->records(kGvdbUid); }

void crash_naming_node(Fixture& f) {
  f.cluster.node(0).crash();
  f.cluster.node(0).recover();
}

// A commit persists only the entries its own action touched. P's
// uncommitted Remove on X must not reach stable storage when C commits
// an edit of Y: after a crash Sv(X) is the committed {2, 3, 4}.
TEST(NamingPersistence, CommitDoesNotPersistAnotherActionsUncommittedRemove) {
  Fixture f;
  const Uid y{100, 2};
  f.gvdb->create_object(y, {2, 3}, {2, 3});
  f.run([](Fixture& f, Uid y) -> sim::Task<> {
    AtomicAction p{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 4, p.uid())).ok());
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, y, 1, two, f.rt->new_uid())).ok());
    // P never ends: the naming node crashes with its edit in flight.
  }(f, y));
  crash_naming_node(f);
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3,4");
  EXPECT_EQ(entry_state(f, y), "sv=2,3 use=2:1x1 st=2,3");
}

// The same for ostdb: an uncommitted Exclude beside a committed Include.
TEST(NamingPersistence, CommitDoesNotPersistAnotherActionsUncommittedExclude) {
  Fixture f;
  const Uid y{100, 2};
  f.gvdb->create_object(y, {2, 3}, {2, 3});
  f.run([](Fixture& f, Uid y) -> sim::Task<> {
    AtomicAction p{*f.rt};
    std::vector<ExcludeItem> drop4{{f.obj, {4}}};
    EXPECT_TRUE((co_await ostdb_exclude(f.rt->endpoint(), 0, drop4, p.uid())).ok());
    AtomicAction c{*f.rt};
    EXPECT_TRUE((co_await ostdb_include(f.rt->endpoint(), 0, y, 4, c.uid())).ok());
    c.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await c.commit()).ok());
  }(f, y));
  crash_naming_node(f);
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3,4");
  EXPECT_EQ(entry_state(f, y), "sv=2,3 use= st=2,3,4");
}

// Commits that edit several entries — a batched Exclude, a nested action
// whose child edits merge into its parent, a use-list purge — survive a
// naming-node crash complete, and an aborted action beside them leaves
// no trace in stable storage.
TEST(NamingPersistence, MultiEntryCommitsSurviveCrashComplete) {
  Fixture f;
  const Uid a{100, 2}, b{100, 3}, c{100, 4};
  for (const Uid& o : {a, b, c}) f.gvdb->create_object(o, {2, 3, 4}, {2, 3, 4});
  f.run([](Fixture& f, Uid a, Uid b, Uid c) -> sim::Task<> {
    rpc::RpcEndpoint& ep = f.rt->endpoint();
    const std::vector<NodeId> two{2};
    {  // client 5 binds to obj and a through server 2, one bind action each
      EXPECT_TRUE((co_await record_binding(f, f.obj, 5, two, f.rt->new_uid())).ok());
      EXPECT_TRUE((co_await record_binding(f, a, 5, two, f.rt->new_uid())).ok());
    }
    {  // one Exclude batch over three objects
      AtomicAction ex{*f.rt};
      std::vector<ExcludeItem> items{{a, {4}}, {b, {3, 4}}, {c, {2}}};
      EXPECT_TRUE((co_await ostdb_exclude(ep, 0, items, ex.uid())).ok());
      ex.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await ex.commit()).ok());
    }
    {  // nested: the child's edits are committed by the parent
      AtomicAction top{*f.rt};
      EXPECT_TRUE((co_await osdb_remove(ep, 0, b, 4, top.uid())).ok());
      {
        AtomicAction child{*f.rt, &top};
        EXPECT_TRUE((co_await osdb_remove(ep, 0, c, 3, child.uid())).ok());
        EXPECT_TRUE((co_await ostdb_include(ep, 0, c, 2, child.uid())).ok());
        child.enlist({0, kGvdbService});
        EXPECT_TRUE((co_await child.commit()).ok());
      }
      top.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await top.commit()).ok());
    }
    {  // the janitor's cleanup of client 5
      AtomicAction purge{*f.rt};
      auto purged = co_await f.gvdb->purge_client(5, purge.uid(), 1);
      EXPECT_TRUE(purged.ok() && purged.value() == 2u);
      purge.enlist({0, kGvdbService});
      EXPECT_TRUE((co_await purge.commit()).ok());
    }
    {  // edits across both databases, aborted
      AtomicAction doomed{*f.rt};
      EXPECT_TRUE((co_await osdb_remove(ep, 0, f.obj, 2, doomed.uid())).ok());
      EXPECT_TRUE((co_await osdb_remove(ep, 0, a, 3, doomed.uid())).ok());
      std::vector<ExcludeItem> items{{f.obj, {3}}, {c, {4}}};
      EXPECT_TRUE((co_await ostdb_exclude(ep, 0, items, doomed.uid())).ok());
      doomed.enlist({0, kGvdbService});
      (void)co_await doomed.abort();
    }
  }(f, a, b, c));
  const std::map<Uid, std::string> expected{
      {f.obj, "sv=2,3,4 use= st=2,3,4"},
      {a, "sv=2,3,4 use= st=2,3"},
      {b, "sv=2,3 use= st=2"},
      {c, "sv=2,4 use= st=2,3,4"},
  };
  for (const auto& [object, state] : expected) EXPECT_EQ(entry_state(f, object), state);
  crash_naming_node(f);
  for (const auto& [object, state] : expected)
    EXPECT_EQ(entry_state(f, object), state) << "after reload: " << object.to_string();
  EXPECT_EQ(f.naming_store->records(kGvdbUid).size(), 4u);  // one record per object
  // The records are the store's private tables, not replicated objects.
  EXPECT_TRUE(f.naming_store->local_objects().empty());
  EXPECT_TRUE(f.naming_store->suspect_objects().empty());
}

// Read-only naming actions (GetServer, GetView, get_views, validate)
// commit without writing a single stable record.
TEST(NamingPersistence, ReadOnlyActionsWriteNothing) {
  Fixture f;
  const StableRecords before = stable_records(f);
  const std::uint64_t puts = f.naming_store->counters().get("store.record_put");
  f.run([](Fixture& f) -> sim::Task<> {
    rpc::RpcEndpoint& ep = f.rt->endpoint();
    AtomicAction act{*f.rt};
    EXPECT_TRUE((co_await get_server(f, f.obj, act.uid())).ok());
    EXPECT_TRUE((co_await ostdb_get_view(ep, 0, f.obj, act.uid())).ok());
    std::vector<Uid> objects{f.obj};
    auto views = co_await gvdb_get_views(ep, 0, objects);
    EXPECT_TRUE(views.ok() && views.value().views.size() == 1u && views.value().views[0].view);
    if (views.ok() && views.value().views.size() == 1u && views.value().views[0].view) {
      const ObjectViews& v = *views.value().views[0].view;
      std::vector<ValidateItem> items{{f.obj, v.sv_epoch, v.st_epoch}};
      EXPECT_TRUE(
          (co_await gvdb_validate(ep, 0, views.value().incarnation, items, act.uid())).ok());
    }
    act.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await act.commit()).ok());
  }(f));
  // One participant for both tables, and it only read: it votes
  // read-only, releases its read locks and needs no phase 2.
  EXPECT_EQ(f.gvdb->counters().get("db.read_only_vote"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("db.commit"), 0u);
  EXPECT_EQ(f.rt->counters().get("action.no_phase2"), 1u);
  EXPECT_EQ(f.gvdb->locks().table_depth(), 0u);  // the read locks are gone
  EXPECT_EQ(f.naming_store->counters().get("store.record_put"), puts);
  EXPECT_TRUE(stable_records(f) == before);
}

// ------------------------------------------- bind tokens: idempotence

// A Decrement of a binding the client does not hold changes nothing, so
// aborting the action that sent it cannot leave a phantom use behind
// (the object would look active forever, and every later binder would
// have to join server 2). Reached when the janitor purged a client that
// was partitioned but alive, and that client's unbind then aborted.
TEST(ObjectServerDb, AbortedDecrementOfAbsentCountLeavesNoPhantom) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction a{*f.rt};
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, two, a.uid())).ok());
    a.enlist({0, kGvdbService});
    (void)co_await a.abort();
  }(f));
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
}

// The janitor's scenario end to end: a purge of a live client, then that
// client's own unbind. The token is gone already, so the unbind answers
// OK and the object stays quiescent.
TEST(ObjectServerDb, UnbindAfterPurgeLeavesNoPhantom) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const Uid token = f.rt->new_uid();
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, token)).ok());
    AtomicAction purge{*f.rt};
    auto purged = co_await f.gvdb->purge_client(1, purge.uid(), 1);
    EXPECT_TRUE(purged.ok() && purged.value() == 1u);
    purge.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await purge.commit()).ok());
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, two, token)).ok());
  }(f));
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_EQ(f.gvdb->counters().get("osdb.decrement_absent"), 1u);
}

// An aborted purge restores exactly the tokens it removed: a binding the
// client dropped meanwhile does not come back, one it still holds does.
TEST(ObjectServerDb, AbortedPurgeRestoresOnlyItsTokens) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const Uid first = f.rt->new_uid(), second = f.rt->new_uid();
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, first)).ok());
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, second)).ok());
    EXPECT_EQ(uses_of(f, f.obj, 1), 2u);
    AtomicAction purge{*f.rt};
    auto purged = co_await f.gvdb->purge_client(1, purge.uid(), 1);
    EXPECT_TRUE(purged.ok() && purged.value() == 2u);
    purge.enlist({0, kGvdbService});
    (void)co_await purge.abort();
    EXPECT_EQ(uses_of(f, f.obj, 1), 2u);
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, two, first)).ok());
    EXPECT_EQ(uses_of(f, f.obj, 1), 1u);
  }(f));
}

// A bind resent after it committed answers OK from its token with the
// servers it picked, in the same incarnation and in the next one, and
// records nothing twice.
TEST(ObjectServerDb, ResentIncrementAnswersFromItsToken) {
  Fixture f;
  const Uid token = f.rt->new_uid();
  const std::vector<NodeId> both{2, 3};
  f.run([](Fixture& f, Uid token, std::vector<NodeId> both) -> sim::Task<> {
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, both, token)).ok());
    auto again = co_await bind_once(f, 1, f.obj, 2, token, std::vector<NodeId>{});
    EXPECT_TRUE(again.ok() && again.value().servers == both);
    EXPECT_EQ(uses_of(f, f.obj, 1), 2u);  // one binding on each of 2 and 3
  }(f, token, both));
  crash_naming_node(f);
  f.run([](Fixture& f, Uid token, std::vector<NodeId> both) -> sim::Task<> {
    auto again = co_await bind_once(f, 1, f.obj, 2, token, std::vector<NodeId>{});
    EXPECT_TRUE(again.ok() && again.value().servers == both);
  }(f, token, both));
  EXPECT_EQ(uses_of(f, f.obj, 1), 2u);
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind_resent"), 2u);
}

// A bind whose token was already released is refused and changes
// nothing, Removes included: a copy that arrives late cannot record a
// binding nobody will release. Released by a Decrement that found it
// absent (its client gave the bind up with no reply), or by the same
// client's next bind.
TEST(ObjectServerDb, IncrementOfAnActionNotHeldIsRefused) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    const Uid given_up = f.rt->new_uid();
    const std::vector<NodeId> anywhere;
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, anywhere, given_up)).ok());
    std::vector<NodeId> four{4};
    auto late = co_await bind_once(f, 1, f.obj, 1, given_up, four);
    EXPECT_EQ(late.error(), Err::Aborted);
    EXPECT_EQ(f.gvdb->locks().holder_count({f.obj, kSvPart}), 0u);
    // A binding the client's next bind released in its own call: a late
    // copy of the first bind is refused as well.
    rpc::RpcEndpoint& ep = f.rt->endpoint();
    AtomicAction client{*f.rt};
    const Uid first = f.rt->new_uid(), second = f.rt->new_uid();
    const std::vector<NodeId> none;
    EXPECT_TRUE((co_await osdb_bind(ep, 0, f.obj, client.uid(), first, 1, none, none, Uid{})).ok());
    EXPECT_TRUE((co_await osdb_bind(ep, 0, f.obj, client.uid(), second, 1, none, none, first)).ok());
    EXPECT_EQ(uses_of(f, f.obj, 1), 1u);
    auto copy = co_await osdb_bind(ep, 0, f.obj, client.uid(), first, 1, none, none, Uid{});
    EXPECT_EQ(copy.error(), Err::Aborted);
    EXPECT_EQ(uses_of(f, f.obj, 1), 1u);
    EXPECT_TRUE((co_await decrement(f, f.obj, 1, anywhere, second)).ok());
    client.enlist({0, kGvdbService});
    (void)co_await client.commit();
  }(f));
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3,4");
  EXPECT_EQ(f.gvdb->counters().get("osdb.bind_refused"), 2u);
  crash_naming_node(f);
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3,4");
}

// An abort that overtakes its action's own queued Insert ends the wait
// (ROADMAP item 15): the Insert answers Aborted, changes nothing and
// leaves the entry unlocked, and no refusal is counted.
TEST(ObjectServerDb, AbortEndsTheActionsQueuedInsert) {
  Fixture f;
  Status inserted = Err::None;
  f.run([](Fixture& f, Status& inserted) -> sim::Task<> {
    AtomicAction holder{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, holder.uid())).ok());
    holder.enlist({0, kGvdbService});
    AtomicAction late{*f.rt};
    late.enlist({0, kGvdbService});
    f.sim.spawn([](Fixture& f, Uid late, Status& inserted) -> sim::Task<> {
      inserted = co_await osdb_insert(f.rt->endpoint(), 0, f.obj, 5, late);
    }(f, late.uid(), inserted));
    co_await f.sim.sleep(5 * sim::kMillisecond);
    (void)co_await late.abort();
    (void)co_await holder.abort();
  }(f, inserted));
  EXPECT_EQ(inserted.error(), Err::Aborted);
  EXPECT_EQ(f.gvdb->locks().holder_count({f.obj, kSvPart}), 0u);
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3,4");
  EXPECT_EQ(f.gvdb->counters().get("osdb.lock_refused"), 0u);
}

// ----------------------------------------------------------- Janitor

TEST(UseListJanitor, PurgesCrashedClientsEntries) {
  Fixture f;
  UseListJanitor janitor{*f.gvdb, f.fabric->endpoint(0), f.naming_log.get()};
  // Client on node 1 binds, then crashes without decrementing.
  f.run([](Fixture& f) -> sim::Task<> {
    std::vector<NodeId> both{2, 3};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, both, f.rt->new_uid())).ok());
  }(f));
  f.cluster.node(1).crash();

  std::uint32_t purged = 0;
  f.run([](UseListJanitor& j, std::uint32_t& purged) -> sim::Task<> {
    purged = co_await j.sweep();
  }(janitor, purged));
  EXPECT_EQ(purged, 2u);
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
}

// The entries are hashed; the janitor's client list still follows a
// walk of the entries in UID order, each client where it first appears,
// whatever the order the entries were made in.
TEST(ObjectServerDb, ClientsInUseFollowUidOrderWhateverTheInsertOrder) {
  ObjectServerDb db;
  std::vector<NodeId> expected;
  for (std::uint64_t k = 40; k >= 1; --k) {
    ObjectServerDb::Entry& e = db.entries[Uid{7, k}];
    e.sv = {2};
    e.use[2][static_cast<NodeId>(140 - k / 2)].push_back(Uid{9, k});
  }
  db.entries[Uid{7, 0}].sv = {2};  // no use list: no client
  for (NodeId client = 140; client >= 120; --client) expected.push_back(client);
  EXPECT_EQ(db.clients_in_use(), expected);
}

TEST(UseListJanitor, LeavesLiveClientsAlone) {
  Fixture f;
  UseListJanitor janitor{*f.gvdb, f.fabric->endpoint(0), f.naming_log.get()};
  f.run([](Fixture& f) -> sim::Task<> {
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, f.rt->new_uid())).ok());
  }(f));

  std::uint32_t purged = 99;
  f.run([](UseListJanitor& j, std::uint32_t& purged) -> sim::Task<> {
    purged = co_await j.sweep();
  }(janitor, purged));
  EXPECT_EQ(purged, 0u);
  EXPECT_EQ(f.gvdb->servers().clients_in_use(), (std::vector<NodeId>{1}));
}

// The janitor purges under its own action through a local call. When
// that action's phase 2, a message to its own node, is lost, the orphan
// sweep must still find the action and end it: otherwise it holds the Sv
// write lock for the rest of the run, and no later purge or bind of the
// object gets it.
TEST(UseListJanitor, LostPurgeCommitIsSweptAsAnOrphan) {
  Fixture f;
  UseListJanitor janitor{*f.gvdb, f.fabric->endpoint(0), f.naming_log.get()};
  f.run([](Fixture& f) -> sim::Task<> {
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, f.rt->new_uid())).ok());
  }(f));
  f.cluster.node(1).crash();

  f.net.set_reachable(0, 0, false);  // the janitor's 2PC messages to itself are lost
  f.run([](UseListJanitor& j) -> sim::Task<> { (void)co_await j.sweep(); }(janitor));
  f.net.set_reachable(0, 0, true);
  f.sim.run_until(f.sim.now() + 5 * sim::kSecond);  // beyond the naming orphan age
  f.run([](Fixture& f) -> sim::Task<> { (void)co_await f.gvdb->sweep_orphans(); }(f));
  EXPECT_EQ(f.gvdb->locks().table_depth(), 0u);

  // The purge was rolled back with its action; the next sweep redoes it.
  std::uint32_t purged = 0;
  f.run([](UseListJanitor& j, std::uint32_t& purged) -> sim::Task<> {
    purged = co_await j.sweep();
  }(janitor, purged));
  EXPECT_EQ(purged, 1u);
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
}

// Hands the group view database's 2PC calls through. After a Yes vote it
// cuts node 0's link to itself: the vote's reply, already sent, lands,
// and the phase 2 that follows it is lost. The link comes back before the
// coordinator times that phase 2 out; the next two sends (the orphan
// sweep's outcome call and its reply) get through, and every self-send
// after them, a ping included, is lost.
class LosePhase2AndPing final : public actions::ServerParticipant {
 public:
  explicit LosePhase2AndPing(Fixture& f) : f_(f) {}
  sim::Task<actions::Vote> prepare(const Uid& txn, bool may_leave) override {
    const actions::Vote v = co_await f_.gvdb->prepare(txn, may_leave);
    if (v == actions::Vote::Yes) f_.sim.spawn(cut_links(f_));
    co_return v;
  }
  sim::Task<Status> commit(const Uid& txn) override { return f_.gvdb->commit(txn); }
  sim::Task<Status> abort(const Uid& txn) override { return f_.gvdb->abort(txn); }
  void nested_commit(const Uid& child, const Uid& parent) override {
    f_.gvdb->nested_commit(child, parent);
  }
  void nested_abort(const Uid& child) override { f_.gvdb->nested_abort(child); }

 private:
  static sim::Task<> cut_links(Fixture& f) {
    co_await f.sim.sleep(100);  // under the 500 us network floor
    f.net.set_reachable(0, 0, false);
    co_await f.sim.sleep(10 * sim::kMillisecond);  // the phase 2 is sent and lost
    f.net.set_reachable(0, 0, true);
    const std::uint64_t sends = f.net.counters().get("net.send");
    while (f.net.counters().get("net.send") < sends + 2) co_await f.sim.sleep(50);
    f.net.set_reachable(0, 0, false);
    co_await f.sim.sleep(sim::kSecond);
    f.net.set_reachable(0, 0, true);
  }

  Fixture& f_;
};

// The janitor's purge commits, but its phase 2 to its own node is lost.
// The orphan sweep that ends the janitor's pass must learn the commit
// from the naming node's coordinator log: a purge that committed is never
// rolled back, even when the ping that would decide an unknown outcome is
// lost.
TEST(UseListJanitor, CommittedPurgeSurvivesALostSelfPing) {
  Fixture f;
  UseListJanitor janitor{*f.gvdb, f.fabric->endpoint(0), f.naming_log.get()};
  LosePhase2AndPing gate{f};
  f.naming_txns->add(kGvdbService, &gate);
  f.run([](Fixture& f) -> sim::Task<> {
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, f.rt->new_uid())).ok());
  }(f));
  f.cluster.node(1).crash();

  std::uint32_t purged = 0;
  f.run([](UseListJanitor& j, std::uint32_t& purged) -> sim::Task<> {
    purged = co_await j.sweep();
  }(janitor, purged));
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(janitor.runtime().counters().get("action.commit_phase_miss"), 1u);
  EXPECT_EQ(f.gvdb->counters().get("db.orphan_owner_dead"), 0u);
  EXPECT_EQ(f.gvdb->counters().get("db.orphan_committed"), 1u);
  EXPECT_EQ(f.gvdb->locks().table_depth(), 0u);
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
}

TEST(UseListJanitor, PeriodicSweepRunsAutomatically) {
  Fixture f;
  UseListJanitor janitor{*f.gvdb, f.fabric->endpoint(0), f.naming_log.get(),
                         50 * sim::kMillisecond};
  janitor.start();
  // The janitor loop keeps the queue non-empty: drive with run_until.
  f.sim.spawn([](Fixture& f) -> sim::Task<> {
    std::vector<NodeId> two{2};
    EXPECT_TRUE((co_await record_binding(f, f.obj, 1, two, f.rt->new_uid())).ok());
    f.cluster.node(1).crash();
  }(f));
  f.sim.run_until(500 * sim::kMillisecond);
  janitor.stop();
  f.sim.run();
  EXPECT_TRUE(f.gvdb->servers().clients_in_use().empty());
  EXPECT_GE(janitor.counters().get("janitor.purged"), 1u);
}

// --------------------------------------------------- orphan cleanup

TEST(OrphanCleanup, DeadClientsActionAbortedOnSweep) {
  // A client takes a write lock (Remove) and crashes before finishing;
  // the orphan sweep rolls the mutation back and frees the entry.
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    (void)co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid());
    // No commit: the client node dies.
  }(f));
  f.cluster.node(1).crash();

  std::uint32_t swept = 0;
  f.sim.spawn([](Fixture& f, std::uint32_t& swept) -> sim::Task<> {
    swept = co_await f.gvdb->sweep_orphans();
  }(f, swept));
  f.sim.run();
  EXPECT_EQ(swept, 1u);
  EXPECT_EQ(f.gvdb->counters().get("db.orphan_owner_dead"), 1u);

  // The Remove was rolled back and the lock released: a new client can
  // read and write the entry again.
  f.cluster.node(1).recover();
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    auto v = co_await get_server(f, f.obj, act.uid());
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value().sv.size(), 3u);
    }
    act.enlist({0, kGvdbService});
    (void)co_await act.commit();
  }(f));
}

TEST(OrphanCleanup, LiveClientsActionLeftAlone) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    (void)co_await get_server(f, f.obj, act.uid());
    std::uint32_t swept = co_await f.gvdb->sweep_orphans();
    EXPECT_EQ(swept, 0u);  // owner (node 1) is alive and the action fresh
    act.enlist({0, kGvdbService});
    (void)co_await act.commit();
  }(f));
}

TEST(OrphanCleanup, AgedActionPresumedDeadEvenIfNodeAnswers) {
  // The owner node recovered into a new incarnation: it answers pings,
  // but the old action will never finish. Age-based presumed abort.
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    std::vector<ExcludeItem> drop4{{f.obj, {4}}};
    (void)co_await ostdb_exclude(f.rt->endpoint(), 0, drop4, act.uid());
  }(f));
  f.cluster.node(1).crash();
  f.cluster.node(1).recover();  // answers pings again, new epoch

  f.sim.run_until(f.sim.now() + 5 * sim::kSecond);  // beyond orphan_action_age
  std::uint32_t swept = 0;
  f.sim.spawn([](Fixture& f, std::uint32_t& swept) -> sim::Task<> {
    swept = co_await f.gvdb->sweep_orphans();
  }(f, swept));
  f.sim.run();
  EXPECT_EQ(swept, 1u);
  EXPECT_EQ(f.gvdb->counters().get("db.orphan_aged_out"), 1u);
  EXPECT_EQ(f.gvdb->states().peek(f.obj).size(), 3u);  // exclude rolled back
}

TEST(OrphanCleanup, LockConflictTriggersSweepAutomatically) {
  // The event-driven path: a second client's refused lock wait triggers
  // the sweep; its NEXT attempt succeeds without manual intervention.
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    AtomicAction act{*f.rt};
    (void)co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 3, act.uid());
  }(f));
  f.cluster.node(1).crash();
  f.cluster.node(1).recover();

  Err first = Err::None;
  Status second = Err::Timeout;
  f.run([](Fixture& f, Err& first, Status& second) -> sim::Task<> {
    AtomicAction a1{*f.rt};
    Status s1 = co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 4, a1.uid());
    first = s1.ok() ? Err::None : s1.error();
    a1.enlist({0, kGvdbService});
    (void)co_await a1.abort();
    // Give the triggered sweep time to ping the (alive) owner and apply
    // the age policy... the owner answers, so this relies on the sweep
    // finding the owner's node epoch-dead? No: node recovered. The
    // conflict-triggered sweep pings node 1: alive, action young ->
    // nothing reaped yet. Wait out the age and retry: now the sweep
    // (triggered by the new conflict) reaps it and the retry wins.
    co_await f.sim.sleep(4 * sim::kSecond);
    AtomicAction a2{*f.rt};
    Status s2 = co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 4, a2.uid());
    if (!s2.ok()) {
      // First post-age attempt may race the sweep; one retry settles it.
      a2.enlist({0, kGvdbService});
      (void)co_await a2.abort();
      co_await f.sim.sleep(100 * sim::kMillisecond);
      AtomicAction a3{*f.rt};
      second = co_await osdb_remove(f.rt->endpoint(), 0, f.obj, 4, a3.uid());
      a3.enlist({0, kGvdbService});
      (void)co_await a3.commit();
    } else {
      second = s2;
      a2.enlist({0, kGvdbService});
      (void)co_await a2.commit();
    }
  }(f, first, second));
  EXPECT_EQ(first, Err::LockRefused);  // orphan still held the lock
  EXPECT_TRUE(second.ok());            // cleaned up by the triggered sweep
}

// ---------------------------------------------- one group view database

// A bind holds Sv's lock for its one call: when its reply arrives nothing
// of the bind action is left at the naming node, so another action's
// GetView and validate of the entry are granted at once, and a second
// binder does not wait either.
TEST(GroupViewDb, BinderUpdateLockBlocksNoGetViewOrValidate) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    rpc::RpcEndpoint& ep = f.rt->endpoint();
    AtomicAction client{*f.rt};
    const Uid token = f.rt->new_uid();
    const std::vector<NodeId> none;
    auto bound = co_await osdb_bind(ep, 0, f.obj, client.uid(), token, 1, none, none, Uid{});
    EXPECT_TRUE(bound.ok() && bound.value().servers == std::vector<NodeId>{2});
    EXPECT_EQ(f.gvdb->locks().holder_count({f.obj, kSvPart}), 0u);
    EXPECT_TRUE(f.gvdb->locks().holds({f.obj, kStPart}, client.uid(), actions::LockMode::Read));

    const std::uint64_t waits = f.gvdb->locks().counters().get("lock.conflict_wait");
    const sim::SimTime t0 = f.sim.now();
    AtomicAction other{*f.rt};
    EXPECT_TRUE((co_await ostdb_get_view(ep, 0, f.obj, other.uid())).ok());
    std::vector<ValidateItem> items{
        {f.obj, f.gvdb->servers().epoch_of(f.obj), f.gvdb->states().epoch_of(f.obj)}};
    const std::uint64_t incarnation = f.cluster.node(0).epoch();
    EXPECT_TRUE((co_await gvdb_validate(ep, 0, incarnation, items, other.uid())).ok());
    AtomicAction second{*f.rt};
    auto joined =
        co_await osdb_bind(ep, 0, f.obj, second.uid(), f.rt->new_uid(), 2, none, none, Uid{});
    EXPECT_TRUE(joined.ok() && joined.value().active &&
                joined.value().servers == std::vector<NodeId>{2});
    EXPECT_EQ(f.gvdb->locks().counters().get("lock.conflict_wait"), waits);
    EXPECT_LT(f.sim.now() - t0, NamingConfig{}.lock_wait);
    for (AtomicAction* a : {&other, &second, &client}) {
      a->enlist({0, kGvdbService});
      EXPECT_TRUE((co_await a->commit()).ok());
    }
  }(f));
  EXPECT_EQ(uses_of(f, f.obj, 1), 2u);
  EXPECT_EQ(f.gvdb->locks().table_depth(), 0u);
}

// Sv and St of one object share a stable record. A commit that edited
// only St(X) must not persist another action's uncommitted edit of Sv(X).
TEST(NamingPersistence, CommitOfOnePartKeepsTheOtherPartCommitted) {
  Fixture f;
  f.run([](Fixture& f) -> sim::Task<> {
    rpc::RpcEndpoint& ep = f.rt->endpoint();
    AtomicAction p{*f.rt};
    EXPECT_TRUE((co_await osdb_remove(ep, 0, f.obj, 4, p.uid())).ok());
    AtomicAction c{*f.rt};
    std::vector<ExcludeItem> drop4{{f.obj, {4}}};
    EXPECT_TRUE((co_await ostdb_exclude(ep, 0, drop4, c.uid())).ok());
    c.enlist({0, kGvdbService});
    EXPECT_TRUE((co_await c.commit()).ok());
    // P never ends: the naming node crashes with its edit in flight.
  }(f));
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3 use= st=2,3");
  crash_naming_node(f);
  EXPECT_EQ(entry_state(f, f.obj), "sv=2,3,4 use= st=2,3");
}

}  // namespace
}  // namespace gv::naming
