// Oracle tests for the typed wire codec (rpc/wire.h). Each message kind
// the codec encodes keeps, as its reference, the hand-written Buffer
// pack_* sequence that used to produce it; the codec must write exactly
// those bytes, refuse every strict prefix of them, and a served method
// must refuse a truncated request before its handler runs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "actions/atomic_action.h"
#include "actions/coordinator_log.h"
#include "naming/group_view_db.h"
#include "replication/object_server.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "store/object_store.h"

namespace gv {
namespace {

using sim::NodeId;

Buffer bytes(std::initializer_list<std::uint8_t> b) { return Buffer{std::vector<std::uint8_t>(b)}; }

Buffer prefix(const Buffer& full, std::size_t n) {
  return Buffer{std::vector<std::uint8_t>(full.bytes().begin(),
                                          full.bytes().begin() + static_cast<long>(n))};
}

// encode() sizes its buffer exactly: one allocation, no slack.
Buffer exact(Buffer b) {
  EXPECT_EQ(b.capacity(), b.size());
  return b;
}

// The request a stub sends for `m`, encoded through its declaration.
template <typename R, typename... A>
Buffer request(const rpc::Rpc<R(A...)>&, const std::type_identity_t<A>&... args) {
  return exact(rpc::encode(args...));
}

// Every strict prefix of a request for `m` fails to decode, so the
// endpoint refuses it with BadRequest.
template <typename R, typename... A>
void expect_request_prefixes_refused(const rpc::Rpc<R(A...)>&, const Buffer& full) {
  for (std::size_t n = 0; n < full.size(); ++n) {
    Buffer cut = prefix(full, n);
    std::tuple<A...> in;
    EXPECT_FALSE(rpc::wire::get(cut, in)) << "prefix of " << n << " bytes decoded";
  }
}

// Every strict prefix of a reply body for `m` decodes to BadRequest.
template <typename R, typename... A>
void expect_reply_prefixes_refused(const rpc::Rpc<R(A...)>&, const Buffer& full) {
  for (std::size_t n = 0; n < full.size(); ++n) {
    Buffer cut = prefix(full, n);
    auto r = rpc::decode_reply<R>(cut);
    ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(r.error(), Err::BadRequest);
  }
}

template <typename R>
Buffer reply(R value) {
  return exact(rpc::encode_reply(Result<R>{std::move(value)}).value());
}

std::vector<std::uint32_t> u32s(const std::vector<NodeId>& v) { return {v.begin(), v.end()}; }

// ------------------------------------------------------------- codec rules

TEST(WireCodec, ScalarsStringsAndNestedBuffersUseTheBufferCalls) {
  Buffer ref;
  ref.pack_bool(true).pack_u32(0xA1B2C3D4u).pack_u64(0x1122334455667788ull);
  ref.pack_string("op").pack_uid(Uid{3, 4}).pack_bytes(bytes({9}));
  EXPECT_EQ(rpc::encode(true, std::uint32_t{0xA1B2C3D4u}, std::uint64_t{0x1122334455667788ull},
                        std::string("op"), Uid{3, 4}, bytes({9})),
            ref);
}

TEST(WireCodec, VectorsAreTheBytesOfTheVectorPackCalls) {
  Buffer ref;
  ref.pack_u32_vector({1, 2, 3}).pack_uid_vector({Uid{1, 2}, Uid{3, 4}});
  const std::vector<std::uint32_t> nums{1, 2, 3};
  const std::vector<Uid> uids{Uid{1, 2}, Uid{3, 4}};
  Buffer wire = rpc::encode(nums, uids);
  EXPECT_EQ(wire, ref);
  std::vector<std::uint32_t> nums_back;
  std::vector<Uid> uids_back;
  ASSERT_TRUE(rpc::decode(wire, nums_back, uids_back));
  EXPECT_EQ(nums_back, nums);
  EXPECT_EQ(uids_back, uids);
}

TEST(WireCodec, OversizedCountIsRefusedBeforeAnyReservation) {
  Buffer b;
  b.pack_u32(1u << 30);  // claims 2^30 UIDs, carries none
  std::vector<Uid> out;
  EXPECT_FALSE(rpc::decode(b, out));
  EXPECT_EQ(out.capacity(), 0u);
}

TEST(WireCodec, EnumAboveItsDeclaredMaximumIsRefused) {
  Buffer three = bytes({3});
  auto r = rpc::decode_reply<actions::TxnOutcome>(three);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::BadRequest);
  Buffer two = bytes({2});
  auto ok = rpc::decode_reply<actions::TxnOutcome>(two);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), actions::TxnOutcome::Aborted);
}

// --------------------------------------------------------- message oracles

TEST(WireOracle, StoreReadReply) {
  const store::VersionedState vs{7, bytes({1, 2, 3})};
  Buffer ref;
  ref.pack_u64(vs.version).pack_bytes(vs.state);
  const Buffer wire = reply(vs);
  EXPECT_EQ(wire, ref);
  Buffer in = wire;
  auto back = rpc::decode_reply<store::VersionedState>(in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, 7u);
  EXPECT_EQ(back.value().state, vs.state);
  expect_reply_prefixes_refused(store::kStoreRead, wire);
}

TEST(WireOracle, StorePrepareRequest) {
  Buffer ref;
  ref.pack_uid(Uid{3, 4}).pack_u32(2);
  ref.pack_uid(Uid{1, 2}).pack_u64(9).pack_bytes(bytes({5, 6}));
  ref.pack_uid(Uid{1, 3}).pack_u64(4).pack_bytes(bytes({7}));
  const Buffer wire =
      request(store::kStorePrepare, Uid{3, 4},
              {store::StagedWrite{Uid{1, 2}, 9, bytes({5, 6})},
               store::StagedWrite{Uid{1, 3}, 4, bytes({7})}});
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(store::kStorePrepare, wire);
}

TEST(WireOracle, StorePrepareReply) {
  const std::vector<std::uint32_t> errs{static_cast<std::uint32_t>(Err::None),
                                        static_cast<std::uint32_t>(Err::Conflict)};
  Buffer ref;
  ref.pack_u32_vector(errs);
  const Buffer wire = reply(errs);
  EXPECT_EQ(wire, ref);
  expect_reply_prefixes_refused(store::kStorePrepare, wire);
}

TEST(WireOracle, TxnNestedCommitRequest) {
  Buffer ref;
  ref.pack_string("objsrv").pack_uid(Uid{1, 2}).pack_uid(Uid{1, 1});
  const Buffer wire = request(actions::kTxnNestedCommit, "objsrv", Uid{1, 2}, Uid{1, 1});
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(actions::kTxnNestedCommit, wire);
}

TEST(WireOracle, ObjsrvInvokeRequest) {
  const std::vector<Uid> ancestors{Uid{8, 1}, Uid{8, 2}};
  Buffer ref;
  ref.pack_uid(Uid{1, 1}).pack_uid(Uid{2, 2}).pack_uid_vector(ancestors);
  ref.pack_u8(static_cast<std::uint8_t>(actions::LockMode::Write));
  ref.pack_string("add").pack_bytes(bytes({4, 0, 0, 0})).pack_bool(false);
  const Buffer wire = request(replication::kObjsrvInvoke, Uid{1, 1}, Uid{2, 2}, ancestors,
                              actions::LockMode::Write, "add", bytes({4, 0, 0, 0}),
                              std::optional<replication::Activation>{});
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(replication::kObjsrvInvoke, wire);
  // A first invocation's activation: the class, St, then the join flag.
  ref = Buffer{};
  ref.pack_uid(Uid{1, 1}).pack_uid(Uid{2, 2}).pack_uid_vector(ancestors);
  ref.pack_u8(static_cast<std::uint8_t>(actions::LockMode::Write));
  ref.pack_string("add").pack_bytes(bytes({4, 0, 0, 0})).pack_bool(true);
  ref.pack_string("counter").pack_u32_vector({5, 6}).pack_bool(true);
  const Buffer activating =
      request(replication::kObjsrvInvoke, Uid{1, 1}, Uid{2, 2}, ancestors,
              actions::LockMode::Write, "add", bytes({4, 0, 0, 0}),
              std::optional<replication::Activation>{replication::Activation{"counter", {5, 6},
                                                                             true}});
  EXPECT_EQ(activating, ref);
  expect_request_prefixes_refused(replication::kObjsrvInvoke, activating);
}

// The action, the objects it bound at the server, then whether the
// server may leave.
TEST(WireOracle, ObjsrvStateForCommitRequest) {
  const std::vector<Uid> objects{Uid{1, 2}, Uid{1, 3}};
  Buffer ref;
  ref.pack_uid(Uid{3, 4}).pack_uid_vector(objects).pack_bool(true);
  const Buffer wire = request(replication::kObjsrvStateForCommit, Uid{3, 4}, objects, true);
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(replication::kObjsrvStateForCommit, wire);
}

// One answer per object, each with its own Err, then the server's vote.
TEST(WireOracle, ObjsrvStateForCommitReply) {
  using StateForCommit = replication::ObjectServerHost::StateForCommit;
  const replication::ObjectServerHost::Staging staging{
      {StateForCommit{static_cast<std::uint32_t>(Err::None), 4, true, bytes({7, 7})},
       StateForCommit{static_cast<std::uint32_t>(Err::Inconsistent), 0, false, Buffer{}}},
      actions::Vote::ReadOnly};
  Buffer ref;
  ref.pack_u32(2);
  ref.pack_u32(static_cast<std::uint32_t>(Err::None)).pack_u64(4).pack_bool(true);
  ref.pack_bytes(bytes({7, 7}));
  ref.pack_u32(static_cast<std::uint32_t>(Err::Inconsistent)).pack_u64(0).pack_bool(false);
  ref.pack_bytes(Buffer{});
  ref.pack_u8(static_cast<std::uint8_t>(actions::Vote::ReadOnly));
  const Buffer wire = reply(staging);
  EXPECT_EQ(wire, ref);
  expect_reply_prefixes_refused(replication::kObjsrvStateForCommit, wire);
}

// The bind_read reply: the SvView, then the StView.
TEST(WireOracle, SvViewReply) {
  naming::SvView v;
  v.sv = {2, 3, 4};
  v.use = {{2, 1, 1}, {3, 5, 2}};
  v.epoch = 6;
  const naming::StView st{{4, 5}, 3};
  Buffer ref;
  ref.pack_u64(v.epoch);
  ref.pack_u32_vector(u32s(v.sv));
  ref.pack_u32(static_cast<std::uint32_t>(v.use.size()));
  for (const auto& u : v.use) ref.pack_u32(u.server).pack_u32(u.client).pack_u32(u.count);
  ref.pack_u64(3).pack_u32_vector({4, 5});
  const Buffer wire = reply(naming::BindView{v, st});
  EXPECT_EQ(wire, ref);
  Buffer in = wire;
  auto back = rpc::decode_reply<naming::BindView>(in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().sv.sv, v.sv);
  ASSERT_EQ(back.value().sv.use.size(), 2u);
  EXPECT_EQ(back.value().sv.use[1].client, 5u);
  EXPECT_EQ(back.value().sv.epoch, 6u);
  EXPECT_EQ(back.value().st.st, st.st);
  expect_reply_prefixes_refused(naming::kOsdbBindRead, wire);
}

TEST(WireOracle, GetViewsReplyWithFoundAndMissingEntries) {
  naming::GetViewsReply r;
  r.incarnation = 2;
  r.views.push_back({Uid{1, 1}, naming::ObjectViews{3, {2, 3}, 4, {5, 6, 7}}});
  r.views.push_back({Uid{1, 2}, std::nullopt});
  Buffer ref;
  ref.pack_u64(2);
  ref.pack_u32(2);
  ref.pack_uid(Uid{1, 1}).pack_bool(true);
  ref.pack_u64(3).pack_u32_vector({2, 3}).pack_u64(4).pack_u32_vector({5, 6, 7});
  ref.pack_uid(Uid{1, 2}).pack_bool(false);
  const Buffer wire = reply(r);
  EXPECT_EQ(wire, ref);
  Buffer in = wire;
  auto back = rpc::decode_reply<naming::GetViewsReply>(in);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().views.size(), 2u);
  ASSERT_TRUE(back.value().views[0].view.has_value());
  EXPECT_EQ(back.value().views[0].view->st, (std::vector<NodeId>{5, 6, 7}));
  EXPECT_FALSE(back.value().views[1].view.has_value());
  expect_reply_prefixes_refused(naming::kGvdbGetViews, wire);
}

TEST(WireOracle, ReplyPiggyback) {
  const naming::Piggyback p{3, {{Uid{1, 1}, 4, 5}, {Uid{1, 2}, 6, 7}}};
  Buffer ref;
  ref.pack_u64(3).pack_u32(2);
  ref.pack_uid(Uid{1, 1}).pack_u64(4).pack_u64(5);
  ref.pack_uid(Uid{1, 2}).pack_u64(6).pack_u64(7);
  const Buffer wire = exact(rpc::encode(p));
  EXPECT_EQ(wire, ref);
  naming::Piggyback back;
  Buffer in = wire;
  ASSERT_TRUE(rpc::decode(in, back));
  EXPECT_EQ(back.incarnation, 3u);
  ASSERT_EQ(back.bumps.size(), 2u);
  EXPECT_EQ(back.bumps[1].object, (Uid{1, 2}));
  EXPECT_EQ(back.bumps[1].sv_epoch, 6u);
  EXPECT_EQ(back.bumps[1].st_epoch, 7u);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Buffer cut = prefix(wire, n);
    naming::Piggyback out;
    EXPECT_FALSE(rpc::decode(cut, out)) << "prefix of " << n << " bytes decoded";
  }
}

TEST(WireOracle, ValidateBatchRequest) {
  const std::vector<naming::ValidateItem> items{{Uid{1, 1}, 3, 4}, {Uid{1, 2}, 5, 6}};
  Buffer ref;
  ref.pack_uid(Uid{9, 9});
  ref.pack_u64(2);
  ref.pack_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items)
    ref.pack_uid(item.object).pack_u64(item.sv_epoch).pack_u64(item.st_epoch);
  ref.pack_bool(false);
  const Buffer wire = request(naming::kGvdbValidate, Uid{9, 9}, 2, items, false);
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(naming::kGvdbValidate, wire);
}

TEST(WireOracle, ExcludeBatchRequest) {
  const std::vector<naming::ExcludeItem> items{{Uid{1, 1}, {3}}, {Uid{1, 2}, {4, 5}}};
  Buffer ref;
  ref.pack_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) ref.pack_uid(item.object).pack_u32_vector(u32s(item.nodes));
  ref.pack_uid(Uid{9, 9});
  const Buffer wire = request(naming::kOstdbExclude, items, Uid{9, 9});
  EXPECT_EQ(wire, ref);
  expect_request_prefixes_refused(naming::kOstdbExclude, wire);
}

TEST(WireOracle, StViewReply) {
  const naming::StView v{{4, 5}, 3};
  Buffer ref;
  ref.pack_u64(3).pack_u32_vector({4, 5});
  const Buffer wire = reply(v);
  EXPECT_EQ(wire, ref);
  expect_reply_prefixes_refused(naming::kOstdbGetView, wire);
}

// ------------------------------------------------------ naming records

// The naming node of a one-database cluster, for the stable records.
struct NamingFixture {
  sim::Simulator sim{7};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;
  std::unique_ptr<actions::TxnRegistry> txns;
  std::unique_ptr<store::ObjectStore> store;
  std::unique_ptr<naming::GroupViewDb> gvdb;
  Uid obj{100, 1};

  NamingFixture() {
    cluster.add_nodes(6);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    txns = std::make_unique<actions::TxnRegistry>(fabric->endpoint(0));
    store = std::make_unique<store::ObjectStore>(cluster.node(0), fabric->endpoint(0));
    gvdb = std::make_unique<naming::GroupViewDb>(cluster.node(0), *store, fabric->endpoint(0),
                                                 *txns);
    gvdb->create_object(obj, {2, 3, 4}, {2, 3, 4});
  }

  void restart_naming_node() {
    cluster.node(0).crash();
    cluster.node(0).recover();
  }
};

TEST(WireOracle, OsdbRecord) {
  NamingFixture f;
  const Uid first{7, 7}, second{7, 8};
  f.sim.spawn([](NamingFixture& f, Uid first, Uid second) -> sim::Task<> {
    // Two bind actions, each one call: client 1 on servers 2 and 3, then
    // client 5 on the in-use server 2.
    const std::vector<NodeId> none;
    auto one = co_await f.gvdb->bind(1, f.obj, Uid{7, 1}, first, 2, none, none, Uid{});
    EXPECT_TRUE(one.ok() && one.value().servers == std::vector<NodeId>({2, 3}));
    auto two = co_await f.gvdb->bind(5, f.obj, Uid{7, 2}, second, 1, none, none, Uid{});
    EXPECT_TRUE(two.ok() && two.value().servers == std::vector<NodeId>{2});
  }(f, first, second));
  f.sim.run();

  // The object's one record. Its Sv part: epoch, Sv, then the use lists
  // grouped by server: server -> clients, each client's binding tokens as
  // a UID vector. Its St part follows: epoch, St.
  const std::map<NodeId, std::map<NodeId, std::vector<Uid>>> use{
      {2, {{1, {first}}, {5, {second}}}}, {3, {{1, {first}}}}};
  Buffer ref;
  ref.pack_u64(f.gvdb->servers().epoch_of(f.obj));
  ref.pack_u32_vector({2, 3, 4});
  ref.pack_u32(static_cast<std::uint32_t>(use.size()));
  for (const auto& [server, clients] : use) {
    ref.pack_u32(server);
    ref.pack_u32(static_cast<std::uint32_t>(clients.size()));
    for (const auto& [client, tokens] : clients) ref.pack_u32(client).pack_uid_vector(tokens);
  }
  ref.pack_u64(1).pack_u32_vector({2, 3, 4});
  const Buffer record = f.store->records(naming::kGvdbUid).at(f.obj);
  EXPECT_EQ(record, ref);

  // The record reloads whole; a truncated one is dropped on reload.
  f.restart_naming_node();
  auto view = f.gvdb->servers().peek_view(f.obj);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().use.size(), 3u);
  for (std::size_t n = 0; n < record.size(); ++n) {
    f.store->put_record(naming::kGvdbUid, f.obj, prefix(record, n));
    f.restart_naming_node();
    EXPECT_FALSE(f.gvdb->servers().known(f.obj)) << "prefix of " << n << " bytes loaded";
  }
}

// A fresh object's record: an Sv part with no use lists, then the St
// part.
TEST(WireOracle, OstdbRecord) {
  NamingFixture f;
  Buffer ref;
  ref.pack_u64(1).pack_u32_vector({2, 3, 4}).pack_u32(0);
  ref.pack_u64(1).pack_u32_vector({2, 3, 4});
  const Buffer record = f.store->records(naming::kGvdbUid).at(f.obj);
  EXPECT_EQ(record, ref);

  f.restart_naming_node();
  EXPECT_EQ(f.gvdb->states().peek(f.obj), (std::vector<NodeId>{2, 3, 4}));
  for (std::size_t n = 0; n < record.size(); ++n) {
    f.store->put_record(naming::kGvdbUid, f.obj, prefix(record, n));
    f.restart_naming_node();
    EXPECT_FALSE(f.gvdb->states().known(f.obj)) << "prefix of " << n << " bytes loaded";
  }
}

// -------------------------------------------------------- served methods

inline constexpr rpc::Rpc<std::uint64_t(Uid, std::string)> kEcho{"wiretest", "echo"};

TEST(WireServe, TruncatedRequestIsRefusedWithoutRunningTheHandler) {
  sim::Simulator sim{3};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  cluster.add_nodes(2);
  rpc::RpcFabric fabric{cluster, net};
  int ran = 0;
  fabric.endpoint(1).serve(kEcho, [&ran](NodeId, Uid uid, std::string s) -> Result<std::uint64_t> {
    ++ran;
    return uid.lo() + s.size();
  });

  const Buffer full = request(kEcho, Uid{1, 40}, "ab");
  Result<std::uint64_t> typed = Err::Timeout;
  std::vector<Err> truncated;
  sim.spawn([](rpc::RpcFabric& fabric, const Buffer& full, Result<std::uint64_t>& typed,
               std::vector<Err>& truncated) -> sim::Task<> {
    typed = co_await fabric.endpoint(0).call(1, kEcho, Uid{1, 40}, "ab");
    for (std::size_t n = 0; n < full.size(); ++n) {
      auto r = co_await fabric.endpoint(0).call(1, "wiretest", "echo", prefix(full, n));
      truncated.push_back(r.ok() ? Err::None : r.error());
    }
  }(fabric, full, typed, truncated));
  sim.run();

  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed.value(), 42u);
  EXPECT_EQ(ran, 1);  // the full request only
  ASSERT_EQ(truncated.size(), full.size());
  for (Err e : truncated) EXPECT_EQ(e, Err::BadRequest);
}

}  // namespace
}  // namespace gv
