// Tests for the RPC layer: request/reply, timeouts, binding-break
// semantics (sec 3.1), group communication ordering/reliability (sec 2.3),
// and failure detection.
#include <gtest/gtest.h>

#include <vector>

#include "rpc/failure_detector.h"
#include "rpc/group_comm.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace gv::rpc {
namespace {

struct Fixture {
  sim::Simulator sim{99};
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<RpcFabric> fabric;

  explicit Fixture(std::size_t nodes = 4) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<RpcFabric>(cluster, net);
  }
  RpcEndpoint& ep(NodeId id) { return fabric->endpoint(id); }
};

// "math.double": doubles a u32. Its request and reply are the bytes of one
// pack_u32, so the untyped calls below reach it too.
constexpr Rpc<std::uint32_t(std::uint32_t)> kDouble{"math", "double"};

// Serves kDouble on `server`.
void register_doubler(Fixture& f, NodeId server) {
  f.ep(server).serve(kDouble, [](NodeId, std::uint32_t v) -> Result<std::uint32_t> {
    return v * 2;
  });
}

TEST(Rpc, BasicRequestReply) {
  Fixture f;
  register_doubler(f, 1);
  Result<Buffer> got = Err::Timeout;
  f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
    Buffer args;
    args.pack_u32(21);
    got = co_await f.ep(0).call(1, "math", "double", std::move(args));
  }(f, got));
  f.sim.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().unpack_u32().value(), 42u);
}

TEST(Rpc, UnknownMethodIsNotFound) {
  Fixture f;
  Result<Buffer> got = Err::Timeout;
  f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
    got = co_await f.ep(0).call(1, "nope", "missing", Buffer{});
  }(f, got));
  f.sim.run();
  EXPECT_EQ(got.error(), Err::NotFound);
}

TEST(Rpc, CallToCrashedNodeTimesOut) {
  Fixture f;
  register_doubler(f, 1);
  f.cluster.node(1).crash();
  Result<Buffer> got = Err::BadRequest;
  f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
    got = co_await f.ep(0).call(1, "math", "double", Buffer{});
  }(f, got));
  f.sim.run();
  EXPECT_EQ(got.error(), Err::Timeout);
  // The timeout is the only thing that advanced the clock that far.
  EXPECT_GE(f.sim.now(), f.ep(0).config().call_timeout);
}

TEST(Rpc, ServerCrashDuringHandlerMeansNoReply) {
  Fixture f;
  // Handler sleeps long enough that we can crash the server mid-call.
  f.ep(1).register_method("slow", "op", [&f](NodeId, Buffer) -> sim::Task<Result<Buffer>> {
    co_await f.sim.sleep(10 * sim::kMillisecond);
    co_return Buffer{};
  });
  Result<Buffer> got = Err::BadRequest;
  f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
    got = co_await f.ep(0).call(1, "slow", "op", Buffer{});
  }(f, got));
  f.sim.schedule(5 * sim::kMillisecond, [&] { f.cluster.node(1).crash(); });
  f.sim.run();
  EXPECT_EQ(got.error(), Err::Timeout);
}

TEST(Rpc, NestedRpcFromHandler) {
  Fixture f;
  register_doubler(f, 2);
  // Node 1 exposes quadruple = double(double(x)) via a nested call to 2.
  f.ep(1).register_method("math", "quad", [&f](NodeId, Buffer args) -> sim::Task<Result<Buffer>> {
    auto r1 = co_await f.ep(1).call(2, "math", "double", std::move(args));
    if (!r1.ok()) co_return r1.error();
    co_return co_await f.ep(1).call(2, "math", "double", std::move(r1).value());
  });
  Result<Buffer> got = Err::Timeout;
  f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
    Buffer args;
    args.pack_u32(5);
    got = co_await f.ep(0).call(1, "math", "quad", std::move(args));
  }(f, got));
  f.sim.run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().unpack_u32().value(), 20u);
}

// ------------------------------------------------------------- Bindings

// A binding is made by its first call: the call goes unbound, and its
// reply names the incarnation the next calls are bound to.
TEST(Rpc, BindThenCallBound) {
  Fixture f;
  register_doubler(f, 1);
  std::vector<std::uint32_t> got;
  f.sim.spawn([](Fixture& f, std::vector<std::uint32_t>& got) -> sim::Task<> {
    Binding binding{1};
    EXPECT_FALSE(binding.known());
    for (std::uint32_t v : {8u, 9u}) {
      auto r = co_await f.ep(0).call_bound(binding, kDouble, v);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) co_return;
      got.push_back(r.value());
      EXPECT_TRUE(binding.known());
      EXPECT_EQ(binding.epoch, f.cluster.node(1).epoch());
    }
  }(f, got));
  f.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{16u, 18u}));
}

// The first call of a binding to a crashed node gets no reply: it times
// out, learns no incarnation, and breaks the binding.
TEST(Rpc, BindToCrashedNodeFails) {
  Fixture f;
  register_doubler(f, 1);
  f.cluster.node(1).crash();
  Err got = Err::None;
  Binding binding{1};
  f.sim.spawn([](Fixture& f, Err& got, Binding& binding) -> sim::Task<> {
    got = (co_await f.ep(0).call_bound(binding, kDouble, 1)).error();
  }(f, got, binding));
  f.sim.run();
  EXPECT_EQ(got, Err::Timeout);
  EXPECT_FALSE(binding.known());
  EXPECT_TRUE(binding.broken);
}

// An unbound call's binding takes its incarnation from the reply, a
// refusal as much as a result: after the server restarts, the binding's
// next call is refused as bound to the old incarnation.
TEST(Rpc, UnboundCallTakesItsIncarnationFromTheReply) {
  Fixture f;
  f.cluster.node(1).crash();
  f.cluster.node(1).recover();  // epoch 1, so an epoch of 0 would not pass
  std::vector<Err> errs;
  Binding binding{1};
  f.sim.spawn([](Fixture& f, std::vector<Err>& errs, Binding& binding) -> sim::Task<> {
    // No such method: a NotFound reply, which still names the epoch.
    errs.push_back((co_await f.ep(0).call_bound(binding, kDouble, 1)).error());
    EXPECT_EQ(binding.epoch, 1u);
    f.cluster.node(1).crash();
    f.cluster.node(1).recover();
    register_doubler(f, 1);
    errs.push_back((co_await f.ep(0).call_bound(binding, kDouble, 1)).error());
  }(f, errs, binding));
  f.sim.run();
  EXPECT_EQ(errs, (std::vector<Err>{Err::NotFound, Err::BindingBroken}));
  EXPECT_EQ(binding.epoch, 1u);
  EXPECT_TRUE(binding.broken);
}

TEST(Rpc, BindingStaysBrokenAfterRecovery) {
  // Sec 3.1: "a broken binding stays that way till the application level
  // action terminates" — even if the server node recovers.
  Fixture f;
  register_doubler(f, 1);
  std::vector<Err> errs;
  f.sim.spawn([](Fixture& f, std::vector<Err>& errs) -> sim::Task<> {
    Binding binding{1};
    EXPECT_TRUE((co_await f.ep(0).call_bound(binding, kDouble, 1)).ok());
    // Crash + instant recovery: the node is up again but in a new epoch.
    f.cluster.node(1).crash();
    f.cluster.node(1).recover();
    auto r1 = co_await f.ep(0).call_bound(binding, kDouble, 1);
    errs.push_back(r1.error());
    // The binding is now marked broken; further calls refuse locally.
    auto r2 = co_await f.ep(0).call_bound(binding, kDouble, 1);
    errs.push_back(r2.error());
    EXPECT_TRUE(binding.broken);
  }(f, errs));
  f.sim.run();
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_EQ(errs[0], Err::BindingBroken);  // server rejects stale epoch
  EXPECT_EQ(errs[1], Err::BindingBroken);  // local refusal, no network
}

TEST(Rpc, BoundCallTimeoutBreaksBinding) {
  Fixture f;
  register_doubler(f, 1);
  bool broken = false;
  f.sim.spawn([](Fixture& f, bool& broken) -> sim::Task<> {
    Binding binding{1};
    EXPECT_TRUE((co_await f.ep(0).call_bound(binding, kDouble, 1)).ok());
    f.cluster.node(1).crash();
    auto r = co_await f.ep(0).call_bound(binding, kDouble, 1);
    EXPECT_EQ(r.error(), Err::Timeout);
    broken = binding.broken;
  }(f, broken));
  f.sim.run();
  EXPECT_TRUE(broken);
}

TEST(Rpc, ClientCrashAbandonsOutstandingCall) {
  Fixture f;
  f.ep(1).register_method("slow", "op", [&f](NodeId, Buffer) -> sim::Task<Result<Buffer>> {
    co_await f.sim.sleep(10 * sim::kMillisecond);
    co_return Buffer{};
  });
  bool resumed = false;
  f.sim.spawn([](Fixture& f, bool& resumed) -> sim::Task<> {
    (void)co_await f.ep(0).call(1, "slow", "op", Buffer{});
    resumed = true;  // must never run: the client process died
  }(f, resumed));
  f.sim.schedule(2 * sim::kMillisecond, [&] { f.cluster.node(0).crash(); });
  f.sim.run();
  EXPECT_FALSE(resumed);
}

// A reply's payload is the tail of its frame: a length prefix that names
// fewer or more bytes than the frame has left resolves the call with
// BadRequest, and one that agrees hands the payload on.
TEST(Rpc, ReplyPayloadLengthMustMatchItsFrame) {
  for (int delta : {0, -1, 1}) {
    Fixture f;
    f.ep(1).register_method("slow", "op", [&f](NodeId, Buffer) -> sim::Task<Result<Buffer>> {
      co_await f.sim.sleep(10 * sim::kMillisecond);
      co_return Buffer{};
    });
    Result<Buffer> got = Err::Timeout;
    f.sim.spawn([](Fixture& f, Result<Buffer>& got) -> sim::Task<> {
      got = co_await f.ep(0).call(1, "slow", "op", Buffer{});
    }(f, got));
    // The reply frame to the client's first call (req_id 1), injected
    // before the server's own: kind, req_id, the server's epoch, Err, no
    // piggyback, payload.
    f.sim.schedule(1 * sim::kMillisecond, [&f, delta] {
      Buffer frame;
      frame.pack_u8(1).pack_u64(1).pack_u64(0).pack_u32(0).pack_bytes(Buffer{});
      frame.pack_u32(static_cast<std::uint32_t>(4 + delta)).pack_u32(42);
      f.ep(0).receive(1, std::move(frame));
    });
    f.sim.run();
    if (delta == 0) {
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().size(), 4u);
      EXPECT_EQ(got.value().unpack_u32().value(), 42u);
    } else {
      EXPECT_EQ(got.error(), Err::BadRequest) << "length off by " << delta;
    }
  }
}

// Serves kDouble on `server`, and crashes `client` in the instant the
// reply reaches it, just after the delivery. With a jitter-free network
// the reply lands one base latency after it is sent; the crash is
// scheduled for that instant by an event that runs once the reply is
// sent, so it is queued behind the delivery but ahead of the resumption
// the delivery schedules.
void serve_and_crash_caller_on_reply(Fixture& f, NodeId server, NodeId client) {
  f.net.config().jitter_mean_us = 0;
  f.ep(server).serve(kDouble, [&f, client](NodeId, std::uint32_t v) -> Result<std::uint32_t> {
    f.sim.schedule(0, [&f, client] {
      f.sim.schedule(f.net.config().base_latency, [&f, client] { f.cluster.node(client).crash(); });
    });
    return v * 2;
  });
}

// A crash ends its node's coroutines (DESIGN.md sec 23), even when the
// reply was delivered in the same instant, just before the crash.
TEST(Rpc, ReplyInTheInstantOfTheCallersCrashDoesNotResumeIt) {
  Fixture f;
  serve_and_crash_caller_on_reply(f, 1, 0);
  bool resumed = false;
  f.sim.spawn([](Fixture& f, bool& resumed) -> sim::Task<> {
    (void)co_await f.ep(0).call(1, kDouble, 21);
    resumed = true;  // must never run: the client process died
  }(f, resumed));
  f.sim.run();
  EXPECT_EQ(f.net.counters().get("net.deliver"), 2u);  // the reply did arrive
  EXPECT_FALSE(f.cluster.node(0).up());
  EXPECT_FALSE(resumed);
}

TEST(Rpc, GroupReplyInTheInstantOfTheCallersCrashDoesNotResumeIt) {
  Fixture f;
  GroupComm gc{f.sim, f.cluster, f.net};
  const Uid group{0, 1};
  gc.create_group(group, {1});
  gc.join(group, 1, [&f](NodeId from, std::uint64_t, Buffer msg) {
    f.ep(1).receive(from, std::move(msg));
  });
  serve_and_crash_caller_on_reply(f, 1, 0);
  bool resumed = false;
  f.sim.spawn([](Fixture& f, GroupComm& gc, Uid group, bool& resumed) -> sim::Task<> {
    (void)co_await f.ep(0).call_group(gc, group, kDouble, 21);
    resumed = true;
  }(f, gc, group, resumed));
  f.sim.run();
  EXPECT_EQ(f.net.counters().get("net.deliver"), 1u);  // the reply; the request went by multicast
  EXPECT_FALSE(f.cluster.node(0).up());
  EXPECT_FALSE(resumed);
}

// ------------------------------------------------------------ GroupComm

const Uid kGroup{0, 1};

struct GroupFixture : Fixture {
  GroupComm gc{sim, cluster, net};
  GroupFixture() : Fixture(5) {}
};

TEST(GroupComm, OrderedDeliveryIdenticalAtAllMembers) {
  GroupFixture f;
  f.gc.create_group(kGroup, {1, 2, 3});
  std::vector<std::vector<std::uint32_t>> logs(4);
  for (NodeId m : {1u, 2u, 3u}) {
    f.gc.join(kGroup, m, [&logs, m](NodeId, std::uint64_t, Buffer msg) {
      logs[m].push_back(msg.unpack_u32().value());
    });
  }
  // Interleave multicasts from two senders; jitter would reorder plain
  // datagrams, but ordered delivery must be identical everywhere.
  for (std::uint32_t i = 0; i < 20; ++i) {
    Buffer b;
    b.pack_u32(i);
    f.gc.multicast(i % 2 ? 0 : 4, kGroup, std::move(b), McastMode::ReliableOrdered);
  }
  f.sim.run();
  EXPECT_EQ(logs[1].size(), 20u);
  EXPECT_EQ(logs[1], logs[2]);
  EXPECT_EQ(logs[2], logs[3]);
}

TEST(GroupComm, UnreliableModeCanDropCopies) {
  GroupFixture f;
  f.net.config().loss_prob = 0.4;
  f.gc.create_group(kGroup, {1, 2});
  int delivered = 0;
  for (NodeId m : {1u, 2u})
    f.gc.join(kGroup, m, [&delivered](NodeId, std::uint64_t, Buffer) { ++delivered; });
  for (int i = 0; i < 500; ++i) f.gc.multicast(0, kGroup, Buffer{}, McastMode::Unreliable);
  f.sim.run();
  // ~60% of 1000 copies should arrive.
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 800);
}

TEST(GroupComm, PartialMulticastDeliversPrefixOnly) {
  GroupFixture f;
  f.gc.create_group(kGroup, {1, 2, 3});
  std::vector<int> got(4, 0);
  for (NodeId m : {1u, 2u, 3u})
    f.gc.join(kGroup, m, [&got, m](NodeId, std::uint64_t, Buffer) { ++got[m]; });
  f.gc.multicast_partial(0, kGroup, Buffer{}, 1);  // only the first member
  f.sim.run();
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 0);
  EXPECT_EQ(got[3], 0);
}

TEST(GroupComm, CrashedMemberDroppedFromView) {
  GroupFixture f;
  f.gc.create_group(kGroup, {1, 2});
  std::vector<int> got(3, 0);
  for (NodeId m : {1u, 2u})
    f.gc.join(kGroup, m, [&got, m](NodeId, std::uint64_t, Buffer) { ++got[m]; });
  f.gc.multicast(0, kGroup, Buffer{}, McastMode::ReliableOrdered);
  f.cluster.node(2).crash();
  f.sim.run();
  // Member 2 was down at delivery: dropped from the view; later recovery
  // without rejoin must deliver nothing.
  f.cluster.node(2).recover();
  f.gc.multicast(0, kGroup, Buffer{}, McastMode::ReliableOrdered);
  f.sim.run();
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 0);
  EXPECT_EQ(f.gc.counters().get("gc.view_change_member_dropped"), 1u);
}

// ------------------------------------------------------ FailureDetector

TEST(FailureDetector, DetectsAliveAndDead) {
  Fixture f;
  FailureDetector fd{f.ep(0)};
  std::vector<bool> results;
  f.sim.spawn([](Fixture& f, FailureDetector& fd, std::vector<bool>& out) -> sim::Task<> {
    out.push_back(co_await fd.alive(1));
    f.cluster.node(1).crash();
    out.push_back(co_await fd.alive(1));
  }(f, fd, results));
  f.sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
}

}  // namespace
}  // namespace gv::rpc
