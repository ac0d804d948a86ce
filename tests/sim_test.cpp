// Tests for the simulation substrate: event ordering, coroutine tasks,
// futures, node crash/recover semantics, and the network failure model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/future.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace gv::sim {
namespace {

// ------------------------------------------------------------ Simulator

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(10, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(20, [&] { ++count; });
  sim.schedule(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilSkipsCancelledTopWithoutRunningPastLimit) {
  Simulator sim;
  SimTime ran_at = 0;
  auto cancelled = sim.schedule(10, [] {});
  sim.schedule(30, [&] { ran_at = sim.now(); });
  sim.cancel(cancelled);
  EXPECT_EQ(sim.run_until(20), 0u);
  EXPECT_EQ(ran_at, 0u);  // the t=30 event must wait for its time
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.run_until(30), 1u);
  EXPECT_EQ(ran_at, 30u);
}

TEST(Simulator, CancelAfterRunIsNoOp) {
  Simulator sim;
  int a = 0, b = 0;
  auto first = sim.schedule(10, [&] { ++a; });
  sim.run();
  // The slot `first` used is free again; cancelling the stale id must not
  // touch the event that reuses it.
  sim.schedule(10, [&] { ++b; });
  sim.cancel(first);
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(5, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
}

// An event's closure, held in place (up to Event::kInline bytes) or on
// the heap, is destroyed exactly once whether it runs or is cancelled,
// also after the slab grew and moved it; a move-only closure schedules.
TEST(Simulator, ClosuresInPlaceOrOnTheHeapAreDestroyedOnce) {
  Simulator sim;
  const auto token = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> token;
    char pad[Event::kInline];
  };
  int ran = 0;
  std::vector<std::uint64_t> cancelled;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t small = sim.schedule(1, [token, &ran] { ++ran; });
    const std::uint64_t big = sim.schedule(1, [big = Big{token, {}}, &ran] { ++ran; });
    sim.schedule(1, [once = std::make_unique<int>(1), &ran] { ran += *once; });
    if (i % 2 == 0) cancelled.insert(cancelled.end(), {small, big});
  }
  EXPECT_EQ(token.use_count(), 1 + 2 * 64);
  for (std::uint64_t id : cancelled) sim.cancel(id);
  EXPECT_EQ(token.use_count(), 1 + 64);
  sim.run();
  EXPECT_EQ(ran, 32 + 32 + 64);
  EXPECT_EQ(token.use_count(), 1);
}

// ----------------------------------------------------------------- Task

Task<int> answer() { co_return 42; }

Task<int> add(Simulator& sim, int a, int b) {
  co_await sim.sleep(10);
  co_return a + b;
}

Task<> record_sum(Simulator& sim, std::vector<int>& out) {
  int x = co_await add(sim, 1, 2);
  int y = co_await add(sim, x, 10);
  out.push_back(y);
}

TEST(Task, SpawnedTaskRunsToCompletion) {
  Simulator sim;
  std::vector<int> out;
  sim.spawn(record_sum(sim, out));
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 13);
  EXPECT_EQ(sim.now(), 20u);  // two sleeps of 10
}

TEST(Task, ImmediateTaskCompletesWithoutEvents) {
  Simulator sim;
  int got = 0;
  sim.spawn([](int& g) -> Task<> { g = co_await answer(); }(got));
  // answer() never suspends; the spawn drives it synchronously.
  EXPECT_EQ(got, 42);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& o, int id) -> Task<> {
      co_await s.sleep(static_cast<SimTime>(10 * (4 - id)));
      o.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Task, DeepAwaitChainDoesNotOverflow) {
  Simulator sim;
  // Symmetric transfer: a 10k-deep chain of awaits must not blow the stack.
  // ASan instrumentation defeats the tail calls symmetric transfer
  // compiles down to, so the property is unobservable there — keep the
  // chain shallow enough to fit a real stack under instrumentation.
#if defined(__SANITIZE_ADDRESS__)
  constexpr int kDepth = 500;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  constexpr int kDepth = 500;
#else
  constexpr int kDepth = 10000;
#endif
#else
  constexpr int kDepth = 10000;
#endif
  struct Rec {
    static Task<int> down(int n) {
      if (n == 0) co_return 0;
      int v = co_await down(n - 1);
      co_return v + 1;
    }
  };
  int got = -1;
  sim.spawn([](int& g) -> Task<> { g = co_await Rec::down(kDepth); }(got));
  sim.run();
  EXPECT_EQ(got, kDepth);
}

// ------------------------------------------------------------ SimFuture

TEST(SimFuture, AwaitAlreadyResolved) {
  Simulator sim;
  SimPromise<int> p{sim};
  p.set_value(5);
  int got = 0;
  sim.spawn([](SimFuture<int> f, int& g) -> Task<> { g = co_await f; }(p.future(), got));
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(SimFuture, AwaitThenResolve) {
  Simulator sim;
  SimPromise<int> p{sim};
  int got = 0;
  sim.spawn([](SimFuture<int> f, int& g) -> Task<> { g = co_await f; }(p.future(), got));
  sim.schedule(50, [&] { p.set_value(9); });
  sim.run();
  EXPECT_EQ(got, 9);
}

TEST(SimFuture, FirstResolutionWins) {
  Simulator sim;
  SimPromise<int> p{sim};
  EXPECT_TRUE(p.set_value(1));
  EXPECT_FALSE(p.set_value(2));  // late reply dropped
  int got = 0;
  sim.spawn([](SimFuture<int> f, int& g) -> Task<> { g = co_await f; }(p.future(), got));
  sim.run();
  EXPECT_EQ(got, 1);
}

// ----------------------------------------------------------------- Node

TEST(Node, CrashWipesAndBumpsEpoch) {
  Simulator sim;
  Cluster cluster{sim};
  auto id = cluster.add_node();
  Node& n = cluster.node(id);

  int wiped = 0, restarted = 0;
  n.on_crash([&] { ++wiped; });
  n.on_recover([&] { ++restarted; });

  EXPECT_TRUE(n.up());
  EXPECT_EQ(n.epoch(), 0u);
  n.crash();
  EXPECT_FALSE(n.up());
  EXPECT_EQ(n.epoch(), 1u);
  EXPECT_EQ(wiped, 1);
  n.crash();  // idempotent while down
  EXPECT_EQ(n.epoch(), 1u);
  EXPECT_EQ(wiped, 1);
  n.recover();
  EXPECT_TRUE(n.up());
  EXPECT_EQ(restarted, 1);
  n.recover();  // idempotent while up
  EXPECT_EQ(restarted, 1);
  EXPECT_EQ(n.crash_count(), 1u);
}

// A crash ends its node's coroutines (DESIGN.md sec 23): a node sleep
// that spans a crash and a recovery is abandoned, where a Simulator sleep
// of the same length wakes in the new incarnation. Its timer still fires.
TEST(Node, SleepAcrossCrashAndRecoveryDoesNotResume) {
  Simulator sim;
  Cluster cluster{sim};
  Node& n = cluster.node(cluster.add_node());
  bool node_woke = false, sim_woke = false, later_woke = false;
  sim.spawn([](Node& n, bool& woke) -> Task<> {
    co_await n.sleep(100);
    woke = true;
  }(n, node_woke));
  sim.spawn([](Simulator& sim, bool& woke) -> Task<> {
    co_await sim.sleep(100);
    woke = true;
  }(sim, sim_woke));
  sim.schedule(10, [&n] { n.crash(); });
  sim.schedule(20, [&n] { n.recover(); });
  // A sleep begun in the new incarnation wakes as usual.
  sim.schedule(30, [&] {
    sim.spawn([](Node& n, bool& woke) -> Task<> {
      co_await n.sleep(100);
      woke = true;
    }(n, later_woke));
  });
  EXPECT_EQ(sim.run(), 6u);  // every timer fired
  EXPECT_FALSE(node_woke);
  EXPECT_TRUE(sim_woke);
  EXPECT_TRUE(later_woke);
}

// A periodic duty runs a period after its previous run finished. A crash
// mid-run abandons that run, and a crash mid-wait leaves a timer that
// starts nothing; each recovery re-arms the duty, and stop() ends it.
TEST(Node, PeriodicDutyIsEndedByACrashAndRearmedByRecovery) {
  Simulator sim;
  Cluster cluster{sim};
  Node& n = cluster.node(cluster.add_node());
  std::vector<SimTime> runs;
  Node::Duty& duty = n.every(100, [&]() -> Task<> {
    runs.push_back(sim.now());
    co_await n.sleep(10);
  });
  sim.schedule(215, [&n] { n.crash(); });  // mid-run
  sim.schedule(300, [&n] { n.recover(); });
  sim.schedule(450, [&n] { n.crash(); });  // mid-wait
  sim.schedule(460, [&n] { n.recover(); });
  sim.schedule(600, [&duty] { duty.running = false; });
  sim.run();
  EXPECT_EQ(runs, (std::vector<SimTime>{100, 210, 400, 560}));
  EXPECT_EQ(sim.now(), 670u);  // the last timer fired, and started nothing
}

// -------------------------------------------------------------- Network

struct NetFixture {
  Simulator sim{1234};
  Cluster cluster{sim};
  Network net{sim, cluster};
  NetFixture() { cluster.add_nodes(3); }
};

TEST(Network, DeliversWithLatency) {
  NetFixture f;
  std::vector<std::pair<NodeId, std::uint32_t>> got;
  f.net.register_handler(1, [&](NodeId from, Buffer msg) {
    got.emplace_back(from, msg.unpack_u32().value());
  });
  Buffer b;
  b.pack_u32(77);
  f.net.send(0, 1, b);
  f.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 0u);
  EXPECT_EQ(got[0].second, 77u);
  EXPECT_GE(f.sim.now(), f.net.config().base_latency);
}

TEST(Network, CrashedSenderEmitsNothing) {
  NetFixture f;
  int delivered = 0;
  f.net.register_handler(1, [&](NodeId, Buffer) { ++delivered; });
  f.cluster.node(0).crash();
  f.net.send(0, 1, Buffer{});
  f.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.counters().get("net.drop_sender_down"), 1u);
}

TEST(Network, CrashedReceiverGetsNothing) {
  NetFixture f;
  int delivered = 0;
  f.net.register_handler(1, [&](NodeId, Buffer) { ++delivered; });
  f.net.send(0, 1, Buffer{});
  f.cluster.node(1).crash();  // crashes before delivery
  f.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.counters().get("net.drop_receiver_down"), 1u);
}

TEST(Network, PartitionBlocksAndHealRestores) {
  NetFixture f;
  int delivered = 0;
  f.net.register_handler(1, [&](NodeId, Buffer) { ++delivered; });
  f.net.partition({0}, {1, 2});
  f.net.send(0, 1, Buffer{});
  f.sim.run();
  EXPECT_EQ(delivered, 0);
  f.net.heal();
  f.net.send(0, 1, Buffer{});
  f.sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, LossProbabilityDropsRoughlyThatFraction) {
  NetFixture f;
  f.net.config().loss_prob = 0.5;
  int delivered = 0;
  f.net.register_handler(1, [&](NodeId, Buffer) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) f.net.send(0, 1, Buffer{});
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.5, 0.05);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [] {
    NetFixture f;
    f.net.config().loss_prob = 0.3;
    std::vector<SimTime> times;
    f.net.register_handler(1, [&](NodeId, Buffer) { times.push_back(f.sim.now()); });
    for (int i = 0; i < 100; ++i) f.net.send(0, 1, Buffer{});
    f.sim.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace gv::sim
