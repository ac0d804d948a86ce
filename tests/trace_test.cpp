// Tests for the observability tentpole (core/trace.h, core/metrics.h):
// trace-context propagation across RPC and group multicast, Chrome
// trace-event export validity, ring-buffer eviction, the determinism
// guard (tracing on vs off must not perturb the simulation), streaming
// histogram accuracy, the pluggable log sink, and the S1 lock-inheritance
// protocol asserted from the captured trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/trace.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "util/log.h"
#include "util/stats.h"

namespace gv {
namespace {

using core::TraceEvent;
using core::TraceKind;
using core::TraceRecorder;

Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

// ------------------------------------------------------------ helpers

const TraceEvent* find_begin(const TraceRecorder& rec, const std::string& name) {
  for (const TraceEvent& ev : rec.events())
    if (ev.kind == TraceKind::Begin && ev.name == name) return &ev;
  return nullptr;
}

std::vector<const TraceEvent*> all_begins(const TraceRecorder& rec, const std::string& name) {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& ev : rec.events())
    if (ev.kind == TraceKind::Begin && ev.name == name) out.push_back(&ev);
  return out;
}

// Minimal Chrome trace-event checker: the export is machine-generated
// with a fixed key order, so a substring scan per event is exact. Checks
// the schema invariants CI relies on — every event is "X" or "i", ts is
// monotonically non-decreasing, and no "parent" arg references a span id
// that has no "X" event in the file.
struct MiniEvent {
  char ph = '?';
  std::uint64_t ts = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

std::uint64_t field_u64(const std::string& chunk, const std::string& key) {
  const std::size_t pos = chunk.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(chunk.c_str() + pos + key.size(), nullptr, 10);
}

std::vector<MiniEvent> parse_chrome(const std::string& json) {
  std::vector<MiniEvent> out;
  std::size_t pos = json.find("{\"name\":\"");
  while (pos != std::string::npos) {
    const std::size_t next = json.find("{\"name\":\"", pos + 1);
    const std::string chunk = json.substr(pos, next == std::string::npos ? json.size() - pos
                                                                         : next - pos);
    MiniEvent ev;
    const std::size_t ph = chunk.find("\"ph\":\"");
    ev.ph = ph == std::string::npos ? '?' : chunk[ph + 6];
    ev.ts = field_u64(chunk, "\"ts\":");
    ev.span = field_u64(chunk, "\"span\":");
    ev.parent = field_u64(chunk, "\"parent\":");
    out.push_back(ev);
    pos = next;
  }
  return out;
}

// Structural well-formedness: braces and brackets balance outside string
// literals (escapes respected), and depth never goes negative.
bool balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

void expect_valid_chrome_json(const std::string& json) {
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(balanced_json(json));
  const std::vector<MiniEvent> events = parse_chrome(json);
  std::set<std::uint64_t> spans;
  for (const MiniEvent& ev : events) {
    EXPECT_TRUE(ev.ph == 'X' || ev.ph == 'i') << "unexpected ph " << ev.ph;
    if (ev.ph == 'X') spans.insert(ev.span);
  }
  std::uint64_t prev_ts = 0;
  for (const MiniEvent& ev : events) {
    EXPECT_GE(ev.ts, prev_ts) << "ts not monotonic";
    prev_ts = ev.ts;
    if (ev.ph == 'X' && ev.parent != 0) {
      EXPECT_TRUE(spans.count(ev.parent) > 0) << "dangling parent " << ev.parent;
    }
  }
}

// Standalone RPC fixture with an enabled recorder (no ReplicaSystem).
struct RpcFixture {
  sim::Simulator sim{99};
  TraceRecorder rec{sim};
  core::MetricsRegistry metrics;
  sim::Cluster cluster{sim};
  sim::Network net{sim, cluster};
  std::unique_ptr<rpc::RpcFabric> fabric;

  explicit RpcFixture(std::size_t nodes = 4) {
    cluster.add_nodes(nodes);
    fabric = std::make_unique<rpc::RpcFabric>(cluster, net);
    rec.enable();
    fabric->set_obs(&rec, &metrics);
  }
  rpc::RpcEndpoint& ep(sim::NodeId id) { return fabric->endpoint(id); }

  void register_doubler(sim::NodeId server) {
    ep(server).register_method("math", "double",
                               [](sim::NodeId, Buffer args) -> sim::Task<Result<Buffer>> {
                                 auto v = args.unpack_u32();
                                 if (!v.ok()) co_return Err::BadRequest;
                                 Buffer out;
                                 out.pack_u32(v.value() * 2);
                                 co_return out;
                               });
  }
};

// --------------------------------------------- context propagation: RPC

TEST(TracePropagation, RpcLinksClientAndServerSpans) {
  RpcFixture f;
  f.register_doubler(1);
  f.sim.spawn([](RpcFixture& f) -> sim::Task<> {
    auto root = f.rec.begin_span("root", 0, "test");
    Buffer args;
    args.pack_u32(21);
    auto r = co_await f.ep(0).call(1, "math", "double", std::move(args));
    EXPECT_TRUE(r.ok());
    root.end();
  }(f));
  f.sim.run();

  const TraceEvent* root = find_begin(f.rec, "root");
  const TraceEvent* client = find_begin(f.rec, "rpc.math.double");
  const TraceEvent* server = find_begin(f.rec, "rpc.serve.math.double");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  // One connected tree: root -> client call span -> server handler span,
  // the last hop crossing the wire on node 1.
  EXPECT_EQ(client->parent, root->span);
  EXPECT_EQ(server->parent, client->span);
  EXPECT_EQ(client->trace, root->trace);
  EXPECT_EQ(server->trace, root->trace);
  EXPECT_EQ(server->node, 1u);
  // The per-op latency histogram recorded the round trip.
  EXPECT_EQ(f.metrics.histogram("rpc.math.double_us").count(), 1u);
}

TEST(TracePropagation, LinkageSurvivesMidCallCrashAndRetry) {
  RpcFixture f;
  f.register_doubler(1);
  // Server down for the first attempt; back up before the retry is sent
  // (the first attempt times out at 50ms, the retry follows 10ms later).
  f.cluster.node(1).crash();
  f.sim.schedule(55 * sim::kMillisecond, [&f] { f.cluster.node(1).recover(); });

  Result<Buffer> first = Buffer{};
  Result<Buffer> got = Err::Timeout;
  f.sim.spawn([](RpcFixture& f, Result<Buffer>& first, Result<Buffer>& got) -> sim::Task<> {
    auto root = f.rec.begin_span("root", 0, "test");
    Buffer args;
    args.pack_u32(21);
    first = co_await f.ep(0).call(1, "math", "double", args);
    co_await f.sim.sleep(10 * sim::kMillisecond);
    got = co_await f.ep(0).call(1, "math", "double", args);
    root.end();
  }(f, first, got));
  f.sim.run();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error(), Err::Timeout);
  ASSERT_TRUE(got.ok());

  const TraceEvent* root = find_begin(f.rec, "root");
  ASSERT_NE(root, nullptr);
  // Both attempts are siblings under the same root — the retry did not
  // detach from the action's tree.
  const auto attempts = all_begins(f.rec, "rpc.math.double");
  ASSERT_EQ(attempts.size(), 2u);
  for (const TraceEvent* a : attempts) {
    EXPECT_EQ(a->parent, root->span);
    EXPECT_EQ(a->trace, root->trace);
  }
  // The served retry parents under the second attempt's client span.
  const TraceEvent* server = find_begin(f.rec, "rpc.serve.math.double");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->parent, attempts[1]->span);
  EXPECT_EQ(server->trace, root->trace);
}

// ----------------------------------- context propagation: group multicast

TEST(TracePropagation, GroupMulticastFanOutStaysConnected) {
  core::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 5;
  cfg.tracing = true;
  core::ReplicaSystem sys{cfg};
  const Uid ctr = sys.define_object("ctr", "counter", replication::Counter{}.snapshot(), {2, 3},
                                    {4, 5}, core::ReplicationPolicy::Active, 2);
  auto* client = sys.client(1);
  sys.sim().spawn([](core::ClientSession* client, Uid ctr) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(ctr, "add", i64_buf(1), core::LockMode::Write);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, ctr));
  sys.sim().run();

  const TraceEvent* invoke = find_begin(sys.trace(), "ginv.invoke");
  ASSERT_NE(invoke, nullptr);
  // Every member of the replica group served the invocation under the
  // SAME group call span: the fan-out is one node in the tree, not two
  // disconnected handler roots.
  const auto serves = all_begins(sys.trace(), "rpc.serve.objsrv.invoke");
  ASSERT_EQ(serves.size(), 2u);
  std::set<sim::NodeId> nodes;
  for (const TraceEvent* s : serves) {
    EXPECT_EQ(s->parent, invoke->span);
    EXPECT_EQ(s->trace, invoke->trace);
    nodes.insert(s->node);
  }
  EXPECT_EQ(nodes.size(), 2u);  // distinct replicas, one lane each
  // And the whole thing hangs off the client transaction root.
  const TraceEvent* txn_root = find_begin(sys.trace(), "txn");
  ASSERT_NE(txn_root, nullptr);
  EXPECT_EQ(invoke->trace, txn_root->trace);
}

// ------------------------------------------------------- Chrome export

TEST(TraceExport, ChromeJsonIsSchemaValid) {
  core::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 11;
  cfg.tracing = true;
  core::ReplicaSystem sys{cfg};
  const Uid acct = sys.define_object("acct", "bank", replication::BankAccount{}.snapshot(),
                                     {2, 3}, {4, 5}, core::ReplicationPolicy::Active, 2);
  auto* client = sys.client(1);
  // A crash mid-workload leaves open spans and error outcomes in the ring
  // — exactly what the exporter must still render validly.
  sys.sim().schedule(30 * sim::kMillisecond, [&sys] { sys.cluster().node(2).crash(); });
  sys.sim().spawn([](core::ReplicaSystem& sys, core::ClientSession* client,
                     Uid acct) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      auto txn = client->begin();
      auto r = co_await txn->invoke(acct, "deposit", i64_buf(10), core::LockMode::Write);
      if (r.ok())
        (void)co_await txn->commit();
      else
        (void)co_await txn->abort();
      co_await sys.sim().sleep(20 * sim::kMillisecond);
    }
  }(sys, client, acct));
  sys.sim().run_until(2 * sim::kSecond);

  ASSERT_GT(sys.trace().events().size(), 0u);
  expect_valid_chrome_json(sys.trace().chrome_trace_json());
}

TEST(TraceExport, RingEvictionCountsAndStaysValid) {
  sim::Simulator sim{1};
  TraceRecorder rec{sim};
  rec.enable(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    auto outer = rec.begin_span("outer" + std::to_string(i), 0, "test");
    auto inner = rec.begin_span("inner" + std::to_string(i), 0, "test");
    rec.instant("tick", 0, "test");
    inner.end();
    outer.end();
  }
  // Each iteration pushes 3 events (two Begins + one instant; span ends
  // fold into their Begin slot rather than pushing).
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u * 3u - 4u);
  // Evicted Begins leave dangling parent ids behind; the exporter must
  // re-root them rather than emit broken references.
  expect_valid_chrome_json(rec.chrome_trace_json());
  // tail() flags what it cannot show.
  EXPECT_NE(rec.tail(2).find("earlier events not shown"), std::string::npos);
}

// ------------------------------------------------------ determinism guard

TEST(TraceDeterminism, TracingOnOffIsInvisibleToTheSimulation) {
  auto run = [](bool tracing) {
    core::SystemConfig cfg;
    cfg.nodes = 8;
    cfg.seed = 77;
    cfg.tracing = tracing;
    core::ReplicaSystem sys{cfg};
    const Uid acct = sys.define_object("acct", "bank", replication::BankAccount{}.snapshot(),
                                       {2, 3}, {4, 5}, core::ReplicationPolicy::Active, 2);
    auto* client = sys.client(1);
    sys.sim().schedule(60 * sim::kMillisecond, [&sys] { sys.cluster().node(2).crash(); });
    sys.sim().schedule(200 * sim::kMillisecond, [&sys] { sys.cluster().node(2).recover(); });
    int committed = 0;
    sys.sim().spawn([](core::ReplicaSystem& sys, core::ClientSession* client, Uid acct,
                       int& committed) -> sim::Task<> {
      for (int i = 0; i < 8; ++i) {
        auto txn = client->begin();
        auto r = co_await txn->invoke(acct, "deposit", i64_buf(5), core::LockMode::Write);
        if (!r.ok()) {
          (void)co_await txn->abort();
        } else if ((co_await txn->commit()).ok()) {
          ++committed;
        }
        co_await sys.sim().sleep(30 * sim::kMillisecond);
      }
    }(sys, client, acct, committed));
    sys.sim().run_until(5 * sim::kSecond);
    sys.sim().run();
    struct Outcome {
      std::size_t events;
      int committed;
      Counters::Map counters;
    };
    return Outcome{sys.sim().events_processed(), committed, sys.aggregate_counters().all()};
  };

  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.counters, on.counters);
}

// ------------------------------------------------------ streaming histogram

TEST(Metrics, HistogramPercentilesWithinBucketError) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log-spaced buckets at factor 2^(1/8) carry <= ~4.5% relative error;
  // allow 5%.
  EXPECT_NEAR(h.percentile(50), 500.0, 25.0);
  EXPECT_NEAR(h.percentile(90), 900.0, 45.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 50.0);
  EXPECT_LE(h.percentile(100), 1000.0);

  Histogram lo, hi;
  for (int i = 1; i <= 500; ++i) lo.record(static_cast<double>(i));
  for (int i = 501; i <= 1000; ++i) hi.record(static_cast<double>(i));
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 1000u);
  EXPECT_NEAR(lo.percentile(50), h.percentile(50), 1e-9);
}

TEST(Metrics, RegistryJsonlCoversAllFamilies) {
  core::MetricsRegistry reg;
  reg.histogram("op_us").record(120.0);
  reg.gauge_set("depth", 3.0);
  reg.counters().inc("hits", 2);
  const std::string out = reg.jsonl("cell1");
  EXPECT_NE(out.find("\"kind\":\"histogram\",\"name\":\"op_us\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"gauge\",\"name\":\"depth\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"counter\",\"name\":\"hits\",\"value\":2"), std::string::npos);
  EXPECT_NE(out.find("\"label\":\"cell1\""), std::string::npos);
  // One object per line, each line balanced.
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t nl = out.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_TRUE(balanced_json(out.substr(start, nl - start)));
    start = nl + 1;
  }
}

// ------------------------------------------------------------- log sink

TEST(LogSink, ScopedCaptureSeesTraceLinesAndRestores) {
  std::vector<std::string> lines;
  {
    ScopedLogCapture cap([&lines](LogLevel, std::uint64_t, const char* component,
                                  const char* message) {
      lines.push_back(std::string(component) + ": " + message);
    });
    GV_LOG(LogLevel::Trace, 42, "test", "hello %d", 7);
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "test: hello 7");
  // Restored: level back to default (Off in tests) — nothing captured.
  GV_LOG(LogLevel::Trace, 43, "test", "not seen");
  EXPECT_EQ(lines.size(), 1u);
}

// ---------------------------------------------- S1 lock-inheritance trace

// The paper's S1 property (sec 4.1.2): GetServer's read lock on the Sv
// entry belongs to the client action and is held until the CLIENT's
// top-level commit (the paper nests GetServer and lets the client
// inherit the lock; the binder's one naming read takes it under the
// client action directly). Assert the protocol order from the captured
// lock/2PC trace: grant READ to the client -> 2PC commit decision ->
// release by the client (never before).
TEST(S1Protocol, GetServerReadLockHeldUntilClientCommit) {
  std::vector<std::string> lines;
  ScopedLogCapture cap(
      [&lines](LogLevel, std::uint64_t, const char* component, const char* message) {
        lines.push_back(std::string(component) + ": " + message);
      });

  core::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 3;
  cfg.scheme = naming::Scheme::StandardNested;
  core::ReplicaSystem sys{cfg};
  const Uid ctr = sys.define_object("ctr", "counter", replication::Counter{}.snapshot(), {2},
                                    {3, 4}, core::ReplicationPolicy::SingleCopyPassive, 1);
  auto* client = sys.client(1);
  sys.sim().spawn([](core::ClientSession* client, Uid ctr) -> sim::Task<> {
    auto txn = client->begin();
    auto r = co_await txn->invoke(ctr, "add", i64_buf(1), core::LockMode::Write);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((co_await txn->commit()).ok());
  }(client, ctr));
  sys.sim().run();

  auto index_of = [&lines](const std::string& needle, std::size_t from = 0) -> std::ptrdiff_t {
    for (std::size_t i = from; i < lines.size(); ++i)
      if (lines[i].find(needle) != std::string::npos) return static_cast<std::ptrdiff_t>(i);
    return -1;
  };
  const std::ptrdiff_t grant = index_of("grant READ sv:");
  const std::ptrdiff_t decision = index_of("decision=commit");
  const std::ptrdiff_t release = index_of("release sv:");
  ASSERT_GE(grant, 0) << "no READ grant on the Sv entry";
  ASSERT_GE(decision, 0) << "client action never decided";
  ASSERT_GE(release, 0) << "Sv lock never released";
  // Granted to the client action: the action the 2PC decides.
  const std::string& decided = lines[static_cast<std::size_t>(decision)];
  const std::size_t from = decided.find("2pc ") + 4;
  const std::string client_uid = decided.substr(from, decided.find(" decision") - from);
  EXPECT_NE(lines[static_cast<std::size_t>(grant)].find("to " + client_uid), std::string::npos)
      << lines[static_cast<std::size_t>(grant)];
  EXPECT_LT(grant, decision);
  // The read lock is released only by the client's commit — after the
  // 2PC decision.
  EXPECT_LT(decision, release);
  // And never released earlier: the first release of the Sv entry is the
  // post-decision one.
  EXPECT_EQ(index_of("release sv:"), release);
}

}  // namespace
}  // namespace gv
