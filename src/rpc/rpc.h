// RPC layer: operation invocation on (possibly remote) objects, sec 2.2.
//
// Request/reply over the datagram Network with per-call timeouts. Servers
// register named methods; handlers are coroutines so they can themselves
// make nested RPCs (e.g. an object server fetching state from an object
// store while serving an activation request).
//
// Bindings (sec 3.1): a client's binding to a server is created when the
// first invocation is made and carries the server node's epoch. If the
// server node crashes, the binding is broken and STAYS broken for the
// remainder of the client's atomic action, even if the node recovers —
// the recovered node holds pre-crash state and must run the recovery
// protocol (sec 4.2) before serving again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/future.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/task.h"
#include "util/backoff.h"
#include "util/buffer.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/trace_context.h"

namespace gv {
class Histogram;
}  // namespace gv

namespace gv::core {
class TraceRecorder;
class MetricsRegistry;
}  // namespace gv::core

namespace gv::rpc {

using sim::NodeId;

// A client's view of one server incarnation.
struct Binding {
  NodeId server = sim::kNoNode;
  std::uint64_t epoch = 0;
  bool broken = false;

  bool valid() const noexcept { return server != sim::kNoNode && !broken; }
};

struct RpcConfig {
  sim::SimTime call_timeout = 50 * sim::kMillisecond;

  // Retry policy for call_with_retry: exponential backoff between
  // attempts with deterministic jitter (the endpoint's Rng is forked from
  // the simulation RNG, so retry schedules replay exactly from the seed).
  std::uint32_t retry_attempts = 3;  // total attempts, including the first
  sim::SimTime retry_initial = 10 * sim::kMillisecond;
  sim::SimTime retry_max = 200 * sim::kMillisecond;
  double retry_multiplier = 2.0;
  double retry_jitter = 0.2;  // +/- fraction of each delay

  BackoffConfig backoff() const noexcept {
    return BackoffConfig{retry_initial, retry_max, retry_multiplier, retry_jitter};
  }
};

// At-most-once execution: first_delivery() is true exactly once per
// req_id from one sender. The network may duplicate datagrams
// (NetConfig::dup_prob); re-running a request would double-apply
// non-idempotent operations (Increment, prepare, ...), so duplicates are
// dropped — the original execution's reply already answers the caller.
// Memory is bounded: ids more than kWindow below the highest seen fall
// under a watermark and count as seen.
class DedupWindow {
 public:
  static constexpr std::size_t kWindow = 1024;

  bool first_delivery(std::uint64_t req_id);

 private:
  std::uint64_t watermark_ = 0;      // ids <= watermark are known-seen
  std::vector<std::uint64_t> seen_;  // ids above it, sorted
};

class RpcEndpoint {
 public:
  RpcEndpoint(sim::Node& node, sim::Network& net, RpcConfig cfg = {});

  // A method handler; `from` identifies the calling node.
  using Method = std::function<sim::Task<Result<Buffer>>(NodeId from, Buffer args)>;

  // Operations travel the wire as the 64-bit FNV-1a of "service.method"
  // rather than the string pair itself: 8 fixed bytes instead of a
  // length-prefixed name on every request, and handler dispatch becomes a
  // u64 hash lookup. Registration keeps the readable name for trace
  // labels and asserts against hash collisions.
  static std::uint64_t op_hash(const std::string& service, const std::string& method) noexcept;

  // Register "service.method". Re-registration replaces (used after
  // recovery when services restart).
  void register_method(const std::string& service, const std::string& method, Method fn);
  void unregister_service(const std::string& service);

  // Plain call: send request, await reply or timeout.
  sim::Task<Result<Buffer>> call(NodeId dest, std::string service, std::string method,
                                 Buffer args);
  sim::Task<Result<Buffer>> call(NodeId dest, std::string service, std::string method,
                                 Buffer args, sim::SimTime timeout);

  // Call with up to cfg.retry_attempts attempts, pacing retries with
  // exponential backoff + jitter. Retries ONLY transport-level losses
  // (Timeout): application errors and NodeDown are returned immediately,
  // and the callee must be idempotent (every built-in service is — the
  // duplicate-suppression window below absorbs re-executed requests).
  sim::Task<Result<Buffer>> call_with_retry(NodeId dest, std::string service, std::string method,
                                            Buffer args);

  Rng& rng() noexcept { return rng_; }

  // Bound call (sec 3.1): refuses immediately with BindingBroken if the
  // server incarnation the binding was made against is gone; marks the
  // binding broken on timeout.
  sim::Task<Result<Buffer>> call_bound(Binding& binding, std::string service, std::string method,
                                       Buffer args);

  // Create a binding against the server node's *current* incarnation.
  // Fails if the node is down (from this node's perspective: we must be
  // able to reach it; an unreachable node looks identical to a crashed
  // one, so this performs a real round-trip "bind" ping).
  sim::Task<Result<Binding>> bind(NodeId server);

  sim::Node& node() noexcept { return node_; }
  NodeId node_id() const noexcept { return node_.id(); }
  RpcConfig& config() noexcept { return cfg_; }

  // Attach observability sinks (both nullable). The ambient TraceContext
  // rides the request wire format either way, so cross-node parenting
  // works even when only one side records.
  void set_obs(core::TraceRecorder* trace, core::MetricsRegistry* metrics) noexcept {
    trace_ = trace;
    metrics_ = metrics;
    latency_.clear();
  }
  core::TraceRecorder* trace() const noexcept { return trace_; }
  core::MetricsRegistry* metrics() const noexcept { return metrics_; }

  // Reply piggybacking (sec 6 cache maintenance): a node may attach a
  // small opaque blob to every reply it sends (provider), and consume the
  // blob riding on every reply it receives (sink). The group-view cache
  // uses this to ship recent invalidations from the naming node to
  // clients without any extra messages. The provider returns a reference
  // that must stay valid until the reply is packed.
  void set_piggyback_provider(std::function<const Buffer&()> fn) {
    piggyback_provider_ = std::move(fn);
  }
  void set_piggyback_sink(std::function<void(NodeId, Buffer)> fn) {
    piggyback_sink_ = std::move(fn);
  }

 private:
  // Arm the timeout, register the call and send the request datagram;
  // the future resolves with the reply or Err::Timeout.
  sim::SimFuture<Result<Buffer>> send_request(NodeId dest, std::uint64_t wire_epoch,
                                              std::uint64_t op, Buffer args,
                                              sim::SimTime timeout);
  // Record a finished call's latency in "rpc.<service>.<method>_us".
  void record_latency(std::uint64_t op, const std::string& service, const std::string& method,
                      sim::SimTime t0);
  void on_message(NodeId from, Buffer msg);
  void on_request(NodeId from, std::uint64_t req_id, Buffer msg);
  void on_reply(NodeId from, std::uint64_t req_id, Buffer msg);
  sim::Task<> run_handler(NodeId from, std::uint64_t req_id, std::uint64_t op, Buffer args,
                          TraceContext wire_ctx);
  void send_reply(NodeId to, std::uint64_t req_id, const Result<Buffer>& result,
                  std::uint64_t epoch_at_receipt);
  const std::string& op_name(std::uint64_t op) const;

  sim::Node& node_;
  sim::Network& net_;
  RpcConfig cfg_;
  Rng rng_;  // forked from the sim RNG: retry jitter
  core::TraceRecorder* trace_ = nullptr;
  core::MetricsRegistry* metrics_ = nullptr;
  std::uint64_t next_req_id_ = 1;
  std::unordered_map<std::uint64_t, Method> methods_;   // op hash -> handler
  std::unordered_map<std::uint64_t, std::string> op_names_;  // op hash -> "svc.method"
  // op hash -> latency histogram in metrics_, valid while the registry's
  // generation() equals latency_generation_.
  std::unordered_map<std::uint64_t, gv::Histogram*> latency_;
  std::uint64_t latency_generation_ = 0;
  std::function<const Buffer&()> piggyback_provider_;
  std::function<void(NodeId, Buffer)> piggyback_sink_;
  // req_id -> (reply promise, timeout event id)
  std::unordered_map<std::uint64_t, std::pair<sim::SimPromise<Result<Buffer>>, std::uint64_t>>
      outstanding_;
  std::unordered_map<NodeId, DedupWindow> dedup_;  // per sender; volatile
};

// The cluster-wide RPC fabric: one endpoint per node, plus a built-in
// "bind"/"ping" service on every node.
class RpcFabric {
 public:
  RpcFabric(sim::Cluster& cluster, sim::Network& net, RpcConfig cfg = {});

  RpcEndpoint& endpoint(NodeId id) { return *endpoints_.at(id); }

  void set_obs(core::TraceRecorder* trace, core::MetricsRegistry* metrics) noexcept {
    for (auto& ep : endpoints_) ep->set_obs(trace, metrics);
  }

 private:
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;
};

}  // namespace gv::rpc
