// RPC layer: operation invocation on (possibly remote) objects, sec 2.2.
//
// Request/reply over the datagram Network with per-call timeouts. Servers
// register named methods; handlers are coroutines so they can themselves
// make nested RPCs (e.g. an object server fetching state from an object
// store while serving an activation request).
//
// Typed methods (the stub layer): each service declares its methods once
// as Rpc<R(A...)> values. serve() registers a handler taking
// (NodeId from, A... args); call() sends A... and yields Result<R>. Both
// marshal through the wire codec (rpc/wire.h), so a handler or a call
// whose types differ from the declaration does not compile. A request is
// decoded in full before its handler runs; one that does not decode is
// refused with BadRequest.
//
// Bindings (sec 3.1): a client's binding to a server is created by the
// first invocation made through it and carries the server node's epoch.
// A Binding whose epoch is not yet known sends its call unbound and takes
// the epoch from the call's reply, whatever the reply answers: a refusal
// binds it as an operation's result does. If the server node crashes, the
// binding is broken and STAYS broken for the remainder of the client's
// atomic action, even if the node recovers — the recovered node holds
// pre-crash state and must run the recovery protocol (sec 4.2) before
// serving again. A bound call is a typed call that carries the epoch it
// expects. A crash of the calling node abandons a call, even between its
// reply and the caller's resumption (sim/node.h).
//
// Frames: a request is kind u8 (0), req_id u64, the expected epoch u64 (a
// bound call's plus one; 0 when unbound), the trace and span ids u64,
// the op hash u64, then the arguments, length-prefixed. A reply is kind
// u8 (1), req_id u64, the epoch of the incarnation that served it u64,
// its Err u32, the piggyback blob, length-prefixed, then the reply body,
// length-prefixed. Each frame ends in its payload,
// so a handler decodes its arguments, and a caller its reply, from the
// datagram's own bytes at the read cursor, with no copy; a payload whose
// length disagrees with the bytes left in the frame answers BadRequest.
//
// Group invocations (sec 2.3(2)(i)) are calls too: call_group multicasts
// the same request, reliable and totally ordered, to a replica group.
// Each member's group upcall hands it to its endpoint's request path, so
// it is served, deduplicated and answered like any request; the first
// reply answers the call and later ones are dropped as late.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.h"
#include "rpc/group_comm.h"
#include "rpc/wire.h"
#include "sim/future.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/task.h"
#include "util/buffer.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/trace_context.h"

namespace gv {
class Histogram;
}  // namespace gv

namespace gv::core {
class MetricsRegistry;
}  // namespace gv::core

namespace gv::rpc {

using sim::NodeId;

// A client's view of one server incarnation. Until its epoch is known,
// its first call goes unbound and the reply names the incarnation.
struct Binding {
  static constexpr std::uint64_t kUnknownEpoch = ~std::uint64_t{0};

  NodeId server = sim::kNoNode;
  std::uint64_t epoch = kUnknownEpoch;
  bool broken = false;

  bool valid() const noexcept { return server != sim::kNoNode && !broken; }
  bool known() const noexcept { return epoch != kUnknownEpoch; }
};

struct RpcConfig {
  sim::SimTime call_timeout = 50 * sim::kMillisecond;
};

// Operations travel the wire as the 64-bit FNV-1a of "service.method"
// rather than the string pair itself: 8 fixed bytes instead of a
// length-prefixed name on every request, and handler dispatch becomes a
// u64 hash lookup. Registration keeps the readable name for trace labels
// and asserts against hash collisions.
constexpr std::uint64_t op_hash(std::string_view service, std::string_view method) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ull;
  };
  for (char c : service) mix(static_cast<unsigned char>(c));
  mix('.');
  for (char c : method) mix(static_cast<unsigned char>(c));
  return h;
}

// A method's wire identity: its readable name (trace spans, latency
// histograms) and the op hash that travels in its place.
struct OpName {
  const char* service;
  const char* method;
  std::uint64_t op;
};

// One method's declaration: Rpc<R(A...)> takes arguments A... and replies
// R. A `void` reply is empty; a `Buffer` reply is the reply body itself.
template <typename Sig>
struct Rpc;
template <typename R, typename... A>
struct Rpc<R(A...)> {
  constexpr Rpc(const char* service, const char* method)
      : name{service, method, op_hash(service, method)} {}
  OpName name;
};

// The built-in ping service every endpoint serves: the node's current
// incarnation epoch.
inline constexpr Rpc<std::uint64_t()> kSysPing{"sys", "ping"};

// A handler's result as its reply body.
template <typename R>
Result<Buffer> encode_reply(Result<R> r) {
  if (!r.ok()) return r.error();
  if constexpr (std::is_void_v<R>)
    return Buffer{};
  else if constexpr (std::is_same_v<R, Buffer>)
    return std::move(r).value();
  else
    return encode(r.value());
}

// A reply body as the caller's result, decoded in place from its cursor.
template <typename R>
Result<R> decode_reply(Buffer& body) {
  if constexpr (std::is_void_v<R>) {
    return ok_status();
  } else if constexpr (std::is_same_v<R, Buffer>) {
    return std::move(body.drop_read());
  } else {
    Result<R> out{R{}};
    if (!wire::get(body, out.value())) return Err::BadRequest;
    return out;
  }
}

// What a method handler hands the endpoint: the encoded reply when the
// handler finished synchronously, or else the handler's own task, run
// when the endpoint awaits it and encoded as it completes. Wrapping the
// task instead of awaiting it in an adapter coroutine keeps a served
// request at one coroutine frame beyond the handler's own.
class Served {
 public:
  explicit Served(Err refused) : reply_(refused) {}
  template <typename R>
  Served(Result<R> reply) : reply_(encode_reply(std::move(reply))) {}  // NOLINT
  template <typename R>
  Served(sim::Task<Result<R>> task) {  // NOLINT
    auto h = task.release();
    promise_ = &h.promise();
    task_ = h;
    finish_ = [](std::coroutine_handle<> erased) {
      auto typed = std::coroutine_handle<sim::detail::TaskPromise<Result<R>>>::from_address(
          erased.address());
      assert(typed.promise().value.has_value());
      return encode_reply(std::move(*typed.promise().value));
    };
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (task_) task_.destroy();
  }

  // Awaitable, like a Task: the caller's trace context is restored when
  // the handler completes.
  bool await_ready() const noexcept { return !task_; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
    ctx_ = current_trace_context();
    promise_->continuation = caller;
    return task_;
  }
  Result<Buffer> await_resume() {
    if (!task_) return std::move(reply_);
    set_current_trace_context(ctx_);
    return finish_(task_);
  }

 private:
  Result<Buffer> reply_ = Buffer{};
  std::coroutine_handle<> task_;
  sim::detail::TaskPromiseBase* promise_ = nullptr;
  Result<Buffer> (*finish_)(std::coroutine_handle<>) = nullptr;
  TraceContext ctx_;
};

namespace detail {
// The parameter list and result of a (non-generic) handler lambda.
template <typename F>
struct HandlerSig : HandlerSig<decltype(&F::operator())> {};
template <typename C, typename Ret, typename... P>
struct HandlerSig<Ret (C::*)(P...) const> {
  using Params = std::tuple<P...>;
  using Returns = Ret;
};
}  // namespace detail

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

  // An untyped method handler; `from` identifies the calling node.
  using Method = std::function<Served(NodeId from, Buffer args)>;

  // Register "service.method". Re-registration replaces (used after
  // recovery when services restart).
  void register_method(const std::string& service, const std::string& method, Method fn);

  // Serve the declared method `m` with `fn(NodeId from, A... args)`, its
  // parameters taken by value. `fn` returns Result<R> when it finishes
  // synchronously, or its own sim::Task<Result<R>> (Status for a void R).
  template <typename R, typename... A, typename F>
  void serve(const Rpc<R(A...)>& m, F fn) {
    using Sig = detail::HandlerSig<F>;
    static_assert(std::is_same_v<typename Sig::Params, std::tuple<NodeId, A...>>,
                  "a handler takes (NodeId from, A... args), each by value");
    static_assert(std::is_same_v<typename Sig::Returns, Result<R>> ||
                      std::is_same_v<typename Sig::Returns, sim::Task<Result<R>>>,
                  "a handler returns Result<R> or sim::Task<Result<R>>");
    register_op(m.name, [fn = std::move(fn)](NodeId from, Buffer args) -> Served {
      std::tuple<A...> in;
      if (!wire::get(args, in)) return Served{Err::BadRequest};
      return std::apply([&](A&... a) -> Served { return fn(from, std::move(a)...); }, in);
    });
  }

  // Plain call: send request, await reply or timeout.
  sim::Task<Result<Buffer>> call(NodeId dest, std::string service, std::string method,
                                 Buffer args);
  sim::Task<Result<Buffer>> call(NodeId dest, std::string service, std::string method,
                                 Buffer args, sim::SimTime timeout);

  // Typed call of the declared method `m`. The arguments are encoded
  // before this returns, so the task holds no reference to them.
  template <typename R, typename... A>
  sim::Task<Result<R>> call(NodeId dest, const Rpc<R(A...)>& m,
                            const std::type_identity_t<A>&... args) {
    return call_op<R>(dest, m.name, encode(args...), cfg_.call_timeout);
  }
  template <typename R, typename... A>
  sim::Task<Result<R>> call(NodeId dest, sim::SimTime timeout, const Rpc<R(A...)>& m,
                            const std::type_identity_t<A>&... args) {
    return call_op<R>(dest, m.name, encode(args...), timeout);
  }

  // Bound call (sec 3.1) of the declared method `m`: refuses at once with
  // BindingBroken if the binding is already broken, and breaks it when
  // the server incarnation it was made against is gone or unreachable.
  // A binding whose epoch is not yet known takes it from the reply.
  template <typename R, typename... A>
  sim::Task<Result<R>> call_bound(Binding& binding, const Rpc<R(A...)>& m,
                                  const std::type_identity_t<A>&... args) {
    return call_op<R>(binding.server, m.name, encode(args...), cfg_.call_timeout, &binding);
  }
  template <typename R, typename... A>
  sim::Task<Result<R>> call_bound(Binding& binding, sim::SimTime timeout, const Rpc<R(A...)>& m,
                                  const std::type_identity_t<A>&... args) {
    return call_op<R>(binding.server, m.name, encode(args...), timeout, &binding);
  }

  // Group invocation of the declared method `m` on every member of
  // `group`; the first reply answers it. Spanned "ginv.invoke", timed in
  // "ginv.invoke_us".
  template <typename R, typename... A>
  sim::Task<Result<R>> call_group(GroupComm& gc, Uid group, const Rpc<R(A...)>& m,
                                  const std::type_identity_t<A>&... args) {
    return group_op<R>(gc, group, m.name, encode(args...));
  }

  // Take a datagram addressed to this endpoint: a request runs its
  // handler, a reply resolves the call awaiting it. The network hands
  // every datagram here, and a replica group member its group's requests.
  void receive(NodeId from, Buffer msg);

  Rng& rng() noexcept { return rng_; }

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
  void register_op(const OpName& name, Method fn);
  // A call of `name`, bound when `binding` is not null, its reply decoded
  // as R.
  template <typename R>
  sim::Task<Result<R>> call_op(NodeId dest, OpName name, Buffer args, sim::SimTime timeout,
                               Binding* binding = nullptr);
  template <typename R>
  sim::Task<Result<R>> group_op(GroupComm& gc, Uid group, OpName name, Buffer args);
  // The client-side span of a call ("rpc.<service>.<method>") or a group
  // call ("ginv.invoke"); inert when not tracing.
  core::TraceRecorder::Span call_span(const OpName& name, const char* what, NodeId dest);
  core::TraceRecorder::Span group_span(const Uid& group);
  // A call opened by open_call: its request datagram, still to be sent,
  // and the future that resolves with the reply or Err::Timeout.
  struct OpenCall {
    Buffer request;
    sim::SimFuture<Result<Buffer>> reply;
  };
  // Register a call in outstanding_ with its timeout armed, and frame its
  // request: bound to `binding`'s epoch when it is known, and unbound
  // otherwise (no binding, or one whose reply is to name its epoch).
  OpenCall open_call(Binding* binding, std::uint64_t op, const Buffer& args,
                     sim::SimTime timeout);
  // Mark a bound call's binding broken (sec 3.1) when its reply shows the
  // server incarnation gone or unreachable.
  void check_binding(Binding& binding, const OpName& name, const Result<Buffer>& reply);
  // Record a finished call's latency in "rpc.<service>.<method>_us", or a
  // group call's in "ginv.invoke_us".
  void record_latency(const OpName& name, sim::SimTime t0);
  void record_group_latency(sim::SimTime t0);
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
  Rng rng_;  // forked from the sim RNG; the store and recovery daemon fork it
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
  // A call awaiting its reply: the promise it resolves, its timeout event,
  // and the binding whose epoch the reply names when not yet known.
  struct Outstanding {
    sim::SimPromise<Result<Buffer>> reply;
    std::uint64_t timer;
    Binding* binding;
  };
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;  // by req_id
  std::unordered_map<NodeId, DedupWindow> dedup_;  // per sender; volatile
};

template <typename R>
sim::Task<Result<R>> RpcEndpoint::call_op(NodeId dest, OpName name, Buffer args,
                                          sim::SimTime timeout, Binding* binding) {
  if (binding != nullptr && !binding->valid()) co_return Err::BindingBroken;
  if (!node_.up()) co_return Err::NodeDown;
  auto span = call_span(name, binding != nullptr ? "bound dest=" : "dest=", dest);
  const sim::SimTime t0 = node_.sim().now();
  OpenCall call = open_call(binding, name.op, args, timeout);
  net_.send(node_.id(), dest, std::move(call.request));
  Result<Buffer> reply = co_await call.reply.on(node_);
  record_latency(name, t0);
  if (binding != nullptr) check_binding(*binding, name, reply);
  span.end(reply.ok() ? "ok" : to_string(reply.error()));
  if (!reply.ok()) co_return reply.error();
  co_return decode_reply<R>(reply.value());
}

template <typename R>
sim::Task<Result<R>> RpcEndpoint::group_op(GroupComm& gc, Uid group, OpName name, Buffer args) {
  if (!node_.up()) co_return Err::NodeDown;
  auto span = group_span(group);
  const sim::SimTime t0 = node_.sim().now();
  OpenCall call = open_call(nullptr, name.op, args, cfg_.call_timeout);
  gc.multicast(node_.id(), group, std::move(call.request), McastMode::ReliableOrdered);
  Result<Buffer> reply = co_await call.reply.on(node_);
  record_group_latency(t0);
  span.end(reply.ok() ? "ok" : to_string(reply.error()));
  if (!reply.ok()) co_return reply.error();
  co_return decode_reply<R>(reply.value());
}

// The cluster-wide RPC fabric: one endpoint per node, each serving the
// built-in "sys.ping".
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
