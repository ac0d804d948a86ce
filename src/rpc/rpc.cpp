#include "rpc/rpc.h"

#include <algorithm>
#include <cassert>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/log.h"

namespace gv::rpc {

namespace {
constexpr std::uint8_t kKindRequest = 0;
constexpr std::uint8_t kKindReply = 1;

// Fixed request overhead: kind u8 + req_id u64 + epoch u64 + trace u64 +
// span u64 + op-hash u64 + args length prefix u32.
constexpr std::size_t kRequestOverhead = 1 + 8 * 5 + 4;

// Read a frame's last field, its length-prefixed tail: true when the
// prefix names exactly the bytes left, the cursor then at their start.
bool tail_follows(Buffer& frame) {
  auto len = frame.unpack_u32();
  return len.ok() && len.value() == frame.remaining();
}
}  // namespace

RpcEndpoint::RpcEndpoint(sim::Node& node, sim::Network& net, RpcConfig cfg)
    : node_(node), net_(net), cfg_(cfg), rng_(node.sim().rng().fork()) {
  net_.register_handler(node_.id(),
                        [this](NodeId from, Buffer msg) { receive(from, std::move(msg)); });

  serve(kSysPing, [this](NodeId) -> Result<std::uint64_t> { return node_.epoch(); });

  // Process-kill semantics: when this node crashes, every in-flight
  // outgoing call is abandoned WITHOUT resolving its future — the calling
  // coroutine never resumes, modelling the death of the client process.
  node_.on_crash([this] {
    for (auto& [id, call] : outstanding_) node_.sim().cancel(call.timer);
    outstanding_.clear();
    dedup_.clear();
  });
}

bool DedupWindow::first_delivery(std::uint64_t req_id) {
  if (req_id <= watermark_) return false;
  // `seen_` stays sorted; ids arrive nearly in order, so the insertion
  // point is almost always at or near the end.
  auto pos = std::lower_bound(seen_.begin(), seen_.end(), req_id);
  if (pos != seen_.end() && *pos == req_id) return false;
  seen_.insert(pos, req_id);
  // Once the window grows, advance the watermark past the oldest ids.
  // req_ids are monotone per sender, so anything that old can only be a
  // duplicate.
  if (seen_.size() > 2 * kWindow) {
    const std::uint64_t new_watermark = seen_.back() > kWindow ? seen_.back() - kWindow : 0;
    seen_.erase(seen_.begin(), std::upper_bound(seen_.begin(), seen_.end(), new_watermark));
    watermark_ = std::max(watermark_, new_watermark);
  }
  return true;
}

void RpcEndpoint::register_method(const std::string& service, const std::string& method,
                                  Method fn) {
  // An untyped handler takes its arguments as a buffer of their own.
  register_op(OpName{service.c_str(), method.c_str(), op_hash(service, method)},
              [fn = std::move(fn)](NodeId from, Buffer args) {
                return fn(from, std::move(args.drop_read()));
              });
}

void RpcEndpoint::register_op(const OpName& op_name, Method fn) {
  const std::uint64_t op = op_name.op;
  const std::string name = std::string(op_name.service) + "." + op_name.method;
  auto it = op_names_.find(op);
  // A collision between two distinct op names would silently misroute
  // calls; with a handful of ops per node the chance is negligible, but
  // fail loudly if it ever happens.
  assert(it == op_names_.end() || it->second == name);
  (void)it;
  op_names_[op] = name;
  methods_[op] = std::move(fn);
}

const std::string& RpcEndpoint::op_name(std::uint64_t op) const {
  static const std::string kUnknown = "?";
  auto it = op_names_.find(op);
  return it == op_names_.end() ? kUnknown : it->second;
}

sim::Task<Result<Buffer>> RpcEndpoint::call(NodeId dest, std::string service, std::string method,
                                            Buffer args) {
  return call(dest, std::move(service), std::move(method), std::move(args), cfg_.call_timeout);
}

RpcEndpoint::OpenCall RpcEndpoint::open_call(Binding* binding, std::uint64_t op,
                                             const Buffer& args, sim::SimTime timeout) {
  // Propagate the ambient context (the caller's span when recording, its
  // inherited context otherwise) so the server parents its handler.
  const TraceContext ctx = current_trace_context();
  const std::uint64_t req_id = next_req_id_++;
  sim::SimPromise<Result<Buffer>> promise{node_.sim()};
  auto future = promise.future();
  const std::uint64_t timer = node_.sim().schedule(timeout, [this, req_id] {
    auto it = outstanding_.find(req_id);
    if (it == outstanding_.end()) return;
    auto p = it->second.reply;
    outstanding_.erase(it);
    core::trace_instant(trace_, "rpc.timeout", node_.id(), "rpc");
    p.set_value(Err::Timeout);
  });
  outstanding_.emplace(req_id, Outstanding{promise, timer, binding});
  const bool bound = binding != nullptr && binding->known();

  Buffer msg;
  msg.reserve(kRequestOverhead + args.size());
  msg.pack_u8(kKindRequest)
      .pack_u64(req_id)
      .pack_u64(bound ? binding->epoch + 1 : 0)
      .pack_u64(ctx.trace)
      .pack_u64(ctx.span)
      .pack_u64(op)
      .pack_bytes(args);
  return OpenCall{std::move(msg), std::move(future)};
}

void RpcEndpoint::record_latency(const OpName& name, sim::SimTime t0) {
  if (metrics_ == nullptr) return;
  if (latency_generation_ != metrics_->generation()) {
    latency_.clear();  // the registry was cleared: every handle dangles
    latency_generation_ = metrics_->generation();
  }
  auto [it, fresh] = latency_.try_emplace(name.op, nullptr);
  if (fresh)
    it->second = &metrics_->histogram(std::string("rpc.") + name.service + "." + name.method +
                                      "_us");
  it->second->record(static_cast<double>(node_.sim().now() - t0));
}

void RpcEndpoint::record_group_latency(sim::SimTime t0) {
  core::metric_record(metrics_, "ginv.invoke_us", static_cast<double>(node_.sim().now() - t0));
}

core::TraceRecorder::Span RpcEndpoint::call_span(const OpName& name, const char* what,
                                                 NodeId dest) {
  if (!core::tracing(trace_)) return {};
  return core::trace_span(trace_, std::string("rpc.") + name.service + "." + name.method,
                          node_.id(), "rpc", what + std::to_string(dest));
}

core::TraceRecorder::Span RpcEndpoint::group_span(const Uid& group) {
  if (!core::tracing(trace_)) return {};
  return core::trace_span(trace_, "ginv.invoke", node_.id(), "ginv", "group=" + group.to_string());
}

sim::Task<Result<Buffer>> RpcEndpoint::call(NodeId dest, std::string service, std::string method,
                                            Buffer args, sim::SimTime timeout) {
  co_return co_await call_op<Buffer>(
      dest, OpName{service.c_str(), method.c_str(), op_hash(service, method)}, std::move(args),
      timeout);
}

void RpcEndpoint::check_binding(Binding& binding, const OpName& name,
                                const Result<Buffer>& reply) {
  if (reply.ok() || (reply.error() != Err::Timeout && reply.error() != Err::BindingBroken &&
                     reply.error() != Err::NodeDown))
    return;
  // The server incarnation is gone or unreachable; per sec 3.1 the binding
  // is broken for the remainder of the action.
  binding.broken = true;
  if (core::tracing(trace_))
    core::trace_instant(trace_, "rpc.binding_broken", node_.id(), "rpc",
                        std::string(name.service) + "." + name.method);
}

void RpcEndpoint::receive(NodeId from, Buffer msg) {
  auto kind = msg.unpack_u8();
  auto req_id = msg.unpack_u64();
  if (!kind.ok() || !req_id.ok()) return;  // malformed datagram: drop
  if (kind.value() == kKindRequest)
    on_request(from, req_id.value(), std::move(msg));
  else
    on_reply(from, req_id.value(), std::move(msg));
}

void RpcEndpoint::on_request(NodeId from, std::uint64_t req_id, Buffer msg) {
  // At-most-once: a duplicated datagram must not re-execute the handler.
  // The original delivery's reply (possibly itself duplicated in flight)
  // answers the caller; if that reply was lost, the caller times out and
  // retries under a fresh req_id — exactly as for a lost request.
  if (!dedup_[from].first_delivery(req_id)) return;
  auto expected_epoch = msg.unpack_u64();
  auto wire_trace = msg.unpack_u64();
  auto wire_span = msg.unpack_u64();
  auto op = msg.unpack_u64();
  const std::uint64_t epoch_now = node_.epoch();
  if (!expected_epoch.ok() || !wire_trace.ok() || !wire_span.ok() || !op.ok() ||
      !tail_follows(msg)) {
    send_reply(from, req_id, Err::BadRequest, epoch_now);
    return;
  }
  if (expected_epoch.value() != 0 && expected_epoch.value() != epoch_now + 1) {
    // Bound call against a previous incarnation of this node.
    send_reply(from, req_id, Err::BindingBroken, epoch_now);
    return;
  }
  // The arguments are the frame's tail: the handler decodes them from
  // the datagram's own bytes, at its cursor.
  node_.sim().spawn(run_handler(from, req_id, op.value(), std::move(msg),
                                TraceContext{wire_trace.value(), wire_span.value()}));
}

sim::Task<> RpcEndpoint::run_handler(NodeId from, std::uint64_t req_id, std::uint64_t op,
                                     Buffer args, TraceContext wire_ctx) {
  const std::uint64_t epoch_at_receipt = node_.epoch();
  // The server-side span parents under the context carried on the wire,
  // connecting this handler (and its nested calls) to the client's tree.
  auto span = core::tracing(trace_)
                  ? core::trace_span_under(trace_, wire_ctx, "rpc.serve." + op_name(op),
                                           node_.id(), "rpc", "from=" + std::to_string(from))
                  : core::TraceRecorder::Span{};
  auto it = methods_.find(op);
  if (it == methods_.end()) {
    span.end("not_found");
    send_reply(from, req_id, Err::NotFound, epoch_at_receipt);
    co_return;
  }
  // Copy the handler so re-registration during a suspended call is safe.
  Method handler = it->second;
  Result<Buffer> result = co_await handler(from, std::move(args));
  span.end(result.ok() ? "ok" : to_string(result.error()));
  send_reply(from, req_id, result, epoch_at_receipt);
}

void RpcEndpoint::send_reply(NodeId to, std::uint64_t req_id, const Result<Buffer>& result,
                             std::uint64_t epoch_at_receipt) {
  // Fail-silence: a handler that was interrupted by a crash (or whose node
  // recovered into a new incarnation) sends nothing; the client times out.
  if (!node_.up() || node_.epoch() != epoch_at_receipt) return;
  static const Buffer kNoPiggyback;
  const Buffer& piggyback = piggyback_provider_ ? piggyback_provider_() : kNoPiggyback;
  static const Buffer kNoPayload;
  const Buffer& payload = result.ok() ? result.value() : kNoPayload;
  Buffer msg;
  msg.reserve(1 + 8 + 8 + 4 + 4 + piggyback.size() + 4 + payload.size());
  msg.pack_u8(kKindReply)
      .pack_u64(req_id)
      .pack_u64(epoch_at_receipt)
      .pack_u32(static_cast<std::uint32_t>(result.ok() ? Err::None : result.error()))
      .pack_bytes(piggyback)
      .pack_bytes(payload);
  net_.send(node_.id(), to, std::move(msg));
}

void RpcEndpoint::on_reply(NodeId from, std::uint64_t req_id, Buffer msg) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    // Late or duplicate, or a group call's reply after the first: drop.
    if (metrics_ != nullptr) metrics_->counters().inc("rpc.late_reply");
    return;
  }
  auto promise = it->second.reply;
  Binding* binding = it->second.binding;
  node_.sim().cancel(it->second.timer);
  outstanding_.erase(it);

  auto epoch = msg.unpack_u64();
  auto err = msg.unpack_u32();
  auto piggyback = msg.unpack_bytes();
  if (!epoch.ok() || !err.ok() || !piggyback.ok() || !tail_follows(msg)) {
    promise.set_value(Err::BadRequest);
    return;
  }
  // Any reply, a refusal too, names the incarnation that served the call:
  // a binding made by this call is bound to it from now on (sec 3.1).
  if (binding != nullptr && !binding->known()) binding->epoch = epoch.value();
  // The piggyback blob rides every reply — deliver it to the sink BEFORE
  // resuming the caller, so a cached view invalidated by this very reply
  // is already gone when the awaiting coroutine runs.
  if (!piggyback.value().empty() && piggyback_sink_)
    piggyback_sink_(from, std::move(piggyback).value());
  // The payload is the frame's tail: the caller decodes it from the
  // datagram's own bytes, at its cursor.
  if (static_cast<Err>(err.value()) != Err::None)
    promise.set_value(static_cast<Err>(err.value()));
  else
    promise.set_value(std::move(msg));
}

RpcFabric::RpcFabric(sim::Cluster& cluster, sim::Network& net, RpcConfig cfg) {
  for (NodeId id = 0; id < cluster.size(); ++id)
    endpoints_.push_back(std::make_unique<RpcEndpoint>(cluster.node(id), net, cfg));
}

}  // namespace gv::rpc
