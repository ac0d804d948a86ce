#include "core/transaction.h"

#include "core/system.h"
#include "util/backoff.h"

namespace gv::core {

ClientSession::ClientSession(ReplicaSystem& sys, NodeId node, naming::Scheme scheme)
    : sys_(sys),
      node_(node),
      scheme_(scheme),
      runtime_(sys.endpoint(node), /*uid_seed=*/0xC0DE0000ull + node,
               &sys.coordinator_log_at(node), &sys.trace(), &sys.metrics()),
      activator_(runtime_, sys.naming_node(), scheme),
      commit_(runtime_, sys.naming_node()) {
  cache_ = sys.view_cache_at(node);
  activator_.set_view_cache(cache_);
  commit_.set_view_cache(cache_);
}

std::unique_ptr<Transaction> ClientSession::begin() {
  counters_.inc("session.txn_begin");
  return std::unique_ptr<Transaction>(new Transaction(*this));
}

sim::Task<Status> ClientSession::prefetch(std::vector<Uid> objects) {
  if (cache_ == nullptr) co_return ok_status();
  co_return co_await cache_->prefetch(std::move(objects));
}

Transaction::Transaction(ClientSession& session) : Transaction(session, nullptr) {}

Transaction::Transaction(ClientSession& session, Transaction* parent)
    : session_(session),
      parent_(parent),
      action_(session.runtime(), parent ? &parent->action_ : nullptr) {
  begin_at_ = session.runtime().endpoint().node().sim().now();
  // Top-level transactions root a fresh trace tree; nested ones hang off
  // the parent's root so the whole action stays one connected tree.
  if (tracing(session.runtime().trace()))
    span_ = trace_span_under(session.runtime().trace(),
                             parent != nullptr ? parent->trace_ctx_ : TraceContext{},
                             parent != nullptr ? "txn.nested" : "txn", session.node(), "txn",
                             action_.uid().to_string());
  trace_ctx_ = span_.context();
}

std::unique_ptr<Transaction> Transaction::nest() {
  return std::unique_ptr<Transaction>(new Transaction(session_, this));
}

sim::Task<Result<ActiveBinding*>> Transaction::bound(Uid object) {
  auto it = bindings_.find(object);
  if (it != bindings_.end()) co_return &it->second;
  // Inherit the parent's binding when nested (the parent's locks and
  // participants already cover it; re-binding would double-count use
  // lists).
  for (Transaction* p = parent_; p != nullptr; p = p->parent_) {
    auto pit = p->bindings_.find(object);
    if (pit != p->bindings_.end()) co_return &pit->second;
  }
  auto spec = session_.system().spec_of(object);
  if (!spec.ok()) co_return spec.error();
  const replication::Activator::Contacted known = contacted();
  auto binding = co_await session_.activator().bind_and_activate(spec.value(), action_, known);
  if (!binding.ok()) co_return binding.error();
  auto [pos, inserted] = bindings_.emplace(object, std::move(binding).value());
  (void)inserted;
  co_return &pos->second;
}

replication::Activator::Contacted Transaction::contacted() const {
  replication::Activator::Contacted out;
  for (const Transaction* t = this; t != nullptr; t = t->parent_)
    for (const auto& [uid, b] : t->bindings_)
      for (std::size_t j = 0; j < b.bind.servers.size(); ++j)
        out.emplace(b.bind.servers[j], b.incarnations[j]);
  return out;
}

sim::Task<Result<Buffer>> Transaction::invoke(Uid object, std::string op, Buffer args,
                                              LockMode mode) {
  if (finished()) co_return Err::Aborted;
  auto span = tracing(session_.runtime().trace())
                  ? trace_span_under(session_.runtime().trace(), trace_ctx_, "txn.invoke",
                                     session_.node(), "txn", op + " " + object.to_string())
                  : TraceRecorder::Span{};
  auto b = co_await bound(object);
  if (!b.ok()) co_return b.error();
  ActiveBinding& ab = *b.value();

  // Even when the binding is inherited from an ancestor, THIS action must
  // enlist the servers: a nested abort has to reach them to restore the
  // nested before-images.
  for (sim::NodeId s : ab.bind.servers) action_.enlist({s, replication::kObjSrvService});

  // Ancestor chain for lock inheritance at the servers.
  std::vector<Uid> ancestors;
  for (const actions::AtomicAction* p = action_.parent(); p != nullptr; p = p->parent())
    ancestors.push_back(p->uid());

  // An unprobed object's first invocation activates it at its server,
  // and its reply, a refusal too, names the incarnation staging is bound
  // to when the action had none recorded there (DESIGN.md sec 28). A
  // refusal comes before anything is applied: when the object's replica
  // group has other members the operation goes through the group
  // instead; otherwise the object is re-bound, avoiding that server. Any
  // other failure fails the invocation, for the operation may have run;
  // a server that gave no answer, or could not activate, is suspect.
  std::vector<sim::NodeId> avoid;
  while (ab.activate_on_invoke) {
    rpc::Binding server{ab.primary, ab.incarnations.front()};
    replication::Activation activation{ab.spec.class_name, ab.st,
                                       ab.spec.policy == ReplicationPolicy::Active};
    Result<Buffer> first = co_await replication::objsrv_invoke_activating(
        session_.runtime().endpoint(), server, object, action_.uid(), ancestors, mode, op, args,
        std::move(activation));
    ab.incarnations.front() = server.epoch;
    const Err refused = first.ok() ? Err::None : first.error();
    session_.activator().set_suspect(ab.primary, refused == Err::Timeout || !server.known() ||
                                                     refused == Err::NotActivated);
    if (refused == Err::NotSoleMember) {
      session_.counters().inc("session.activate_group_call");
      ab.activate_on_invoke = false;
      break;
    }
    if (refused != Err::NotQuiescent && refused != Err::NoReplicas && refused != Err::JoinRefused) {
      if (first.ok()) {
        ab.activate_on_invoke = false;
        if (mode == LockMode::Write) ab.wrote = true;
      }
      co_return first;
    }
    session_.counters().inc("session.activate_rebind");
    avoid.push_back(ab.primary);
    const replication::Activator::Contacted known = contacted();
    naming::Rebind rebind{avoid, ab.bind.token};
    auto again =
        co_await session_.activator().bind_and_activate(ab.spec, action_, known, std::move(rebind));
    if (!again.ok()) co_return again.error();
    ab = std::move(again).value();
    for (sim::NodeId s : ab.bind.servers) action_.enlist({s, replication::kObjSrvService});
  }

  Result<Buffer> r = Err::NoReplicas;
  if (ab.spec.policy == ReplicationPolicy::Active) {
    // Multicast to the replica group; first reply wins (sec 2.3(2)(i)).
    const std::optional<replication::Activation> none;
    r = co_await session_.runtime().endpoint().call_group(session_.system().gc(), object,
                                                          replication::kObjsrvInvoke, object,
                                                          action_.uid(), ancestors, mode, op,
                                                          args, none);
  } else {
    // Single-copy passive / coordinator-cohort: invoke the primary.
    r = co_await replication::objsrv_invoke(session_.runtime().endpoint(), ab.primary, object,
                                            action_.uid(), std::move(ancestors), mode,
                                            std::move(op), std::move(args));
  }
  if (r.ok() && mode == LockMode::Write) ab.wrote = true;
  co_return r;
}

sim::Task<Status> Transaction::commit() {
  if (finished()) co_return Err::Aborted;
  if (parent_ != nullptr) {
    // Nested commit: effects (locks, undo data, staged writes) inherit
    // into the parent; the parent also adopts our bindings so its commit
    // processing checkpoints objects we modified.
    Status s = co_await action_.commit();
    if (s.ok()) {
      for (auto& [uid, binding] : bindings_)
        parent_->bindings_.emplace(uid, std::move(binding));
      bindings_.clear();
    }
    span_.end(s.ok() ? "inherited" : "aborted");
    co_return s;
  }

  auto span = trace_span_under(session_.runtime().trace(), trace_ctx_, "txn.commit",
                               session_.node(), "txn");
  std::vector<ActiveBinding*> bs;
  bs.reserve(bindings_.size());
  for (auto& [uid, binding] : bindings_) bs.push_back(&binding);
  Status s = co_await session_.commit_processor().commit(action_, bs);
  session_.counters().inc(s.ok() ? "session.txn_committed" : "session.txn_aborted");
  co_await release_use_lists();
  span.end(s.ok() ? "committed" : "aborted");
  sim::Simulator& sim = session_.runtime().endpoint().node().sim();
  metric_record(session_.runtime().metrics(), "txn.total_us",
                static_cast<double>(sim.now() - begin_at_));
  span_.end(s.ok() ? "committed" : "aborted");
  co_return s;
}

sim::Task<Status> Transaction::abort() {
  if (finished()) co_return Err::Aborted;
  Status s = co_await action_.abort();
  if (parent_ == nullptr) {
    session_.counters().inc("session.txn_aborted");
    co_await release_use_lists();
  }
  span_.end("aborted");
  co_return s;
}

sim::Task<> Transaction::release_use_lists() {
  // Fig 7: the Decrement runs AFTER the client action has terminated
  // (commit or abort alike), as one call for every binding the action
  // made, needing no client action. Resend it a few times: a transiently
  // lost Decrement from a LIVE client leaks use-list entries forever,
  // since the janitor only purges dead clients (found by the gv_campaign
  // netchaos mix). The bindings' tokens make the resend harmless when
  // only the reply was lost.
  std::vector<naming::UseRelease> releases;
  for (const auto& [uid, binding] : bindings_)
    if (!binding.cached)  // cached binds never touched use lists
      releases.push_back(naming::UseRelease{uid, binding.bind.servers, binding.bind.token});
  if (releases.empty()) co_return;
  Backoff pace{BackoffConfig{50 * sim::kMillisecond, 400 * sim::kMillisecond},
               session_.runtime().endpoint().rng().fork()};
  for (int attempt = 0; attempt < 5; ++attempt) {
    Status s = co_await session_.activator().binder().unbind(releases);
    if (s.ok()) break;
    session_.counters().inc("session.unbind_retry");
    co_await session_.runtime().endpoint().node().sleep(pace.next());
  }
}

}  // namespace gv::core
