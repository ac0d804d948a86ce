#include "actions/atomic_action.h"

#include "actions/coordinator_log.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/trace.h"
#include "util/log.h"

namespace gv::actions {

ActionRuntime::ActionRuntime(rpc::RpcEndpoint& endpoint, std::uint64_t uid_seed,
                             CoordinatorLog* log, core::TraceRecorder* trace,
                             core::MetricsRegistry* metrics)
    : endpoint_(endpoint), log_(log), uids_(uid_seed), trace_(trace), metrics_(metrics) {}

AtomicAction::AtomicAction(ActionRuntime& rt, AtomicAction* parent)
    : rt_(rt), parent_(parent), uid_(rt.new_uid()) {
  rt_.counters().inc(parent ? "action.begin_nested" : "action.begin_top");
}

AtomicAction::~AtomicAction() {
  // An action destroyed while Running was abandoned (e.g. its coroutine
  // died with its node). Participants learn the outcome via presumed
  // abort / cleanup protocols; nothing to do synchronously here.
  if (state_ == ActionState::Running) rt_.counters().inc("action.abandoned");
}

const Uid& AtomicAction::top_level_uid() const noexcept {
  const AtomicAction* a = this;
  while (a->parent_) a = a->parent_;
  return a->uid_;
}

void AtomicAction::enlist(ParticipantRef ref) {
  if (std::find(participants_.begin(), participants_.end(), ref) == participants_.end())
    participants_.push_back(std::move(ref));
}

void AtomicAction::voted_yes(const ParticipantRef& ref) {
  const bool enlisted =
      std::find(participants_.begin(), participants_.end(), ref) != participants_.end();
  if (enlisted && std::find(voted_.begin(), voted_.end(), ref) == voted_.end())
    voted_.push_back(ref);
}

void AtomicAction::voted_read_only(const ParticipantRef& ref) {
  if (std::find(participants_.begin(), participants_.end(), ref) == participants_.end()) return;
  rt_.counters().inc("action.read_only_vote");
  delist(ref);
}

bool AtomicAction::sole_participant(const ParticipantRef& ref) const {
  return participants_.size() == 1 && participants_.front() == ref;
}

void AtomicAction::delist(const ParticipantRef& ref) {
  participants_.erase(std::remove(participants_.begin(), participants_.end(), ref),
                      participants_.end());
  voted_.erase(std::remove(voted_.begin(), voted_.end(), ref), voted_.end());
}

sim::Task<Status> AtomicAction::commit() {
  if (state_ != ActionState::Running) co_return Err::Aborted;
  if (is_top_level()) {
    Status s = co_await commit_top_level();
    co_return s;
  }
  Status s = co_await commit_nested();
  co_return s;
}

sim::Task<Status> AtomicAction::commit_nested() {
  // Inheritance: every participant re-keys this action's records (locks,
  // undo data, pending updates) to the parent, then the participant ref
  // itself moves up so top-level 2PC reaches it.
  for (const ParticipantRef& p : participants_) {
    auto r = co_await rt_.endpoint().call(p.node, kTxnNestedCommit, p.name, uid_,
                                          parent_->uid());
    if (!r.ok()) {
      // The participant is unreachable: its effects cannot be inherited,
      // so the nested action must abort instead (its caller may retry).
      rt_.counters().inc("action.nested_commit_failed");
      co_return co_await abort();
    }
  }
  for (ParticipantRef& p : participants_) parent_->enlist(std::move(p));
  for (const ParticipantRef& p : voted_) parent_->voted_yes(p);
  participants_.clear();
  voted_.clear();
  state_ = ActionState::Committed;
  rt_.counters().inc("action.committed_nested");
  co_return ok_status();
}

sim::Task<Status> AtomicAction::commit_top_level() {
  const NodeId here = rt_.endpoint().node_id();
  sim::Simulator& sim = rt_.endpoint().node().sim();
  auto commit_span = core::tracing(rt_.trace())
                         ? core::trace_span(rt_.trace(), "action.commit_2pc", here, "action",
                                            uid_.to_string())
                         : core::TraceRecorder::Span{};
  const sim::SimTime t_start = sim.now();

  // Phase 1 asks, in reverse enlist order, every participant that has not
  // voted yet. In a writing action the stores and bound servers voted Yes
  // in their staging replies, so only the group view database is asked. A
  // participant may vote read-only (and leave) only while no one has
  // voted yes: in a writing action the group view database's read locks
  // pin St and Sv until the stores install. A read-only voter is
  // delisted, so neither phase 2 nor an abort reaches it.
  auto prepare_span = core::tracing(rt_.trace())
                          ? core::trace_span(rt_.trace(), "action.prepare", here, "action",
                                             std::to_string(participants_.size()) +
                                                 " participants")
                          : core::TraceRecorder::Span{};
  bool all_voted = true;
  bool any_yes = !voted_.empty();
  bool asked = false;
  for (std::size_t i = participants_.size(); i-- > 0;) {
    const ParticipantRef& p = participants_[i];
    if (std::find(voted_.begin(), voted_.end(), p) != voted_.end()) continue;
    const bool may_leave = !any_yes;
    asked = true;
    auto vote = co_await rt_.endpoint().call(p.node, kTxnPrepare, p.name, uid_, may_leave);
    if (!vote.ok() || vote.value() == Vote::No) {
      all_voted = false;
      break;
    }
    if (vote.value() == Vote::Yes) {
      any_yes = true;
    } else {
      rt_.counters().inc("action.read_only_vote");
      participants_.erase(participants_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // Like commit.phase2_us, sampled only when a phase 1 ran: an action
  // whose participants all voted in their work replies asks no one.
  if (asked)
    core::metric_record(rt_.metrics(), "commit.prepare_us",
                        static_cast<double>(sim.now() - t_start));
  prepare_span.end(!all_voted ? "abort_vote" : any_yes ? "all_yes" : "read_only");

  if (!all_voted) {
    rt_.counters().inc("action.prepare_failed");
    GV_LOG(LogLevel::Debug, sim.now(), "action", "2pc %s decision=abort (prepare failed)",
           uid_.to_string().c_str());
    commit_span.end("aborted");
    co_return co_await abort();
  }

  // Decision point. The decision is recorded in the node's coordinator
  // log so participants that phase 2 does not reach can resolve their
  // in-doubt prepared state by asking us. The log is stable storage, so
  // the decision outlives a crash of this node, even one in the middle
  // of phase 2.
  state_ = ActionState::Committed;
  if (rt_.coordinator_log() != nullptr) rt_.coordinator_log()->record(uid_, true);
  rt_.counters().inc("action.committed_top");
  GV_LOG(LogLevel::Debug, sim.now(), "action", "2pc %s decision=commit",
         uid_.to_string().c_str());
  core::trace_instant(rt_.trace(), "action.decision", here, "action", "commit");

  // Phase 2, to the yes voters in enlist order. Every participant left
  // at its vote: the action is over.
  if (participants_.empty()) {
    rt_.counters().inc("action.no_phase2");
  } else {
    auto phase2_span = core::trace_span(rt_.trace(), "action.phase2", here, "action");
    const sim::SimTime t_phase2 = sim.now();
    for (const ParticipantRef& p : participants_) {
      auto r = co_await rt_.endpoint().call(p.node, kTxnCommit, p.name, uid_);
      if (!r.ok()) rt_.counters().inc("action.commit_phase_miss");
    }
    core::metric_record(rt_.metrics(), "commit.phase2_us",
                        static_cast<double>(sim.now() - t_phase2));
    phase2_span.end();
  }
  core::metric_record(rt_.metrics(), "commit.total_us",
                      static_cast<double>(sim.now() - t_start));
  commit_span.end("committed");
  co_return ok_status();
}

sim::Task<Status> AtomicAction::abort() {
  if (state_ == ActionState::Aborted) co_return Err::Aborted;
  state_ = ActionState::Aborted;
  if (is_top_level() && rt_.coordinator_log() != nullptr)
    rt_.coordinator_log()->record(uid_, false);
  rt_.counters().inc(is_top_level() ? "action.aborted_top" : "action.aborted_nested");
  GV_LOG(LogLevel::Debug, rt_.endpoint().node().sim().now(), "action", "2pc %s decision=abort",
         uid_.to_string().c_str());
  core::trace_instant(rt_.trace(), "action.decision", rt_.endpoint().node_id(), "action",
                      "abort");
  // Chosen before the loop: GCC 12 miscompiles a ?: operand inside the
  // arguments of a co_await-ed call (double-destroys a temporary).
  const auto& method = is_top_level() ? kTxnAbort : kTxnNestedAbort;
  for (const ParticipantRef& p : participants_) {
    auto r = co_await rt_.endpoint().call(p.node, method, p.name, uid_);
    if (!r.ok()) rt_.counters().inc("action.abort_phase_miss");
  }
  co_return Err::Aborted;
}

// -------------------------------------------------------------- registry

TxnRegistry::TxnRegistry(rpc::RpcEndpoint& endpoint) : endpoint_(endpoint) {
  endpoint_.serve(kTxnPrepare, [this](NodeId, std::string name, Uid txn,
                                       bool may_leave) -> sim::Task<Result<Vote>> {
    ServerParticipant* p = find(name);
    if (p == nullptr) co_return Err::BadRequest;
    co_return co_await p->prepare(txn, may_leave);
  });
  endpoint_.serve(kTxnCommit, [this](NodeId, std::string name, Uid txn) -> sim::Task<Status> {
    ServerParticipant* p = find(name);
    if (p == nullptr) co_return Err::BadRequest;
    co_return co_await p->commit(txn);
  });
  endpoint_.serve(kTxnAbort, [this](NodeId, std::string name, Uid txn) -> sim::Task<Status> {
    ServerParticipant* p = find(name);
    if (p == nullptr) co_return Err::BadRequest;
    co_return co_await p->abort(txn);
  });
  endpoint_.serve(kTxnNestedCommit,
                  [this](NodeId, std::string name, Uid child, Uid parent) -> Status {
                    ServerParticipant* p = find(name);
                    if (p == nullptr) return Err::BadRequest;
                    p->nested_commit(child, parent);
                    return ok_status();
                  });
  endpoint_.serve(kTxnNestedAbort, [this](NodeId, std::string name, Uid child) -> Status {
    ServerParticipant* p = find(name);
    if (p == nullptr) return Err::BadRequest;
    p->nested_abort(child);
    return ok_status();
  });
}

ServerParticipant* TxnRegistry::find(const std::string& name) const {
  auto it = participants_.find(name);
  return it == participants_.end() ? nullptr : it->second;
}

void TxnRegistry::add(const std::string& name, ServerParticipant* participant) {
  participants_[name] = participant;
}

void TxnRegistry::remove(const std::string& name) { participants_.erase(name); }

}  // namespace gv::actions
