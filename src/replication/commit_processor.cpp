#include "replication/commit_processor.h"

#include <algorithm>
#include <set>

#include "actions/coordinator_log.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "store/object_store.h"
#include "util/log.h"

namespace gv::replication {

sim::Task<Status> CommitProcessor::validate_cached_views(
    actions::AtomicAction& action, const std::vector<ActiveBinding*>& bindings, bool last) {
  // Group items by the naming-node incarnation their fill was served by;
  // normally that is a single group and a single RPC.
  std::map<std::uint64_t, std::vector<naming::ValidateItem>> groups;
  for (ActiveBinding* b : bindings) {
    if (!b->cached) continue;
    groups[b->view_incarnation].push_back(
        naming::ValidateItem{b->spec.uid, b->sv_epoch, b->st_epoch});
  }
  if (groups.empty()) co_return ok_status();
  counters_.inc("commit.validate_rpcs", groups.size());
  // The read locks validate acquires live under this action at the group
  // view database; enlist it so 2PC termination releases the locks.
  const actions::ParticipantRef gvdb{naming_node_, naming::kGvdbService};
  action.enlist(gvdb);
  std::size_t left = groups.size();
  for (auto& [incarnation, items] : groups) {
    // Sent last, when every other participant has left, the final call
    // lets the database end the action too.
    const bool may_leave = last && --left == 0 && action.sole_participant(gvdb);
    auto vote = co_await naming::gvdb_validate(rt_.endpoint(), naming_node_, incarnation,
                                               std::move(items), action.uid(), may_leave);
    if (!vote.ok()) {
      if (vote.error() == Err::StaleView) {
        // Retired view: drop every cached entry this action relied on so
        // the retry refetches, then report staleness distinctly.
        counters_.inc("commit.validate_stale");
        if (cache_ != nullptr)
          for (ActiveBinding* b : bindings)
            if (b->cached) cache_->invalidate(b->spec.uid);
      } else {
        counters_.inc("commit.validate_failed");
      }
      const Err reason = vote.error();
      (void)co_await action.abort();
      co_return reason;
    }
    if (vote.value() == actions::Vote::ReadOnly) action.voted_read_only(gvdb);
  }
  counters_.inc("commit.validate_ok");
  co_return ok_status();
}

sim::Task<Status> CommitProcessor::commit(actions::AtomicAction& action,
                                          std::vector<ActiveBinding*> bindings) {
  const NodeId here = rt_.endpoint().node_id();
  sim::Simulator& sim = rt_.endpoint().node().sim();

  // A reader is an action that wrote nothing. Its bound servers may vote
  // ReadOnly in their staging replies, and its cached views are validated
  // last (DESIGN.md sec 25). A writer's cached binds skipped the naming
  // service entirely, so before staging anything against their views it
  // proves them still current (and pins them, via the validate read
  // locks, until the action ends).
  const bool reader = std::none_of(bindings.begin(), bindings.end(),
                                   [](const ActiveBinding* b) { return b->wrote; });
  if (!reader) {
    Status valid = co_await validate_cached_views(action, bindings, /*last=*/false);
    if (!valid.ok()) co_return valid;
  }

  auto stage_span = core::tracing(rt_.trace())
                        ? core::trace_span(rt_.trace(), "commit.stage", here, "commit",
                                           std::to_string(bindings.size()) + " objects")
                        : core::TraceRecorder::Span{};
  const sim::SimTime t_stage = sim.now();
  std::vector<naming::ExcludeItem> excludes;
  ActiveBinding* behind = nullptr;
  Status staged = co_await stage(action, bindings, reader, excludes, behind);
  if (!staged.ok()) {
    counters_.inc("commit.stage_failed");
    stage_span.end("failed");
    Status aborted = co_await action.abort();
    if (staged.error() == Err::Conflict) {
      // The bound replicas missed a commit that a store holds. Once the
      // abort has released them, retire them (the mark_committed rule
      // for a replica behind the group), so the next bind reloads.
      for (NodeId server : behind->bind.servers)
        (void)co_await objsrv_mark_committed(rt_.endpoint(), server, behind->spec.uid,
                                             behind->staged_version);
    }
    co_return aborted;
  }
  // A reader's validate is its last call, not staging work: it is kept
  // out of commit.stage_us.
  sim::SimTime validate_us = 0;
  if (reader) {
    const sim::SimTime t_validate = sim.now();
    Status valid = co_await validate_cached_views(action, bindings, /*last=*/true);
    if (!valid.ok()) {
      stage_span.end("stale");
      co_return valid;
    }
    validate_us = sim.now() - t_validate;
  }

  // Retire every store that failed a copy, across ALL objects, with ONE
  // batched Exclude (the per-item lock promotions happen server-side).
  if (!excludes.empty()) {
    std::size_t total = 0;
    for (const auto& item : excludes) total += item.nodes.size();
    Status ex = co_await naming::ostdb_exclude(rt_.endpoint(), naming_node_, std::move(excludes),
                                               action.uid());
    if (!ex.ok()) {
      // Lock promotion refused (sec 4.2.1): the action must abort.
      counters_.inc("commit.exclude_refused");
      stage_span.end("exclude_refused");
      co_return co_await action.abort();
    }
    counters_.inc("commit.excluded_stores", total);
  }
  core::metric_record(rt_.metrics(), "commit.stage_us",
                      static_cast<double>(sim.now() - t_stage - validate_us));
  stage_span.end("staged");

  Status committed = co_await action.commit();
  if (!committed.ok()) {
    counters_.inc("commit.2pc_failed");
    co_return committed;
  }
  counters_.inc("commit.committed");

  // Post-commit bookkeeping (best effort; failures here are repaired by
  // the recovery protocol, not by the already-decided action).
  auto post_span = core::trace_span(rt_.trace(), "commit.post", here, "commit");
  for (ActiveBinding* b : bindings) {
    if (b->staged_version == 0) continue;  // read-only: nothing changed
    for (NodeId server : b->servers_behind)
      (void)co_await objsrv_mark_committed(rt_.endpoint(), server, b->spec.uid,
                                           b->staged_version);
    if (b->spec.policy == ReplicationPolicy::CoordinatorCohort) {
      for (NodeId cohort : b->bind.servers) {
        if (cohort == b->primary) continue;
        Status s = co_await objsrv_cohort_checkpoint(rt_.endpoint(), cohort, b->spec.uid,
                                                     b->spec.class_name, b->staged_version,
                                                     b->staged_snapshot);
        counters_.inc(s.ok() ? "commit.cohort_checkpoint" : "commit.cohort_checkpoint_failed");
      }
    }
  }
  co_return ok_status();
}

sim::Task<Status> CommitProcessor::stage(actions::AtomicAction& action,
                                         const std::vector<ActiveBinding*>& bindings,
                                         bool may_leave,
                                         std::vector<naming::ExcludeItem>& excludes,
                                         ActiveBinding*& behind) {
  // 1. Fetch every object's new state: one call to each bound server
  // incarnation, in first-seen order (binding order, then each binding's
  // server order), carrying every object bound there in binding order.
  // The answers are then read back in that same order. The call is bound
  // to the incarnation that activated the objects, so a server that
  // crashed since cannot answer for reads it lost; its reply is its vote.
  struct Fetch {
    rpc::Binding server;
    std::vector<Uid> objects;
    std::vector<ObjectServerHost::StateForCommit> answers;  // empty: the call failed
    std::size_t next = 0;                                   // the next answer to judge
  };
  std::vector<Fetch> fetches;
  auto fetch_at = [&fetches](NodeId server, std::uint64_t incarnation) -> Fetch& {
    for (Fetch& f : fetches)
      if (f.server.server == server && f.server.epoch == incarnation) return f;
    return fetches.emplace_back(Fetch{rpc::Binding{server, incarnation}, {}, {}});
  };
  for (const ActiveBinding* b : bindings)
    for (std::size_t j = 0; j < b->bind.servers.size(); ++j)
      fetch_at(b->bind.servers[j], b->incarnations[j]).objects.push_back(b->spec.uid);
  for (Fetch& f : fetches) {
    // An incarnation no reply has named: the object's first invocation
    // there went unanswered, so the server cannot vote.
    if (!f.server.known()) continue;
    auto r = co_await objsrv_state_for_commit(rt_.endpoint(), f.server, action.uid(), f.objects,
                                              may_leave);
    // A failed call, or a reply that does not answer every object, fails
    // each of this server's answers; judge_state delists the server.
    if (!r.ok() || r.value().answers.size() != f.objects.size()) continue;
    f.answers = std::move(r.value().answers);
    const actions::ParticipantRef server{f.server.server, kObjSrvService};
    if (r.value().vote == actions::Vote::ReadOnly)
      action.voted_read_only(server);
    else
      action.voted_yes(server);
  }
  struct Copy {
    ActiveBinding* binding;
    std::vector<NodeId> copied, failed;
    bool behind = false;
  };
  std::vector<Copy> copies;
  for (ActiveBinding* b : bindings) {
    std::vector<ObjectServerHost::StateForCommit*> answers;  // per bound server; null: failed
    for (std::size_t j = 0; j < b->bind.servers.size(); ++j) {
      Fetch& f = fetch_at(b->bind.servers[j], b->incarnations[j]);
      auto* a = f.answers.empty() ? nullptr : &f.answers[f.next++];
      const bool failed = a == nullptr || a->err != static_cast<std::uint32_t>(Err::None);
      answers.push_back(failed ? nullptr : a);
    }
    Status judged = judge_state(action, *b, answers);
    if (!judged.ok()) co_return judged;
    if (b->staged_version != 0) copies.push_back(Copy{b, {}, {}});
  }

  // 2. Copy (prepare) the new states to every store in each object's
  // St(A): one call per store, in node order, carrying every object that
  // store holds. The client node coordinates this 2PC: the store records
  // the caller with the shadow, so a store left holding an undecided slot
  // (crash, or a lost phase-2 RPC) can ask the coordinator log for the
  // outcome instead of presuming abort.
  std::map<NodeId, std::vector<Copy*>> by_store;
  for (Copy& c : copies)
    for (NodeId st : c.binding->st) by_store[st].push_back(&c);
  for (auto& [st, held] : by_store) {
    std::vector<store::StagedWrite> writes;
    writes.reserve(held.size());
    for (const Copy* c : held)
      writes.push_back(store::StagedWrite{c->binding->spec.uid, c->binding->staged_version,
                                          c->binding->staged_snapshot});
    auto errs = co_await store::ObjectStore::remote_prepare(rt_.endpoint(), st, action.uid(),
                                                            writes);
    // A failed call, or a reply that does not answer every write, fails
    // each of this store's writes.
    const bool answered = errs.ok() && errs.value().size() == held.size();
    for (std::size_t i = 0; i < held.size(); ++i) {
      const Err e = answered ? static_cast<Err>(errs.value()[i]) : Err::StorageFault;
      if (e == Err::None) {
        held[i]->copied.push_back(st);
        counters_.inc("commit.state_copied");
      } else if (e == Err::Conflict) {
        // The store already holds this version or a later one: it is not
        // the store that failed but the state being staged that is stale.
        // Excluding it would retire the only holders of a committed update.
        held[i]->behind = true;
      } else {
        held[i]->failed.push_back(st);
        counters_.inc("commit.state_copy_failed");
      }
    }
  }

  // 3. Judge each object's copies. First enlist every store that accepted
  // any copy, so phase 2 (or the abort) reaches every shadow. Its accepted
  // shadow write is its Yes vote: a shadow is stable and names its
  // coordinator (DESIGN.md sec 22). The group view database is already a
  // participant from the bind's naming read.
  std::set<NodeId> enlisted;
  for (const Copy& c : copies)
    for (NodeId st : c.copied) {
      const actions::ParticipantRef store{st, store::kStoreService};
      action.enlist(store);
      action.voted_yes(store);
      enlisted.insert(st);
    }
  actions::CoordinatorLog* log = rt_.coordinator_log();
  for (Copy& c : copies) {
    if (c.behind) {
      counters_.inc("commit.staged_state_behind");
      behind = c.binding;
      co_return Err::Conflict;
    }
    // No store holds the new state: the object cannot commit.
    if (c.copied.empty()) {
      counters_.inc("commit.no_store_available");
      co_return Err::NoReplicas;
    }
    // Queue the failed stores for exclusion from St(A); the caller
    // batches the Excludes of every staged object into one RPC.
    if (!c.failed.empty()) {
      counters_.inc("commit.state_copy_failed_stores", c.failed.size());
      // A failed store that holds no enlisted copy gets no phase 2, but
      // may hold a shadow whose reply was lost: it must never install it.
      if (log != nullptr)
        for (NodeId st : c.failed)
          if (enlisted.count(st) == 0) log->record_excluded(action.uid(), st);
      excludes.push_back(naming::ExcludeItem{c.binding->spec.uid, std::move(c.failed)});
    }
  }
  co_return ok_status();
}

Status CommitProcessor::judge_state(
    actions::AtomicAction& action, ActiveBinding& binding,
    const std::vector<ObjectServerHost::StateForCommit*>& answers) {
  // Every bound server was asked: replicas that crashed hold nothing
  // durable, and leaving them enlisted would make the 2PC abort a failure
  // the replication policy exists to mask (sec 3.2: up to k-1 server
  // failures are masked).
  ObjectServerHost::StateForCommit* state = nullptr;
  for (std::size_t j = 0; j < answers.size(); ++j) {
    ObjectServerHost::StateForCommit* r = answers[j];
    if (r != nullptr) {
      // Take the FRESHEST replica, not the first to answer: a member that
      // missed a best-effort mark_committed (or a whole phase-2) reports a
      // stale version, and staging from it computes a new_version the
      // stores already hold — the install silently no-ops and the commit
      // is lost (found by the gv_campaign netchaos mix).
      const bool fresher = state == nullptr || r->version > state->version ||
                           (r->version == state->version && r->modified && !state->modified);
      if (fresher) state = r;
    } else {
      counters_.inc("commit.server_unreachable");
      action.delist({binding.bind.servers[j], kObjSrvService});
    }
  }
  if (state == nullptr) return Err::NoReplicas;  // every bound server gone: abort

  // Read-only optimisation (sec 4.2.1): unmodified objects need no
  // copy-back and no store participation at all. But the client records
  // whether IT issued a successful write (binding.wrote): if it did and
  // no probed replica holds the modified state, every replica that
  // executed the write is unreachable or dead — committing here would
  // silently drop the write (gv_campaign netchaos, seed 1011). Abort and
  // let the client retry against live replicas instead.
  if (!state->modified) {
    if (binding.wrote) {
      counters_.inc("commit.modified_replica_lost");
      return Err::NoReplicas;
    }
    counters_.inc("commit.read_only_skip");
    binding.staged_version = 0;
    return ok_status();
  }
  binding.staged_version = state->version + 1;
  // Phase 2 moves a replica that answered modified at the staged state's
  // version onto staged_version (ObjectServerHost::commit). Every other
  // bound server is behind, and mark_committed retires it after the
  // commit.
  binding.servers_behind.clear();
  for (std::size_t j = 0; j < answers.size(); ++j) {
    const bool current =
        answers[j] != nullptr && answers[j]->modified && answers[j]->version == state->version;
    if (!current) binding.servers_behind.push_back(binding.bind.servers[j]);
  }
  binding.staged_snapshot = std::move(state->snapshot);
  return ok_status();
}

}  // namespace gv::replication
