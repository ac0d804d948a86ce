// Orphaned-action resolution, shared by every participant that holds
// locks on behalf of remote clients (the group view database and the
// object servers).
//
// A participant records, per live action, the client node that owns it
// and when it last heard from it. An action whose client crashed, or
// whose phase-2 RPC was lost in transit, would otherwise keep its locks
// (and undo data) forever. A sweep resolves every tracked action:
//
//   1. ask the owner's coordinator log for the outcome; a decided outcome
//      is safe to apply at any age;
//   2. otherwise presume abort once the action outlived the owner's age
//      limit, or once a ping proves the owner gone (a failed outcome
//      call is NOT proof: the owner may keep no coordinator log).
//
// A dead coordinator node answers nothing and the sweep falls through to
// the presumed abort. That is Gray's blocking case: a decision, if one
// was made, waits in the dead node's stable log. Sweeps are event-driven:
// owners trigger one on each refused lock wait. A triggered sweep is a
// job of the endpoint's node (sim::Node::Job), so a crash ends it.
//
// Each owner supplies only its age rule, the step that applies a verdict
// and its counters; the sweep itself is shared.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "rpc/failure_detector.h"
#include "rpc/rpc.h"
#include "sim/task.h"
#include "util/uid.h"

namespace gv::actions {

class OrphanResolver {
 public:
  enum class Verdict { Committed, Aborted, AgedOut, OwnerDead };

  // True once an action idle for `idle` may be presumed aborted.
  using Aged = std::function<bool(sim::SimTime idle)>;
  // End `action` locally per `verdict`, counting it, and stop tracking it.
  using Apply = std::function<sim::Task<>(Uid action, Verdict verdict)>;
  // Called when a sweep completes, with the number of actions it aborted.
  using Swept = std::function<void(std::uint32_t aborted)>;

  OrphanResolver(rpc::RpcEndpoint& endpoint, Aged aged, Apply apply, Swept swept = {});

  // Record that `action`, owned by a client on `owner`, was just active.
  void note(const Uid& action, sim::NodeId owner);
  void forget(const Uid& action) { owners_.erase(action); }
  // After a crash: forget every action.
  void clear() { owners_.clear(); }
  bool tracks(const Uid& action) const { return owners_.count(action) > 0; }
  // Nested commit: the parent inherits the child's owner. False if the
  // child was not tracked.
  bool inherit(const Uid& child, const Uid& parent);

  // Start a sweep unless a triggered one is already running
  // (fire-and-forget). Returns whether it started one.
  bool trigger() { return sweep_job_.start(); }

  // Resolve every tracked action; returns the number it aborted.
  sim::Task<std::uint32_t> sweep();

 private:
  struct Owner {
    sim::NodeId node = 0;
    sim::SimTime last_seen = 0;
  };

  rpc::RpcEndpoint& endpoint_;
  rpc::FailureDetector detector_;
  Aged aged_;
  Apply apply_;
  Swept swept_;
  std::unordered_map<Uid, Owner> owners_;
  sim::Node::Job& sweep_job_;
};

}  // namespace gv::actions
