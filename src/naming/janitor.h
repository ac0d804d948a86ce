// Use-list cleanup protocol.
//
// In the enhanced schemes (sec 4.1.3) "a crash of a client does not
// automatically undo changes made to the database. So, failure detection
// and cleanup protocols will be required. For example, the Object Server
// database could periodically check if its clients are functioning, and
// if necessary update use lists if crashes are detected."
//
// The janitor runs on the naming node: every `period` it collects the
// client nodes present in any use list, pings each, and for the dead ones
// runs a top-level atomic action purging their use-list entries. Without
// it, counters leaked by crashed clients would keep an object permanently
// non-quiescent (blocking Insert) and steer later clients toward server
// choices based on phantom users.
#pragma once

#include "actions/atomic_action.h"
#include "naming/group_view_db.h"
#include "rpc/failure_detector.h"

namespace gv::naming {

class UseListJanitor {
 public:
  // `log` is the naming node's coordinator log: it records the purge
  // actions' decisions, so the orphan sweep can learn that one committed.
  UseListJanitor(GroupViewDb& db, rpc::RpcEndpoint& endpoint, actions::CoordinatorLog* log,
                 sim::SimTime period = 100 * sim::kMillisecond);

  // Begin periodic sweeps (a duty of the node, re-armed after recovery).
  // The duty keeps the simulator's event queue non-empty, so drive the
  // simulation with run_until(), or call stop() before a final run().
  void start();
  void stop() noexcept {
    if (duty_ != nullptr) duty_->running = false;
  }

  // One sweep, usable directly from tests. Returns purged entry count.
  sim::Task<std::uint32_t> sweep();

  Counters& counters() noexcept { return counters_; }
  // The purge actions' runtime (its action.* counters join the System's).
  actions::ActionRuntime& runtime() noexcept { return runtime_; }

 private:
  GroupViewDb& db_;
  rpc::RpcEndpoint& endpoint_;
  rpc::FailureDetector detector_;
  actions::ActionRuntime runtime_;
  sim::SimTime period_;
  sim::Node::Duty* duty_ = nullptr;
  Counters counters_;
};

}  // namespace gv::naming
