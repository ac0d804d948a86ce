// Coordinator outcome log for in-doubt participants.
//
// Two-phase commit has a classic window: a participant that crashes
// after voting yes but before receiving the phase-2 decision cannot
// resolve the transaction alone — presuming abort there LOSES a commit
// the coordinator already decided (Gray [10]). On recovery such a
// participant holds its prepared state as IN-DOUBT and asks the
// coordinator.
//
// One CoordinatorLog lives per node and answers the "txnc.outcome" RPC
// for every action coordinated from that node. The log is volatile: if
// the coordinator node itself crashed, its in-flight decisions die with
// it and Unknown (-> presume abort) is the right answer — a coordinator
// that crashed AFTER deciding but before any participant learned the
// decision is the unavoidable blocking case, which we resolve as abort
// and count (the affected client never saw its commit() return).
#pragma once

#include <set>
#include <utility>

#include "rpc/rpc.h"
#include "util/uid.h"
#include "util/uid_table.h"

namespace gv::actions {

enum class TxnOutcome : std::uint8_t { Unknown = 0, Committed = 1, Aborted = 2 };
constexpr TxnOutcome wire_last(TxnOutcome) { return TxnOutcome::Aborted; }

// "txnc.outcome": the coordinator's decision on an action.
inline constexpr rpc::Rpc<TxnOutcome(Uid)> kTxncOutcome{"txnc", "outcome"};
// "txnc.shadow_outcome": the decision as it applies to the calling
// store's shadow of the action (see CoordinatorLog::record_excluded).
inline constexpr rpc::Rpc<TxnOutcome(Uid)> kTxncShadowOutcome{"txnc", "shadow_outcome"};

class CoordinatorLog {
 public:
  explicit CoordinatorLog(rpc::RpcEndpoint& endpoint);

  void record(const Uid& txn, bool committed) {
    outcomes_.set(txn, static_cast<std::uint8_t>(committed ? TxnOutcome::Committed
                                                           : TxnOutcome::Aborted));
  }
  TxnOutcome outcome(const Uid& txn) const { return static_cast<TxnOutcome>(outcomes_.get(txn)); }

  // `txn` Excluded `store` from St and did not enlist it, so the store
  // takes no part in its 2PC. The store may still hold a shadow of `txn`
  // (its prepare landed but the reply was lost); installing it would put
  // the new state outside St. So the store hears Aborted whatever the
  // decision.
  void record_excluded(const Uid& txn, sim::NodeId store) { excluded_.emplace(txn, store); }
  TxnOutcome shadow_outcome(const Uid& txn, sim::NodeId store) const {
    return excluded_.count({txn, store}) > 0 ? TxnOutcome::Aborted : outcome(txn);
  }

  // Ask the coordinator on `coordinator_node` for the outcome of `txn`.
  static sim::Task<Result<TxnOutcome>> remote_outcome(rpc::RpcEndpoint& from,
                                                      sim::NodeId coordinator_node, Uid txn) {
    return from.call(coordinator_node, kTxncOutcome, txn);
  }
  // Ask the same for the caller's store shadow of `txn`.
  static sim::Task<Result<TxnOutcome>> remote_shadow_outcome(rpc::RpcEndpoint& from,
                                                             sim::NodeId coordinator_node,
                                                             Uid txn) {
    return from.call(coordinator_node, kTxncShadowOutcome, txn);
  }

 private:
  // Two bits per action the node ever decided: S2 makes every naming
  // operation its own top-level action, so this grows with the run.
  DenseUidTable<2> outcomes_;  // volatile by design
  std::set<std::pair<Uid, sim::NodeId>> excluded_;  // volatile, like outcomes_
};

}  // namespace gv::actions
