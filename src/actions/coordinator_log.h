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
// for every action coordinated from that node. The log is stable: phase 2
// reaches one participant at a time, so a coordinator that crashes in the
// middle of it has told only some of them, and the rest must still learn
// the decision after it recovers (presumed-abort 2PC force-writes its
// commit record for the same reason). An action the node never decided
// reads Unknown, which a participant presumes aborted once it stays so.
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
  // Stable. Two bits per action the node ever decided: S2 makes every
  // naming operation its own top-level action, so this grows with the run.
  DenseUidTable<2> outcomes_;
  std::set<std::pair<Uid, sim::NodeId>> excluded_;
};

}  // namespace gv::actions
