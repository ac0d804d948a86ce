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

#include "rpc/rpc.h"
#include "util/uid.h"
#include "util/uid_table.h"

namespace gv::actions {

enum class TxnOutcome : std::uint8_t { Unknown = 0, Committed = 1, Aborted = 2 };
constexpr TxnOutcome wire_last(TxnOutcome) { return TxnOutcome::Aborted; }

// "txnc.outcome": the coordinator's decision on an action.
inline constexpr rpc::Rpc<TxnOutcome(Uid)> kTxncOutcome{"txnc", "outcome"};

class CoordinatorLog {
 public:
  explicit CoordinatorLog(rpc::RpcEndpoint& endpoint);

  void record(const Uid& txn, bool committed) {
    outcomes_.set(txn, static_cast<std::uint8_t>(committed ? TxnOutcome::Committed
                                                           : TxnOutcome::Aborted));
  }
  TxnOutcome outcome(const Uid& txn) const { return static_cast<TxnOutcome>(outcomes_.get(txn)); }

  // Ask the coordinator on `coordinator_node` for the outcome of `txn`.
  static sim::Task<Result<TxnOutcome>> remote_outcome(rpc::RpcEndpoint& from,
                                                      sim::NodeId coordinator_node, Uid txn) {
    return from.call(coordinator_node, kTxncOutcome, txn);
  }

 private:
  // Two bits per action the node ever decided: S2 makes every naming
  // operation its own top-level action, so this grows with the run.
  DenseUidTable<2> outcomes_;  // volatile by design
};

}  // namespace gv::actions
