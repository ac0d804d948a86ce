#include "actions/coordinator_log.h"

namespace gv::actions {

CoordinatorLog::CoordinatorLog(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kTxncOutcome, [this](sim::NodeId, Uid txn) -> Result<TxnOutcome> {
    return outcome(txn);
  });
  endpoint.serve(kTxncShadowOutcome, [this](sim::NodeId from, Uid txn) -> Result<TxnOutcome> {
    return shadow_outcome(txn, from);
  });
}

}  // namespace gv::actions
