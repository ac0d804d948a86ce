#include "actions/coordinator_log.h"

namespace gv::actions {

CoordinatorLog::CoordinatorLog(rpc::RpcEndpoint& endpoint) {
  endpoint.serve(kTxncOutcome, [this](sim::NodeId, Uid txn) -> Result<TxnOutcome> {
    return outcome(txn);
  });
  endpoint.node().on_crash([this] { outcomes_.clear(); });
}

}  // namespace gv::actions
