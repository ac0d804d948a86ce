// Failure detection.
//
// The paper leaves cleanup/failure-detection protocols "beyond the scope"
// (sec 4.1.3) but requires them: the Object Server database must notice
// crashed clients to repair use lists, and coordinator-cohort replication
// must notice a dead coordinator to elect a new one. In a fail-silent
// system a crash is indistinguishable from slowness, so detection is a
// timeout heuristic: ping with an RPC deadline.
#pragma once

#include "rpc/rpc.h"
#include "sim/task.h"

namespace gv::rpc {

class FailureDetector {
 public:
  FailureDetector(RpcEndpoint& endpoint, sim::SimTime ping_timeout = 20 * sim::kMillisecond)
      : endpoint_(endpoint), ping_timeout_(ping_timeout) {}

  // One-shot probe: true iff `target` answered a ping within the deadline.
  // (A false return can be a false positive under extreme latency; the
  // protocols above are designed to tolerate that.)
  sim::Task<bool> alive(NodeId target);

 private:
  RpcEndpoint& endpoint_;
  sim::SimTime ping_timeout_;
};

}  // namespace gv::rpc
