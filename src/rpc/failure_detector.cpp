#include "rpc/failure_detector.h"

namespace gv::rpc {

sim::Task<bool> FailureDetector::alive(NodeId target) {
  Result<Buffer> r =
      co_await endpoint_.call(target, "sys", "ping", Buffer{}, ping_timeout_);
  co_return r.ok();
}

}  // namespace gv::rpc
