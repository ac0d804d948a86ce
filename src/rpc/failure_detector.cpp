#include "rpc/failure_detector.h"

namespace gv::rpc {

sim::Task<bool> FailureDetector::alive(NodeId target) {
  Result<std::uint64_t> epoch = co_await endpoint_.call(target, ping_timeout_, kSysPing);
  co_return epoch.ok();
}

}  // namespace gv::rpc
