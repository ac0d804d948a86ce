#include "util/uid.h"

#include <cstdio>

#include "util/result.h"

namespace gv {

std::string Uid::to_string() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx", static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
  return buf;
}

const char* to_string(Err e) noexcept {
  switch (e) {
    case Err::None: return "None";
    case Err::Timeout: return "Timeout";
    case Err::NodeDown: return "NodeDown";
    case Err::BindingBroken: return "BindingBroken";
    case Err::NotFound: return "NotFound";
    case Err::LockRefused: return "LockRefused";
    case Err::Aborted: return "Aborted";
    case Err::NoReplicas: return "NoReplicas";
    case Err::Inconsistent: return "Inconsistent";
    case Err::AlreadyExists: return "AlreadyExists";
    case Err::NotQuiescent: return "NotQuiescent";
    case Err::BadRequest: return "BadRequest";
    case Err::Conflict: return "Conflict";
    case Err::StaleView: return "StaleView";
    case Err::StorageFault: return "StorageFault";
    case Err::NotSoleMember: return "NotSoleMember";
    case Err::JoinRefused: return "JoinRefused";
    case Err::NotActivated: return "NotActivated";
  }
  return "Unknown";
}

}  // namespace gv
