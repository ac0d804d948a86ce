#include "actions/lock_manager.h"

#include <algorithm>

#include "util/log.h"

namespace gv::actions {

const char* to_string(LockMode m) noexcept {
  switch (m) {
    case LockMode::Read: return "READ";
    case LockMode::Write: return "WRITE";
    case LockMode::ExcludeWrite: return "EXCLUDE_WRITE";
  }
  return "?";
}

bool LockManager::stronger_or_equal(LockMode a, LockMode b) noexcept {
  if (a == b) return true;
  if (a == LockMode::Write) return true;           // Write dominates all
  if (a == LockMode::ExcludeWrite) return b == LockMode::Read;
  return false;
}

bool LockManager::grantable(const Entry& e, const Uid& owner, LockMode mode,
                            const std::vector<Uid>& ancestors) const {
  for (const Holder& h : e.holders) {
    if (h.owner == owner) continue;  // self never conflicts (promotion path)
    // Arjuna lock inheritance: an ancestor's lock never blocks its
    // descendants (the nested action runs "inside" the holder).
    if (std::find(ancestors.begin(), ancestors.end(), h.owner) != ancestors.end()) continue;
    if (!compatible(h.mode, mode)) return false;
  }
  return true;
}

sim::Task<Status> LockManager::acquire(std::string resource, LockMode mode, Uid owner,
                                       sim::SimTime timeout, std::vector<Uid> ancestors) {
  Entry& e = table_[resource];

  // Re-entrancy / implicit promotion.
  for (Holder& h : e.holders) {
    if (h.owner == owner) {
      if (stronger_or_equal(h.mode, mode)) {
        counters_.inc("lock.reentrant");
        co_return ok_status();
      }
      co_return co_await promote(std::move(resource), mode, owner, timeout);
    }
  }

  // FIFO fairness: even a compatible request queues behind earlier
  // waiters, preventing reader streams from starving writers.
  if (e.waiters.empty() && grantable(e, owner, mode, ancestors)) {
    e.holders.push_back({owner, mode});
    counters_.inc("lock.granted_immediate");
    GV_LOG(LogLevel::Trace, sim_.now(), "lock", "grant %s %s to %s", to_string(mode),
           resource.c_str(), owner.to_string().c_str());
    co_return ok_status();
  }
  counters_.inc("lock.conflict_wait");
  co_return co_await enqueue(std::move(resource), mode, owner, /*is_promotion=*/false, timeout,
                             std::move(ancestors));
}

sim::Task<Status> LockManager::promote(std::string resource, LockMode to, Uid owner,
                                       sim::SimTime timeout) {
  Entry& e = table_[resource];
  auto it = std::find_if(e.holders.begin(), e.holders.end(),
                         [&](const Holder& h) { return h.owner == owner; });
  if (it == e.holders.end()) {
    // Not holding anything: promote degenerates to acquire.
    co_return co_await acquire(std::move(resource), to, owner, timeout);
  }
  if (stronger_or_equal(it->mode, to)) co_return ok_status();

  if (grantable(e, owner, to, {})) {
    it->mode = to;
    counters_.inc(to == LockMode::ExcludeWrite ? "lock.promoted_ew" : "lock.promoted");
    GV_LOG(LogLevel::Trace, sim_.now(), "lock", "promote %s %s to %s", to_string(to),
           resource.c_str(), owner.to_string().c_str());
    co_return ok_status();
  }
  // Promotions wait at the FRONT conceptually; we still use the shared
  // queue but tag the waiter so pump() can upgrade in place.
  counters_.inc("lock.promotion_wait");
  co_return co_await enqueue(std::move(resource), to, owner, /*is_promotion=*/true, timeout, {});
}

sim::Task<Status> LockManager::enqueue(std::string resource, LockMode mode, Uid owner,
                                       bool is_promotion, sim::SimTime timeout,
                                       std::vector<Uid> ancestors) {
  Entry& e = table_[resource];
  sim::SimPromise<Status> promise{sim_};
  auto future = promise.future();
  const std::uint64_t timer = sim_.schedule(timeout, [this, resource, owner, mode] {
    auto tit = table_.find(resource);
    if (tit == table_.end()) return;
    auto& waiters = tit->second.waiters;
    for (auto wit = waiters.begin(); wit != waiters.end(); ++wit) {
      if (wit->owner == owner && wit->mode == mode) {
        auto p = wit->promise;
        waiters.erase(wit);
        counters_.inc("lock.refused_timeout");
        p.set_value(Err::LockRefused);
        return;
      }
    }
  });
  e.waiters.push_back(Waiter{owner, mode, is_promotion, std::move(ancestors), promise, timer});
  co_return co_await future;
}

void LockManager::pump(const std::string& resource) {
  auto tit = table_.find(resource);
  if (tit == table_.end()) return;
  Entry& e = tit->second;

  bool progressed = true;
  while (progressed && !e.waiters.empty()) {
    progressed = false;
    // Promotions first (they already hold the resource and block others).
    for (auto wit = e.waiters.begin(); wit != e.waiters.end(); ++wit) {
      if (!wit->is_promotion) continue;
      if (!grantable(e, wit->owner, wit->mode, wit->ancestors)) continue;
      auto holder = std::find_if(e.holders.begin(), e.holders.end(),
                                 [&](const Holder& h) { return h.owner == wit->owner; });
      if (holder != e.holders.end())
        holder->mode = wit->mode;
      else
        e.holders.push_back({wit->owner, wit->mode});
      auto p = wit->promise;
      GV_LOG(LogLevel::Trace, sim_.now(), "lock", "promote %s %s to %s", to_string(wit->mode),
             resource.c_str(), wit->owner.to_string().c_str());
      sim_.cancel(wit->timer_id);
      e.waiters.erase(wit);
      p.set_value(ok_status());
      progressed = true;
      break;
    }
    if (progressed) continue;

    // Then the FIFO head (and any immediately following compatible ones).
    Waiter& head = e.waiters.front();
    if (grantable(e, head.owner, head.mode, head.ancestors)) {
      e.holders.push_back({head.owner, head.mode});
      auto p = head.promise;
      GV_LOG(LogLevel::Trace, sim_.now(), "lock", "grant %s %s to %s", to_string(head.mode),
             resource.c_str(), head.owner.to_string().c_str());
      sim_.cancel(head.timer_id);
      e.waiters.pop_front();
      p.set_value(ok_status());
      progressed = true;
    }
  }
  if (e.holders.empty() && e.waiters.empty()) table_.erase(tit);
}

void LockManager::release(const std::string& resource, const Uid& owner) {
  auto tit = table_.find(resource);
  if (tit == table_.end()) return;
  auto& holders = tit->second.holders;
  const std::size_t before = holders.size();
  holders.erase(std::remove_if(holders.begin(), holders.end(),
                               [&](const Holder& h) { return h.owner == owner; }),
                holders.end());
  if (holders.size() != before)
    GV_LOG(LogLevel::Trace, sim_.now(), "lock", "release %s by %s", resource.c_str(),
           owner.to_string().c_str());
  pump(resource);
}

void LockManager::reset() {
  // Cancel pending timeout timers so their lambdas become no-ops.
  for (auto& [res, e] : table_)
    for (auto& w : e.waiters) sim_.cancel(w.timer_id);
  table_.clear();
}

void LockManager::release_all(const Uid& owner) {
  // Collect first: pump() may erase empty entries.
  std::vector<std::string> touched;
  for (auto& [res, e] : table_) {
    for (const Holder& h : e.holders) {
      if (h.owner == owner) {
        touched.push_back(res);
        break;
      }
    }
  }
  for (const auto& res : touched) release(res, owner);
}

void LockManager::transfer(const Uid& child, const Uid& parent) {
  for (auto& [res, e] : table_) {
    Holder* parent_holder = nullptr;
    Holder* child_holder = nullptr;
    for (Holder& h : e.holders) {
      if (h.owner == parent) parent_holder = &h;
      if (h.owner == child) child_holder = &h;
    }
    if (!child_holder) continue;
    GV_LOG(LogLevel::Trace, sim_.now(), "lock", "transfer %s %s -> %s", res.c_str(),
           child.to_string().c_str(), parent.to_string().c_str());
    if (parent_holder) {
      if (!stronger_or_equal(parent_holder->mode, child_holder->mode))
        parent_holder->mode = child_holder->mode;
      auto& holders = e.holders;
      holders.erase(std::remove_if(holders.begin(), holders.end(),
                                   [&](const Holder& h) { return h.owner == child; }),
                    holders.end());
    } else {
      child_holder->owner = parent;
    }
  }
}

bool LockManager::holds(const std::string& resource, const Uid& owner, LockMode at_least) const {
  auto tit = table_.find(resource);
  if (tit == table_.end()) return false;
  for (const Holder& h : tit->second.holders)
    if (h.owner == owner && stronger_or_equal(h.mode, at_least)) return true;
  return false;
}

std::size_t LockManager::holder_count(const std::string& resource) const {
  auto tit = table_.find(resource);
  return tit == table_.end() ? 0 : tit->second.holders.size();
}

bool LockManager::held_for_update(const std::string& resource) const {
  auto tit = table_.find(resource);
  if (tit == table_.end()) return false;
  for (const Holder& h : tit->second.holders)
    if (h.mode != LockMode::Read) return true;
  return false;
}

}  // namespace gv::actions
