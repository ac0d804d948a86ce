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

std::string to_string(const LockKey& key) {
  static constexpr const char* kPrefix[] = {"obj:", "sv:", "st:"};
  return kPrefix[key.part] + key.object.to_string();
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

void LockManager::note(const Uid& owner, const LockKey& key) {
  auto& keys = owned_[owner];
  if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
}

void LockManager::grant(Entry& e, const LockKey& key, const Uid& owner, LockMode mode,
                        bool promotion) {
  auto holder = promotion ? std::find_if(e.holders.begin(), e.holders.end(),
                                         [&](const Holder& h) { return h.owner == owner; })
                          : e.holders.end();
  if (holder != e.holders.end())
    holder->mode = mode;
  else
    e.holders.push_back({owner, mode});
  note(owner, key);
  GV_LOG(LogLevel::Trace, sim_.now(), "lock", "%s %s %s to %s", promotion ? "promote" : "grant",
         to_string(mode), to_string(key).c_str(), owner.to_string().c_str());
}

LockManager::Waiters::iterator LockManager::finish(Entry& e, Waiters::iterator w, Status s) {
  auto p = w->promise;
  sim_.cancel(w->timer_id);
  auto next = e.waiters.erase(w);
  p.set_value(s);
  return next;
}

sim::Task<Status> LockManager::acquire(LockKey key, LockMode mode, Uid owner,
                                       sim::SimTime timeout, std::vector<Uid> ancestors) {
  Entry& e = table_[key];
  auto held = std::find_if(e.holders.begin(), e.holders.end(),
                           [&](const Holder& h) { return h.owner == owner; });
  const bool promotion = held != e.holders.end();
  if (promotion && stronger_or_equal(held->mode, mode)) {
    counters_.inc("lock.reentrant");
    co_return ok_status();
  }
  // A promotion conflicts with every other holder, its family included.
  // A new request queues behind earlier waiters even when compatible
  // (FIFO fairness: reader streams cannot starve writers); a promotion
  // waits in the same queue, tagged so pump() upgrades it first.
  if (promotion) ancestors.clear();
  if ((promotion || e.waiters.empty()) && grantable(e, owner, mode, ancestors)) {
    counters_.inc(!promotion                         ? "lock.granted_immediate"
                  : mode == LockMode::ExcludeWrite ? "lock.promoted_ew"
                                                     : "lock.promoted");
    grant(e, key, owner, mode, promotion);
    co_return ok_status();
  }
  counters_.inc(promotion ? "lock.promotion_wait" : "lock.conflict_wait");
  sim::SimPromise<Status> promise{sim_};
  auto future = promise.future();
  const std::uint64_t timer = sim_.schedule(timeout, [this, key, owner, mode] {
    Entry& e = table_.at(key);  // the waiter is still queued: finish() stops this timer
    auto mine = [&](const auto& x) { return x.owner == owner; };
    auto wit = std::find_if(e.waiters.begin(), e.waiters.end(),
                            [&](const Waiter& w) { return mine(w) && w.mode == mode; });
    counters_.inc("lock.refused_timeout");
    finish(e, wit, Err::LockRefused);
    // Unindex the resource unless the owner still holds it (a promotion
    // that timed out) or has another request queued on it.
    if (std::none_of(e.holders.begin(), e.holders.end(), mine) &&
        std::none_of(e.waiters.begin(), e.waiters.end(), mine)) {
      auto oit = owned_.find(owner);
      std::erase(oit->second, key);
      if (oit->second.empty()) owned_.erase(oit);
    }
    pump(key);  // the requests queued behind this one may be grantable now
  });
  e.waiters.push_back(Waiter{owner, mode, promotion, std::move(ancestors), promise, timer});
  note(owner, key);
  co_return co_await future;
}

void LockManager::cancel_waits(Entry& e, const Uid& owner) {
  for (auto wit = e.waiters.begin(); wit != e.waiters.end();) {
    if (wit->owner != owner) {
      ++wit;
      continue;
    }
    counters_.inc("lock.cancelled");
    wit = finish(e, wit, Err::Aborted);
  }
}

void LockManager::pump(const LockKey& key) {
  auto tit = table_.find(key);
  if (tit == table_.end()) return;
  Entry& e = tit->second;
  auto ready = [&](const Waiter& w) { return grantable(e, w.owner, w.mode, w.ancestors); };
  while (!e.waiters.empty()) {
    // Promotions first (they already hold the resource and block
    // others), then the FIFO head.
    auto next = std::find_if(e.waiters.begin(), e.waiters.end(),
                             [&](const Waiter& w) { return w.is_promotion && ready(w); });
    if (next == e.waiters.end()) next = e.waiters.begin();
    if (!ready(*next)) break;
    grant(e, key, next->owner, next->mode, next->is_promotion);
    finish(e, next, ok_status());
  }
  if (e.holders.empty() && e.waiters.empty()) table_.erase(tit);
}

void LockManager::reset() {
  // Cancel pending timeout timers so their lambdas become no-ops.
  for (auto& [key, e] : table_)
    for (auto& w : e.waiters) sim_.cancel(w.timer_id);
  table_.clear();
  owned_.clear();
}

void LockManager::release_all(const Uid& owner) {
  auto index = owned_.extract(owner);
  if (index.empty()) return;
  for (const LockKey& key : index.mapped()) {
    Entry& e = table_.at(key);  // indexed: the entry exists
    cancel_waits(e, owner);
    if (std::erase_if(e.holders, [&](const Holder& h) { return h.owner == owner; }) > 0)
      GV_LOG(LogLevel::Trace, sim_.now(), "lock", "release %s by %s", to_string(key).c_str(),
             owner.to_string().c_str());
    pump(key);
  }
}

void LockManager::transfer(const Uid& child, const Uid& parent) {
  auto index = owned_.extract(child);
  if (index.empty()) return;
  auto of = [](const Uid& u) { return [u](const Holder& h) { return h.owner == u; }; };
  for (const LockKey& key : index.mapped()) {
    Entry& e = table_.at(key);  // indexed: the entry exists
    cancel_waits(e, child);
    auto child_holder = std::find_if(e.holders.begin(), e.holders.end(), of(child));
    if (child_holder != e.holders.end()) {
      GV_LOG(LogLevel::Trace, sim_.now(), "lock", "transfer %s %s -> %s", to_string(key).c_str(),
             child.to_string().c_str(), parent.to_string().c_str());
      auto parent_holder = std::find_if(e.holders.begin(), e.holders.end(), of(parent));
      if (parent_holder == e.holders.end()) {
        child_holder->owner = parent;
      } else {
        if (!stronger_or_equal(parent_holder->mode, child_holder->mode))
          parent_holder->mode = child_holder->mode;
        std::erase_if(e.holders, of(child));
      }
      note(parent, key);
    }
    pump(key);  // a cancelled wait, or a holder now of the waiters' family, may unblock some
  }
}

bool LockManager::holds(const LockKey& key, const Uid& owner, LockMode at_least) const {
  auto tit = table_.find(key);
  return tit != table_.end() &&
         std::any_of(tit->second.holders.begin(), tit->second.holders.end(), [&](const Holder& h) {
           return h.owner == owner && stronger_or_equal(h.mode, at_least);
         });
}

std::size_t LockManager::holder_count(const LockKey& key) const {
  auto tit = table_.find(key);
  return tit == table_.end() ? 0 : tit->second.holders.size();
}

bool LockManager::held_for_update(const LockKey& key) const {
  auto tit = table_.find(key);
  return tit != table_.end() &&
         std::any_of(tit->second.holders.begin(), tit->second.holders.end(),
                     [](const Holder& h) { return h.mode != LockMode::Read; });
}

}  // namespace gv::actions
