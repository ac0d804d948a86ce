#include "naming/view_cache.h"

namespace gv::naming {

GroupViewCache::GroupViewCache(rpc::RpcEndpoint& ep, NodeId naming_node)
    : ep_(ep), naming_node_(naming_node) {
  // Volatile session state: cleared on crash like any session table. The
  // inflight promises die with the process — their awaiting coroutines
  // never resume, matching the RPC layer's process-kill semantics.
  ep_.node().on_crash([this] { clear(); });
}

const GroupViewCache::Entry* GroupViewCache::lookup(const Uid& object) const {
  auto it = entries_.find(object);
  return it == entries_.end() ? nullptr : &it->second;
}

void GroupViewCache::invalidate(const Uid& object) {
  if (entries_.erase(object) > 0) counters_.inc("cache.invalidated");
}

void GroupViewCache::clear() {
  entries_.clear();
  inflight_.clear();
}

sim::Task<Result<GroupViewCache::Entry>> GroupViewCache::get_or_fetch(Uid object) {
  {
    auto it = entries_.find(object);
    if (it != entries_.end()) {
      counters_.inc("cache.hit");
      co_return Entry{it->second};
    }
  }
  counters_.inc("cache.miss");
  std::vector<Uid> want;
  want.push_back(object);
  Status s = co_await fetch(std::move(want));
  if (!s.ok()) co_return s.error();
  auto it = entries_.find(object);
  if (it == entries_.end()) co_return Err::NotFound;
  co_return Entry{it->second};
}

sim::Task<Status> GroupViewCache::prefetch(std::vector<Uid> objects) {
  return fetch(std::move(objects));
}

sim::Task<Status> GroupViewCache::fetch(std::vector<Uid> objects) {
  // Partition the request: UIDs nobody is fetching become ours (the
  // leader's batch); UIDs with a fill already in flight are joined by
  // awaiting the leader's promise instead of issuing a duplicate RPC.
  std::vector<Uid> mine;
  std::vector<sim::SimFuture<Status>> joined;
  for (const Uid& object : objects) {
    if (entries_.count(object) > 0) continue;
    auto it = inflight_.find(object);
    if (it != inflight_.end()) {
      counters_.inc("cache.coalesced");
      sim::SimPromise<Status> p{ep_.node().sim()};
      joined.push_back(p.future());
      it->second.push_back(std::move(p));
    } else {
      inflight_.emplace(object, std::vector<sim::SimPromise<Status>>{});
      mine.push_back(object);
    }
  }

  Status out = ok_status();
  if (!mine.empty()) {
    counters_.inc("cache.fill_rpcs");
    auto r = co_await gvdb_get_views(ep_, naming_node_, mine);
    if (r.ok()) {
      for (ViewFill& fill : r.value().views) {
        if (!fill.view) continue;
        ObjectViews& v = *fill.view;
        entries_[fill.object] =
            Entry{std::move(v.sv), v.sv_epoch, std::move(v.st), v.st_epoch, r.value().incarnation};
      }
    } else {
      out = r.error();
    }
    for (const Uid& object : mine) {
      auto it = inflight_.find(object);
      if (it == inflight_.end()) continue;  // clear() ran mid-fetch
      auto waiters = std::move(it->second);
      inflight_.erase(it);
      Status s = !r.ok()              ? Status{r.error()}
                 : entries_.count(object) ? ok_status()
                                          : Status{Err::NotFound};
      if (!s.ok() && out.ok()) out = s;
      for (auto& p : waiters) p.set_value(s);
    }
  }
  for (auto& f : joined) {
    Status s = co_await f;
    if (!s.ok() && out.ok()) out = s;
  }
  co_return out;
}

void GroupViewCache::apply_piggyback(NodeId from, Buffer blob) {
  Piggyback p;
  if (from != naming_node_ || !rpc::decode(blob, p)) return;
  for (const ValidateItem& bump : p.bumps) {
    auto it = entries_.find(bump.object);
    if (it == entries_.end()) continue;
    const Entry& e = it->second;
    if (e.incarnation != p.incarnation || e.sv_epoch != bump.sv_epoch ||
        e.st_epoch != bump.st_epoch) {
      entries_.erase(it);
      counters_.inc("cache.piggyback_invalidated");
    }
  }
}

}  // namespace gv::naming
