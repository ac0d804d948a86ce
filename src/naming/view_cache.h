// Client-side group-view cache (sec 6).
//
// The paper observes that "naming and binding information ... changes
// slowly" and suggests clients cache it, provided staleness is detected
// before it can do harm. This cache holds, per UID, the last Sv(A)+St(A)
// snapshot a client node fetched from the group view database, tagged
// with the per-entry view epochs and the naming node's incarnation at
// fetch time.
//
// Correctness does NOT rest on the cache being fresh:
//
//  * fills are lock-free batched gvdb.get_views snapshots — cheap, and
//    possibly stale the moment they return;
//  * the commit processor validates every cached binding with ONE batched
//    gvdb.validate RPC that read-locks the entries under the committing
//    action (pinning them until the action ends, exactly the pin scheme
//    S1 gets from its long-held GetServer lock) and compares epochs;
//  * a mismatch surfaces as Err::StaleView: the action aborts, the entry
//    is dropped here, and the retry rebinds through the slow path.
//
// Concurrent misses for the same UID are singleflighted: the first miss
// runs the fetch; later misses await its completion instead of issuing
// their own RPCs. Invalidations arrive for free on the reply piggyback
// (GroupViewDb::piggyback_blob) and are applied before the awaiting
// caller resumes.
//
// The cache is volatile per-node state: cleared on crash like any other
// session table.
#pragma once

#include <unordered_map>
#include <vector>

#include "naming/group_view_db.h"

namespace gv::naming {

class GroupViewCache {
 public:
  struct Entry {
    std::vector<NodeId> sv;
    std::uint64_t sv_epoch = 0;
    std::vector<NodeId> st;
    std::uint64_t st_epoch = 0;
    std::uint64_t incarnation = 0;
  };

  GroupViewCache(rpc::RpcEndpoint& ep, NodeId naming_node);

  // Cache peek without counting or fetching (tests, diagnostics).
  const Entry* lookup(const Uid& object) const;

  // Hit: return the entry (no RPC). Miss: join or start a singleflight
  // batched fill, then return the freshly cached entry.
  sim::Task<Result<Entry>> get_or_fetch(Uid object);

  // Warm the cache for a batch of UIDs in one gvdb.get_views RPC (UIDs
  // already cached or already being fetched are skipped/joined).
  sim::Task<Status> prefetch(std::vector<Uid> objects);

  void invalidate(const Uid& object);
  void clear();

  // Reply-piggyback sink (wired to RpcEndpoint::set_piggyback_sink). A
  // blob that does not decode is ignored.
  void apply_piggyback(NodeId from, Buffer blob);

  NodeId naming_node() const noexcept { return naming_node_; }
  std::size_t size() const noexcept { return entries_.size(); }
  Counters& counters() noexcept { return counters_; }

 private:
  sim::Task<Status> fetch(std::vector<Uid> objects);

  rpc::RpcEndpoint& ep_;
  NodeId naming_node_;
  std::unordered_map<Uid, Entry> entries_;
  // UIDs with a fill in flight -> promises of callers waiting on it.
  std::unordered_map<Uid, std::vector<sim::SimPromise<Status>>> inflight_;
  Counters counters_;
};

}  // namespace gv::naming
