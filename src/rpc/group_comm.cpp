#include "rpc/group_comm.h"

#include <algorithm>

#include "util/log.h"

namespace gv::rpc {

void GroupComm::create_group(const Uid& group, std::vector<NodeId> members) {
  Group g;
  g.member_ids = std::move(members);
  groups_[group] = std::move(g);
}

std::vector<NodeId> GroupComm::members(const Uid& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? std::vector<NodeId>{} : it->second.member_ids;
}

bool GroupComm::join(const Uid& group, NodeId member, Deliver upcall) {
  Group& g = groups_[group];
  if (g.members.count(member) > 0) return true;  // idempotent re-join
  for (const auto& [other, state] : g.members) {
    if (cluster_.up(other) && !net_.reachable(member, other)) {
      counters_.inc("gc.join_refused");
      return false;
    }
  }
  if (std::find(g.member_ids.begin(), g.member_ids.end(), member) == g.member_ids.end())
    g.member_ids.push_back(member);
  Member m;
  m.upcall = std::move(upcall);
  m.next_seq = g.next_mcast_seq;  // joins see only later messages
  g.members[member] = std::move(m);
  return true;
}

void GroupComm::multicast(NodeId from, const Uid& group, Buffer msg, McastMode mode) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  if (!cluster_.up(from)) return;  // fail-silent sender

  if (mode == McastMode::Unreliable) {
    counters_.inc("gc.unreliable_mcast");
    // Independent point-to-point copies: per-copy loss and jitter, no
    // atomicity. This is the hazard of Fig 1.
    for (NodeId m : git->second.member_ids) {
      const bool lost = net_.config().loss_prob > 0 &&
                        sim_.rng().bernoulli(net_.config().loss_prob);
      if (lost) {
        counters_.inc("gc.copy_lost");
        continue;
      }
      const sim::SimTime latency = net_.sample_latency();
      sim_.schedule(latency, [this, group, m, from, msg]() mutable {
        auto it = groups_.find(group);
        if (it == groups_.end()) return;
        auto mit = it->second.members.find(m);
        if (mit == it->second.members.end() || !cluster_.up(m)) return;
        counters_.inc("gc.deliver_unreliable");
        // No sequencing in unreliable mode: seq 0, delivered on arrival.
        mit->second.upcall(from, 0, std::move(msg));
      });
    }
    return;
  }

  // ReliableOrdered: sequence the message, then deliver each copy; members
  // buffer out-of-order arrivals and hand up in sequence order.
  counters_.inc("gc.ordered_mcast");
  const std::uint64_t seq = git->second.next_mcast_seq++;
  for (NodeId m : git->second.member_ids) {
    const sim::SimTime latency = net_.sample_latency();
    sim_.schedule(latency, [this, group, m, from, seq, msg]() mutable {
      deliver_ordered(group, m, from, seq, std::move(msg));
    });
  }
}

void GroupComm::deliver_ordered(const Uid& group, NodeId member, NodeId from,
                                std::uint64_t seq, Buffer msg) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  auto mit = git->second.members.find(member);
  if (mit == git->second.members.end()) return;
  if (!cluster_.up(member)) {
    // Virtual synchrony view change: a member that misses a sequenced
    // message is removed from the delivery view; it must recover and
    // rejoin (with fresh state) before receiving again. Without this, a
    // recovered member would silently resume with a gap in its history.
    counters_.inc("gc.view_change_member_dropped");
    git->second.members.erase(mit);
    return;
  }
  Member& m = mit->second;
  m.pending.emplace(seq, PendingMsg{from, std::move(msg), current_trace_context()});
  // Flush the in-sequence prefix. Re-find the member each iteration: the
  // upcall may itself mutate group membership.
  while (true) {
    auto git2 = groups_.find(group);
    if (git2 == groups_.end()) return;
    auto mit2 = git2->second.members.find(member);
    if (mit2 == git2->second.members.end()) return;
    Member& mm = mit2->second;
    auto next = mm.pending.find(mm.next_seq);
    if (next == mm.pending.end()) return;
    PendingMsg pending = std::move(next->second);
    mm.pending.erase(next);
    ++mm.next_seq;
    counters_.inc("gc.deliver_ordered");
    // Deliver under the originating multicast's context, not the context
    // of whichever arrival triggered this flush.
    TraceContextScope scope(pending.ctx);
    mm.upcall(pending.from, mm.next_seq - 1, std::move(pending.msg));
  }
}

void GroupComm::multicast_partial(NodeId from, const Uid& group, Buffer msg,
                                  std::size_t copies) {
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  counters_.inc("gc.partial_mcast");
  std::size_t sent = 0;
  for (NodeId m : git->second.member_ids) {
    if (sent++ >= copies) break;
    const sim::SimTime latency = net_.sample_latency();
    sim_.schedule(latency, [this, group, m, from, msg]() mutable {
      auto it = groups_.find(group);
      if (it == groups_.end()) return;
      auto mit = it->second.members.find(m);
      if (mit == it->second.members.end() || !cluster_.up(m)) return;
      mit->second.upcall(from, 0, std::move(msg));
    });
  }
}

}  // namespace gv::rpc
