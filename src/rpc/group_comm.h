// Group communication for replica groups (sec 2.3, Fig 1).
//
// Active replication requires that messages to a replica group be
// delivered *reliably* (all functioning members receive them) and in a
// *totally ordered* fashion (identical order at each member) — Schneider's
// state-machine requirements [16]. GroupComm provides that service, plus a
// deliberately weaker Unreliable mode in which each copy travels as an
// independent datagram subject to loss and reordering. The Fig-1 benchmark
// contrasts the two: with the weak mode, a reply lost to a subset of the
// group makes replica states diverge.
//
// The ReliableOrdered implementation models a sequencer-based atomic
// broadcast: each multicast is assigned a global sequence number per
// group; members buffer out-of-order deliveries and hand messages up in
// sequence. Members that are down at delivery time miss the message and
// must run the recovery protocol before rejoining (their group view slot
// is stale) — exactly virtual-synchrony semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "util/buffer.h"
#include "util/stats.h"
#include "util/trace_context.h"
#include "util/uid.h"

namespace gv::rpc {

using sim::NodeId;

enum class McastMode {
  ReliableOrdered,  // atomic broadcast: all-or-nothing to functioning members, total order
  Unreliable,       // independent datagrams: loss / partial delivery possible
};

class GroupComm {
 public:
  GroupComm(sim::Simulator& sim, sim::Cluster& cluster, sim::Network& net)
      : sim_(sim), cluster_(cluster), net_(net) {}

  using Deliver = std::function<void(NodeId from, std::uint64_t seq, Buffer msg)>;

  // Create `group` with a fixed initial member list. Object servers need
  // not: their first join creates the group of an activated object, named
  // by the object's UID.
  void create_group(const Uid& group, std::vector<NodeId> members);
  std::vector<NodeId> members(const Uid& group) const;

  // Each member registers a delivery upcall for a group, joining its
  // member list (and creating the group) if it is not on it yet. A join
  // changes the group's view, which its live members must agree to: a
  // joiner the network cannot connect to one of them is refused (false).
  bool join(const Uid& group, NodeId member, Deliver upcall);

  // Multicast to all members of `group`. In ReliableOrdered mode the
  // message is sequenced and delivered in identical order at every member
  // functioning at delivery time. In Unreliable mode each copy is an
  // independent Network datagram (loss applies per copy).
  void multicast(NodeId from, const Uid& group, Buffer msg, McastMode mode);

  // Deterministic fault injection for tests: deliver to only the first
  // `copies` members, simulating the sender crashing mid-delivery (Fig 1:
  // "B fails during delivery of the reply").
  void multicast_partial(NodeId from, const Uid& group, Buffer msg, std::size_t copies);

  Counters& counters() noexcept { return counters_; }

 private:
  // A sequenced message buffered at a member until its turn. The sender's
  // TraceContext is retained so a delivery flushed later (out-of-order
  // arrival) is still attributed to the multicast that produced it, not to
  // the message whose arrival triggered the flush.
  struct PendingMsg {
    NodeId from = sim::kNoNode;
    Buffer msg;
    TraceContext ctx;
  };
  struct Member {
    Deliver upcall;
    std::uint64_t next_seq = 1;  // next in-sequence delivery
    std::map<std::uint64_t, PendingMsg> pending;  // buffered out-of-order
  };
  struct Group {
    std::vector<NodeId> member_ids;
    std::unordered_map<NodeId, Member> members;
    std::uint64_t next_mcast_seq = 1;
  };

  void deliver_ordered(const Uid& group, NodeId member, NodeId from, std::uint64_t seq,
                       Buffer msg);

  sim::Simulator& sim_;
  sim::Cluster& cluster_;
  sim::Network& net_;
  std::unordered_map<Uid, Group> groups_;
  Counters counters_;
};

}  // namespace gv::rpc
