// Nodes with the paper's failure model (sec 2.1).
//
// A node is fail-silent: it either works as specified or crashes. Volatile
// storage is lost on a crash; stable storage survives. We model this with
// listener callbacks: services register on_crash handlers that wipe their
// volatile state, and on_recover handlers that restart daemons / run the
// recovery protocol. Each (re)incarnation bumps an epoch counter, which is
// how broken bindings are detected (sec 3.1: a binding to a server that
// crashed stays broken even after the node recovers).
//
// A crash also ends the node's coroutines (DESIGN.md sec 23): one that
// waits on the node resumes only if the node is still up in the
// incarnation it waited in (current()), and is abandoned otherwise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace gv::sim {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class Node {
 public:
  Node(Simulator& sim, NodeId id) : sim_(sim), id_(id) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  bool up() const noexcept { return up_; }
  // Incarnation number; bumped on every crash. A binding created in epoch
  // e is broken iff the node's current epoch != e or the node is down.
  std::uint64_t epoch() const noexcept { return epoch_; }
  // The incarnation rule: may a coroutine that waited in `epoch` resume?
  bool current(std::uint64_t epoch) const noexcept { return up_ && epoch_ == epoch; }

  void crash();
  void recover();

  // Listener registration. Handlers run synchronously inside
  // crash()/recover(), in registration order.
  void on_crash(std::function<void()> fn) { crash_listeners_.push_back(std::move(fn)); }
  void on_recover(std::function<void()> fn) { recover_listeners_.push_back(std::move(fn)); }

  // Awaitable: Simulator::sleep for a coroutine of this node. The same
  // timer event fires, but a crash meanwhile abandons the coroutine.
  auto sleep(SimTime delay) {
    return sim_.sleep(delay, [this, epoch = epoch_] { return current(epoch); });
  }

  // A periodic duty (see every()); clearing `running` stops it.
  struct Duty {
    SimTime period;
    std::function<Task<>()> run;
    bool running = true;
  };

  // Run `run` every `period` while this node is up, each run a period
  // after the previous one finished. Between runs the duty is a timer,
  // not a suspended coroutine, and recovery re-arms it.
  Duty& every(SimTime period, std::function<Task<>()> run);

  // A job run on demand: start() runs it unless a run is still going,
  // and says whether it started one. A crash ends the running run.
  struct Job {
    Node& node;
    std::function<Task<>()> run;
    bool running = false;
    bool start();
  };

  Job& job(std::function<Task<>()> run);

  Simulator& sim() noexcept { return sim_; }

  // Statistics used by experiment harnesses.
  std::uint64_t crash_count() const noexcept { return crash_count_; }

 private:
  void arm(Duty& duty);  // the next run, one period from now

  Simulator& sim_;
  NodeId id_;
  bool up_ = true;
  std::uint64_t epoch_ = 0;
  std::uint64_t crash_count_ = 0;
  std::vector<std::function<void()>> crash_listeners_;
  std::vector<std::function<void()>> recover_listeners_;
  std::vector<std::unique_ptr<Duty>> duties_;
  std::vector<std::unique_ptr<Job>> jobs_;
};

// The set of workstations making up the system.
class Cluster {
 public:
  explicit Cluster(Simulator& sim) : sim_(sim) {}

  NodeId add_node();
  void add_nodes(std::size_t n);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t size() const noexcept { return nodes_.size(); }

  bool up(NodeId id) const { return nodes_.at(id)->up(); }

  Simulator& sim() noexcept { return sim_; }

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace gv::sim
