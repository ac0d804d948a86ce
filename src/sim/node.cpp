#include "sim/node.h"

#include "util/log.h"

namespace gv::sim {

void Node::crash() {
  if (!up_) return;
  up_ = false;
  ++epoch_;
  ++crash_count_;
  GV_LOG(LogLevel::Info, sim_.now(), "node", "node %u CRASH (epoch %llu)", id_,
         static_cast<unsigned long long>(epoch_));
  for (auto& fn : crash_listeners_) fn();
}

void Node::recover() {
  if (up_) return;
  up_ = true;
  GV_LOG(LogLevel::Info, sim_.now(), "node", "node %u RECOVER (epoch %llu)", id_,
         static_cast<unsigned long long>(epoch_));
  for (auto& fn : recover_listeners_) fn();
}

Node::Duty& Node::every(SimTime period, std::function<Task<>()> run) {
  Duty& duty = *duties_.emplace_back(std::make_unique<Duty>(Duty{period, std::move(run)}));
  on_recover([this, &duty] {
    if (duty.running) arm(duty);
  });
  if (up_) arm(duty);
  return duty;
}

void Node::arm(Duty& duty) {
  sim_.schedule(duty.period, [this, &duty, epoch = epoch_] {
    if (!duty.running || !current(epoch)) return;
    sim_.spawn([](Node& node, Duty& duty, std::uint64_t epoch) -> Task<> {
      co_await duty.run();
      if (duty.running && node.current(epoch)) node.arm(duty);
    }(*this, duty, epoch));
  });
}

Node::Job& Node::job(std::function<Task<>()> run) {
  Job& job = *jobs_.emplace_back(std::make_unique<Job>(Job{*this, std::move(run)}));
  on_crash([&job] { job.running = false; });
  return job;
}

bool Node::Job::start() {
  if (running) return false;
  running = true;
  node.sim().spawn([](Job& job) -> Task<> {
    co_await job.run();
    job.running = false;
  }(*this));
  return true;
}

NodeId Cluster::add_node() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(sim_, id));
  return id;
}

void Cluster::add_nodes(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) add_node();
}

}  // namespace gv::sim
