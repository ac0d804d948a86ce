// Composable fault injection ("nemeses") for robustness campaigns.
//
// FoundationDB-style simulation testing: each nemesis runs an
// independently-seeded schedule of one fault class against the
// deterministic simulation —
//
//   CrashNemesis         node crash/recover loops (subsumes the original
//                        ChaosMonkey)
//   PartitionNemesis     network partition/heal cycles over sim::Network
//   NetChaosNemesis      bursts of message loss, extra delay and
//                        duplication (NetConfig knobs)
//   StorageFaultNemesis  stable-storage faults at commit-install time:
//                        failed shadow installs and torn shadow writes
//                        (store::StoreFaultConfig)
//   ScriptedNemesis      an explicit (time, action) schedule, for tests
//                        and for replaying a recorded fault schedule
//
// Every injected fault is recorded with its simulated timestamp, so a
// campaign that finds an invariant violation can print the exact seed and
// fault schedule needed to replay it. All randomness forks from the
// simulation RNG: same seed -> same schedule -> same outcome.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "store/object_store.h"
#include "util/rng.h"

namespace gv::core {

// One injected fault, for replay/violation reports.
struct NemesisEvent {
  sim::SimTime at = 0;
  std::string what;
};

class Nemesis {
 public:
  virtual ~Nemesis() = default;

  // Arm the schedule; fault loops run until stop().
  virtual void start() = 0;
  virtual void stop() noexcept { stopped_ = true; }

  const std::string& name() const noexcept { return name_; }
  const std::vector<NemesisEvent>& events() const noexcept { return events_; }
  std::size_t injected() const noexcept { return events_.size(); }

 protected:
  Nemesis(std::string name, sim::Simulator& sim)
      : name_(std::move(name)), sim_(sim), rng_(sim.rng().fork()) {}

  void record(std::string what) { events_.push_back({sim_.now(), std::move(what)}); }

  std::string name_;
  sim::Simulator& sim_;
  Rng rng_;
  bool stopped_ = false;
  std::vector<NemesisEvent> events_;
};

// ------------------------------------------------------------- crash/recover

struct CrashNemesisConfig {
  // Mean time between failures / to repair, per victim node.
  sim::SimTime mean_uptime = 2 * sim::kSecond;
  sim::SimTime mean_downtime = 500 * sim::kMillisecond;
  std::vector<sim::NodeId> victims;  // nodes eligible to crash
};

class CrashNemesis final : public Nemesis {
 public:
  CrashNemesis(sim::Simulator& sim, sim::Cluster& cluster, CrashNemesisConfig cfg)
      : Nemesis("crash", sim), cluster_(cluster), cfg_(std::move(cfg)) {}

  // Arm one crash/recover loop per victim. Runs until stop().
  void start() override;

  std::uint64_t crashes() const noexcept { return crashes_; }

 private:
  sim::Task<> run_victim(sim::NodeId victim);

  sim::Cluster& cluster_;
  CrashNemesisConfig cfg_;
  std::uint64_t crashes_ = 0;
};

// ----------------------------------------------------------- partition/heal

struct PartitionNemesisConfig {
  sim::SimTime mean_interval = 2 * sim::kSecond;          // healthy period
  sim::SimTime mean_duration = 400 * sim::kMillisecond;   // partitioned period
  std::vector<sim::NodeId> victims;  // nodes eligible for the minority side
  std::size_t max_minority = 1;      // cut off up to this many at once
};

class PartitionNemesis final : public Nemesis {
 public:
  PartitionNemesis(sim::Simulator& sim, sim::Cluster& cluster, sim::Network& net,
                   PartitionNemesisConfig cfg)
      : Nemesis("partition", sim), cluster_(cluster), net_(net), cfg_(std::move(cfg)) {}

  void start() override;
  std::uint64_t partitions() const noexcept { return partitions_; }

 private:
  sim::Task<> run();

  sim::Cluster& cluster_;
  sim::Network& net_;
  PartitionNemesisConfig cfg_;
  std::uint64_t partitions_ = 0;
};

// ------------------------------------------------- loss/delay/duplication

struct NetChaosNemesisConfig {
  sim::SimTime mean_interval = 1 * sim::kSecond;
  sim::SimTime mean_duration = 300 * sim::kMillisecond;
  // Burst intensity; a zero leaves that knob untouched.
  double burst_loss_prob = 0.0;
  double burst_dup_prob = 0.0;
  double burst_extra_jitter_us = 0.0;  // added to NetConfig::jitter_mean_us
};

class NetChaosNemesis final : public Nemesis {
 public:
  NetChaosNemesis(sim::Simulator& sim, sim::Network& net, NetChaosNemesisConfig cfg)
      : Nemesis("netchaos", sim), net_(net), cfg_(cfg) {}

  void start() override;
  std::uint64_t bursts() const noexcept { return bursts_; }

 private:
  sim::Task<> run();

  sim::Network& net_;
  NetChaosNemesisConfig cfg_;
  std::uint64_t bursts_ = 0;
};

// ----------------------------------------------------- stable-storage faults

struct StorageFaultNemesisConfig {
  sim::SimTime mean_interval = 1500 * sim::kMillisecond;
  sim::SimTime mean_duration = 400 * sim::kMillisecond;
  std::vector<sim::NodeId> victims;  // store nodes eligible for faults
  store::StoreFaultConfig faults{0.3, 0.3};  // applied during a burst
};

class StorageFaultNemesis final : public Nemesis {
 public:
  // `store_of` maps a node id to its object store (the composition root
  // provides it; keeps this header decoupled from ReplicaSystem).
  using StoreAccessor = std::function<store::ObjectStore&(sim::NodeId)>;

  StorageFaultNemesis(sim::Simulator& sim, StoreAccessor store_of, StorageFaultNemesisConfig cfg)
      : Nemesis("storage", sim), store_of_(std::move(store_of)), cfg_(std::move(cfg)) {}

  void start() override;
  std::uint64_t bursts() const noexcept { return bursts_; }

 private:
  sim::Task<> run();

  StoreAccessor store_of_;
  StorageFaultNemesisConfig cfg_;
  std::uint64_t bursts_ = 0;
};

// ------------------------------------------------------- scripted schedule

// Executes an explicit list of (time, action) steps — the building block
// for targeted failure tests (e.g. double-failure schedules) and for
// replaying a schedule recorded by another nemesis.
class ScriptedNemesis final : public Nemesis {
 public:
  struct Step {
    sim::SimTime at = 0;  // absolute simulated time
    std::string what;
    std::function<void()> action;
  };

  ScriptedNemesis(sim::Simulator& sim, std::vector<Step> steps)
      : Nemesis("scripted", sim), steps_(std::move(steps)) {}

  void start() override;

 private:
  std::vector<Step> steps_;
};

// ----------------------------------------------------------------- suite

// A campaign's fault mix: owns the nemeses, starts/stops them together,
// and merges their event traces into one replayable schedule.
class NemesisSuite {
 public:
  template <typename T>
  T& add(std::unique_ptr<T> nemesis) {
    T& ref = *nemesis;
    nemeses_.push_back(std::move(nemesis));
    return ref;
  }

  void start_all() {
    for (auto& n : nemeses_) n->start();
  }
  void stop_all() noexcept {
    for (auto& n : nemeses_) n->stop();
  }

  std::size_t size() const noexcept { return nemeses_.size(); }
  std::size_t injected() const noexcept {
    std::size_t total = 0;
    for (const auto& n : nemeses_) total += n->injected();
    return total;
  }

  // All injected faults, time-sorted, each prefixed with its nemesis name.
  std::vector<NemesisEvent> schedule() const;
  // Human-readable schedule ("  12.345s [crash] node 4 down"), one per line.
  std::string dump() const;

 private:
  std::vector<std::unique_ptr<Nemesis>> nemeses_;
};

}  // namespace gv::core
