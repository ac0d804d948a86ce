// Robustness campaign: sweep seeds x nemesis mixes x naming schemes,
// auditing the paper's safety invariants after every cell.
//
// This is the FoundationDB-style outer loop over the deterministic
// simulation: each cell builds a fresh ReplicaSystem from (seed, mix,
// scheme), runs a bank workload under composed fault injection
// (core/nemesis.h) on one actively replicated account, bound at both
// servers for even seeds and at one for odd seeds, then heals everything, drains, and applies the
// strict quiescent audit (core/audit.h). Any violation prints the exact
// replay command; the binary exits non-zero so CI fails.
//
//   ./gv_campaign                        full sweep (50 seeds x 5 mixes x S1/S2/S3)
//   ./gv_campaign --seeds 100            more seeds
//   ./gv_campaign --smoke                small CI-sized sweep
//   ./gv_campaign --mix everything       restrict to one mix
//   ./gv_campaign --scheme S2            restrict to one scheme
//   ./gv_campaign --replay 1007 everything S2   re-run one cell verbosely
//   ./gv_campaign ... --trace            protocol-level GV_LOG output
//
// Determinism: everything (workload randomness included) forks from the
// cell seed, so a replayed cell reproduces the identical event order,
// fault schedule and violation.
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/audit.h"
#include "core/nemesis.h"
#include "replication/state_machine.h"
#include "util/log.h"

namespace gv::bench {
namespace {

using core::AuditViolation;
using core::CrashNemesis;
using core::CrashNemesisConfig;
using core::InvariantAuditor;
using core::NemesisSuite;
using core::NetChaosNemesis;
using core::NetChaosNemesisConfig;
using core::PartitionNemesis;
using core::PartitionNemesisConfig;
using core::ScriptedNemesis;
using core::StorageFaultNemesis;
using core::StorageFaultNemesisConfig;

// Node roles for every cell: 0 naming, 1 client, 2-3 servers, 5-7 stores.
const std::vector<sim::NodeId> kServerNodes{2, 3};
const std::vector<sim::NodeId> kStoreNodes{5, 6, 7};
const std::vector<sim::NodeId> kFaultTargets{2, 3, 5, 6, 7};

constexpr sim::SimTime kHorizon = 30 * sim::kSecond;

const std::vector<std::string>& all_mixes() {
  static const std::vector<std::string> m{"crash", "partition", "netchaos", "storage",
                                          "everything"};
  return m;
}

struct SchemeOpt {
  const char* cli;
  naming::Scheme scheme;
};
const std::vector<SchemeOpt>& all_schemes() {
  static const std::vector<SchemeOpt> s{
      {"S1", naming::Scheme::StandardNested},
      {"S2", naming::Scheme::IndependentTopLevel},
      {"S3", naming::Scheme::NestedTopLevel},
  };
  return s;
}

void add_mix(NemesisSuite& suite, const std::string& mix, ReplicaSystem& sys) {
  const bool all = mix == "everything";
  if (all || mix == "crash")
    suite.add(std::make_unique<CrashNemesis>(
        sys.sim(), sys.cluster(),
        CrashNemesisConfig{900 * sim::kMillisecond, 400 * sim::kMillisecond, kFaultTargets}));
  if (all || mix == "partition")
    suite.add(std::make_unique<PartitionNemesis>(
        sys.sim(), sys.cluster(), sys.net(),
        PartitionNemesisConfig{2 * sim::kSecond, 400 * sim::kMillisecond, kFaultTargets, 2}));
  if (all || mix == "netchaos") {
    NetChaosNemesisConfig cfg;
    cfg.burst_loss_prob = 0.15;
    cfg.burst_dup_prob = 0.10;
    cfg.burst_extra_jitter_us = 2000;
    suite.add(std::make_unique<NetChaosNemesis>(sys.sim(), sys.net(), cfg));
  }
  if (all || mix == "storage") {
    StorageFaultNemesisConfig cfg;
    cfg.victims = kStoreNodes;
    suite.add(std::make_unique<StorageFaultNemesis>(
        sys.sim(), [&sys](sim::NodeId n) -> store::ObjectStore& { return sys.store_at(n); },
        cfg));
    // Pair storage faults with store crashes, so the shadows a crash
    // leaves in doubt meet the failed and torn writes too.
    if (!all)
      suite.add(std::make_unique<CrashNemesis>(
          sys.sim(), sys.cluster(),
          CrashNemesisConfig{1500 * sim::kMillisecond, 400 * sim::kMillisecond, kStoreNodes}));
  }
}

struct CellResult {
  int attempted = 0;
  int committed = 0;
  std::size_t faults = 0;
  std::vector<AuditViolation> violations;
  std::string audit_report;
  std::string schedule;
  std::string trace_tail;  // post-mortem timeline; filled on violation
};

// Ring sized for a post-mortem tail, not a full run: the campaign keeps
// tracing on for every cell, so it must cost near-nothing per event. 512
// slots keeps the whole ring cache-resident (the dominant recording cost
// is the cache miss on the slot, not the stores) while still holding ~6x
// more history than the 80-event timeline printed for a violation.
constexpr std::size_t kCellTraceRing = 512;

CellResult run_cell(std::uint64_t seed, const std::string& mix, naming::Scheme scheme,
                    bool verbose, bool tracing = true, const std::string& metrics_out = "",
                    const std::string& cell_label = "", bool view_cache = false) {
  SystemConfig cfg;
  cfg.nodes = 10;
  cfg.seed = seed;
  cfg.scheme = scheme;
  cfg.view_cache = view_cache;  // --cache: sec-6 cached binds under chaos
  cfg.start_janitor = true;        // crashed clients / phantom counters
  cfg.start_store_reaper = true;   // orphaned shadows (dead coordinators)
  cfg.start_view_probe = true;     // partition-heal re-Include
  cfg.tracing = tracing;
  cfg.trace_ring = kCellTraceRing;
  ReplicaSystem sys{cfg};
  // Even seeds bind both servers (|Sv'| = 2, every invocation a group
  // call); odd seeds bind one, so a transaction's first invocation goes
  // point to point and activates the account.
  const std::size_t servers_wanted = seed % 2 == 0 ? 2 : 1;
  const Uid acct =
      sys.define_object("acct", "bank", replication::BankAccount{}.snapshot(), kServerNodes,
                        kStoreNodes, ReplicationPolicy::Active, servers_wanted);

  InvariantAuditor audit{sys};
  audit.track(acct);
  std::int64_t committed_delta = 0;
  audit.add_conservation_check(
      "money-conservation",
      [&sys, acct, &committed_delta]() -> std::optional<std::string> {
        for (sim::NodeId n : sys.gvdb().states().peek(acct)) {
          auto r = sys.store_at(n).read(acct);
          if (!r.ok()) continue;
          replication::BankAccount check;
          (void)check.restore(std::move(r.value().state));
          if (check.balance() != committed_delta)
            return "balance " + std::to_string(check.balance()) + " != committed delta " +
                   std::to_string(committed_delta);
          return std::nullopt;
        }
        return "no readable St member at quiescence";
      });
  audit.start(500 * sim::kMillisecond);

  NemesisSuite suite;
  add_mix(suite, mix, sys);
  suite.start_all();

  CellResult out;
  auto* client = sys.client(1);
  sys.sim().spawn([](ReplicaSystem& sys, ClientSession* client, Uid acct, CellResult& out,
                     std::int64_t& committed_delta) -> sim::Task<> {
    Rng rng = sys.sim().rng().fork();  // workload randomness from the cell seed
    for (int i = 0; i < 25; ++i) {
      const bool deposit = rng.bernoulli(0.7);
      const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.uniform(50));
      ++out.attempted;
      auto txn = client->begin();
      auto r = co_await txn->invoke(acct, deposit ? "deposit" : "withdraw", i64_buf(amount),
                                    LockMode::Write);
      if (!r.ok()) {
        (void)co_await txn->abort();
      } else if ((co_await txn->commit()).ok()) {
        ++out.committed;
        committed_delta += deposit ? amount : -amount;
        GV_LOG(LogLevel::Debug, sys.sim().now(), "workload", "txn %d %s %lld (delta %lld)", i,
               deposit ? "deposit" : "withdraw", static_cast<long long>(amount),
               static_cast<long long>(committed_delta));
      }
      co_await sys.sim().sleep(40 * sim::kMillisecond);
    }
  }(sys, client, acct, out, committed_delta));

  sys.sim().run_until(kHorizon);

  // End of chaos: stop injection and every periodic loop, repair the
  // world, then drain to quiescence.
  suite.stop_all();
  sys.sim().run_until(kHorizon + 3 * sim::kSecond);  // in-flight bursts/partitions expire
  sys.net().heal();
  audit.stop();
  sys.janitor().stop();
  for (sim::NodeId n = 0; n < sys.cluster().size(); ++n) {
    sys.store_at(n).clear_faults();
    sys.store_at(n).stop_reaper();
    sys.recovery_at(n).stop_view_probe();
    if (!sys.cluster().up(n)) sys.cluster().node(n).recover();
  }
  sys.sim().run();

  audit.check_now(/*quiescent=*/true);
  out.faults = suite.injected();
  out.violations = audit.violations();
  out.audit_report = audit.report();
  out.schedule = suite.dump();
  // Post-mortem timeline: the ring's last events, in order, for any cell
  // that failed the audit (also on verbose replays, trace permitting).
  if (tracing && (!out.violations.empty() || verbose)) out.trace_tail = sys.trace().tail(80);
  if (!metrics_out.empty()) {
    if (std::FILE* f = std::fopen(metrics_out.c_str(), "a")) {
      const std::string lines = sys.metrics().jsonl(cell_label);
      std::fwrite(lines.data(), 1, lines.size(), f);
      std::fclose(f);
    }
  }
  if (verbose) {
    std::printf("  workload: %d/%d committed, delta %lld\n", out.committed, out.attempted,
                static_cast<long long>(committed_delta));
    std::printf("  fault schedule (%zu injected):\n%s", out.faults, out.schedule.c_str());
    std::printf("  final St replicas:\n");
    for (sim::NodeId n : sys.gvdb().states().peek(acct)) {
      auto r = sys.store_at(n).read(acct);
      if (!r.ok()) {
        std::printf("    store %u: unreadable\n", n);
        continue;
      }
      replication::BankAccount check;
      (void)check.restore(std::move(r.value().state));
      std::printf("    store %u: v%llu balance %lld\n", n,
                  static_cast<unsigned long long>(r.value().version),
                  static_cast<long long>(check.balance()));
    }
    std::printf("  counters:\n");
    const Counters totals = sys.aggregate_counters();
    for (const auto& [name, value] : totals.all())
      std::printf("    %-40s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: gv_campaign [--seeds N] [--seed-base B] [--mix MIX] [--scheme S]\n"
               "                   [--smoke] [--trace] [--cache] [--replay SEED MIX SCHEME]\n"
               "                   [--no-cell-trace] [--metrics-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace gv::bench

int main(int argc, char** argv) {
  using namespace gv::bench;

  int n_seeds = 50;
  std::uint64_t seed_base = 1000;
  std::vector<std::string> mixes = all_mixes();
  std::vector<SchemeOpt> schemes = all_schemes();
  bool smoke = false;
  bool replay = false;
  bool view_cache = false;  // --cache: run every cell with cached binds
  bool cell_trace = true;  // --no-cell-trace: overhead A/B baseline
  std::string metrics_out;
  std::uint64_t replay_seed = 0;
  std::string replay_mix;
  std::string replay_scheme;

  auto scheme_by_cli = [](const std::string& name) -> const SchemeOpt* {
    for (const SchemeOpt& s : all_schemes())
      if (name == s.cli) return &s;
    return nullptr;
  };
  // A typo'd mix would otherwise run with ZERO nemeses and report a
  // fault-free cell as CLEAN — fatal for the replay contract.
  auto known_mix = [](const std::string& name) {
    for (const std::string& m : all_mixes())
      if (name == m) return true;
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      n_seeds = std::atoi(argv[++i]);
    } else if (arg == "--seed-base" && i + 1 < argc) {
      seed_base = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--mix" && i + 1 < argc) {
      mixes = {argv[++i]};
      if (!known_mix(mixes[0])) {
        std::fprintf(stderr, "unknown mix '%s'\n", mixes[0].c_str());
        return usage();
      }
    } else if (arg == "--scheme" && i + 1 < argc) {
      const SchemeOpt* s = scheme_by_cli(argv[++i]);
      if (s == nullptr) return usage();
      schemes = {*s};
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--cache") {
      view_cache = true;
    } else if (arg == "--no-cell-trace") {
      cell_trace = false;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace") {
      gv::Log::set_level(gv::LogLevel::Debug);
    } else if (arg == "--replay" && i + 3 < argc) {
      replay = true;
      replay_seed = std::strtoull(argv[++i], nullptr, 10);
      replay_mix = argv[++i];
      replay_scheme = argv[++i];
      if (!known_mix(replay_mix)) {
        std::fprintf(stderr, "unknown mix '%s'\n", replay_mix.c_str());
        return usage();
      }
    } else {
      return usage();
    }
  }

  if (replay) {
    const SchemeOpt* s = scheme_by_cli(replay_scheme);
    if (s == nullptr) return usage();
    std::printf("replay: seed %llu mix %s scheme %s\n",
                static_cast<unsigned long long>(replay_seed), replay_mix.c_str(), s->cli);
    CellResult r = run_cell(replay_seed, replay_mix, s->scheme, /*verbose=*/true, cell_trace,
                            metrics_out,
                            "replay_" + replay_mix + "_" + replay_scheme + "_" +
                                std::to_string(replay_seed),
                            view_cache);
    if (!r.trace_tail.empty()) std::printf("  timeline (last events):\n%s", r.trace_tail.c_str());
    if (r.violations.empty()) {
      std::printf("  audit: CLEAN\n");
      return 0;
    }
    std::printf("  audit: %zu violation(s)\n%s", r.violations.size(), r.audit_report.c_str());
    return 1;
  }

  if (smoke) {
    n_seeds = 4;
    mixes = {"crash", "everything"};
  }
  if (n_seeds <= 0) return usage();

  std::printf("# robustness campaign: %d seeds x %zu mixes x %zu schemes (horizon %llds)%s\n",
              n_seeds, mixes.size(), schemes.size(),
              static_cast<long long>(kHorizon / gv::sim::kSecond),
              view_cache ? " [view cache ON]" : "");
  std::printf("%-12s %-6s %8s %10s %10s %10s\n", "mix", "scheme", "cells", "commit%",
              "faults", "violations");

  int total_cells = 0;
  std::size_t total_violations = 0;
  for (const std::string& mix : mixes) {
    for (const SchemeOpt& scheme : schemes) {
      int cells = 0;
      int attempted = 0;
      int committed = 0;
      std::size_t faults = 0;
      std::size_t violations = 0;
      for (int k = 0; k < n_seeds; ++k) {
        const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(k);
        CellResult r = run_cell(seed, mix, scheme.scheme, /*verbose=*/false, cell_trace,
                                metrics_out,
                                mix + "_" + scheme.cli + "_" + std::to_string(seed),
                                view_cache);
        ++cells;
        attempted += r.attempted;
        committed += r.committed;
        faults += r.faults;
        if (!r.violations.empty()) {
          violations += r.violations.size();
          std::printf("VIOLATION seed=%llu mix=%s scheme=%s (%zu invariant failure(s))\n",
                      static_cast<unsigned long long>(seed), mix.c_str(), scheme.cli,
                      r.violations.size());
          std::printf("%s", r.audit_report.c_str());
          if (!r.trace_tail.empty())
            std::printf("  timeline (last events):\n%s", r.trace_tail.c_str());
          std::printf("  replay: ./gv_campaign --replay %llu %s %s%s --trace\n",
                      static_cast<unsigned long long>(seed), mix.c_str(), scheme.cli,
                      view_cache ? " --cache" : "");
        }
      }
      total_cells += cells;
      total_violations += violations;
      std::printf("%-12s %-6s %8d %9.1f%% %10zu %10zu\n", mix.c_str(), scheme.cli, cells,
                  attempted == 0 ? 0.0 : 100.0 * committed / attempted, faults, violations);
    }
  }
  std::printf("# %d cells, %zu violation(s)\n", total_cells, total_violations);
  return total_violations == 0 ? 0 : 1;
}
