// Shared helpers for the experiment harnesses (one binary per paper
// figure; see DESIGN.md section 5 and EXPERIMENTS.md).
//
// Each harness is a deterministic Monte-Carlo simulation: it builds a
// ReplicaSystem, runs a workload under failure injection across several
// seeds, and prints the series the figure's argument predicts.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/nemesis.h"
#include "core/metrics.h"
#include "core/system.h"
#include "core/trace.h"

namespace gv::bench {

using core::ClientSession;
using core::LockMode;
using core::ReplicaSystem;
using core::ReplicationPolicy;
using core::SystemConfig;
using core::Table;

inline Buffer i64_buf(std::int64_t v) {
  Buffer b;
  b.pack_i64(v);
  return b;
}

inline Buffer str_buf(const std::string& s) {
  Buffer b;
  b.pack_string(s);
  return b;
}

struct WorkloadResult {
  int attempted = 0;
  int committed = 0;
  double mean_txn_latency_ms = 0;

  double availability() const {
    return attempted == 0 ? 0.0 : static_cast<double>(committed) / attempted;
  }
};

struct WorkloadOptions {
  int transactions = 50;
  sim::SimTime think_time = 25 * sim::kMillisecond;
  LockMode mode = LockMode::Write;
  std::string op = "add";
  std::int64_t arg = 1;
};

// Run `opts.transactions` sequential transactions from `client` against
// `obj`; accumulate availability and latency.
inline sim::Task<> run_workload(ClientSession* client, Uid obj, WorkloadOptions opts,
                                WorkloadResult& out, Summary* latency = nullptr) {
  auto& sim = client->runtime().endpoint().node().sim();
  for (int i = 0; i < opts.transactions; ++i) {
    ++out.attempted;
    const sim::SimTime start = sim.now();
    auto txn = client->begin();
    auto r = co_await txn->invoke(obj, opts.op, i64_buf(opts.arg), opts.mode);
    if (!r.ok()) {
      (void)co_await txn->abort();
    } else if ((co_await txn->commit()).ok()) {
      ++out.committed;
      if (latency)
        latency->add(static_cast<double>(sim.now() - start) / sim::kMillisecond);
    }
    co_await sim.sleep(opts.think_time);
  }
}

// Seeds used for Monte-Carlo averaging in every harness.
inline const std::vector<std::uint64_t>& seeds() {
  static const std::vector<std::uint64_t> s{11, 29, 47, 83, 131};
  return s;
}

// ---------------------------------------------------------- observability
// Every harness accepts --trace-out=PATH and --metrics-out=PATH. The
// metrics file is APPENDED so a sweep accumulates one JSONL line per
// metric per cell (lines carry the cell label); the trace file is
// overwritten per cell, so after the run it holds the LAST cell's
// timeline — narrow the sweep (or pick a single seed) to capture a
// specific one.
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;

  bool tracing() const noexcept { return !trace_out.empty(); }
  bool any() const noexcept { return tracing() || !metrics_out.empty(); }
};

inline ObsOptions parse_obs(int argc, char** argv) {
  ObsOptions obs;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) obs.trace_out = argv[i] + 12;
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) obs.metrics_out = argv[i] + 14;
  }
  return obs;
}

inline void dump_obs(core::ReplicaSystem& sys, const ObsOptions& obs, const std::string& label) {
  if (!obs.trace_out.empty()) (void)sys.trace().write_chrome_trace(obs.trace_out);
  if (!obs.metrics_out.empty()) {
    if (std::FILE* f = std::fopen(obs.metrics_out.c_str(), "a")) {
      const std::string lines = sys.metrics().jsonl(label);
      std::fwrite(lines.data(), 1, lines.size(), f);
      std::fclose(f);
    }
  }
}

// --------------------------------------------------------- BENCH_*.json
// Machine-readable benchmark artifact for perf gating: every series is a
// latency Summary reduced to {median, p99, mean, count} (sim-time
// milliseconds — deterministic in the seed set, so CI can compare
// medians across commits without wall-clock noise); scalars carry
// availability-style ratios. Written only when --json-out=PATH is given.
// scripts/bench_gate.py compares these files against bench/baselines/.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void add_summary(const std::string& series, const Summary& s) {
    series_.emplace_back(series, Row{s.percentile(50), s.percentile(99), s.mean(), s.count()});
  }
  void add_scalar(const std::string& name, double value) { scalars_.emplace_back(name, value); }

  bool write(const std::string& path) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"series\": {", bench_.c_str());
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const auto& [name, row] = series_[i];
      std::fprintf(f,
                   "%s\n    \"%s\": {\"median\": %.6g, \"p99\": %.6g, \"mean\": %.6g, "
                   "\"count\": %zu}",
                   i == 0 ? "" : ",", name.c_str(), row.median, row.p99, row.mean, row.count);
    }
    std::fprintf(f, "\n  },\n  \"scalars\": {");
    for (std::size_t i = 0; i < scalars_.size(); ++i)
      std::fprintf(f, "%s\n    \"%s\": %.6g", i == 0 ? "" : ",", scalars_[i].first.c_str(),
                   scalars_[i].second);
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    double median = 0;
    double p99 = 0;
    double mean = 0;
    std::size_t count = 0;
  };
  std::string bench_;
  std::vector<std::pair<std::string, Row>> series_;
  std::vector<std::pair<std::string, double>> scalars_;
};

inline std::string parse_json_out(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) return argv[i] + 11;
  return "";
}

}  // namespace gv::bench
