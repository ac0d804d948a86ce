// Sim-time fingerprint: runs each benchmark workload (perfbench/workload.cpp,
// compiled in read-only) for a short fixed length at two seeds and asserts
// that every sim-time metric, the event count and the correctness gate equal
// the values recorded in sim_fingerprint_golden.txt. The simulator is
// deterministic, so any refactor that means to leave behaviour alone must
// leave these lines exactly as they are. On a mismatch the test prints the
// actual line in the golden file's format.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "workload.h"

namespace {

constexpr double kSeconds = 1.0;

struct Cell {
  perfbench::Workload workload;
  std::uint64_t seed;
};

std::string key(const Cell& c) {
  return std::string(perfbench::workload_name(c.workload)) + " " + std::to_string(c.seed);
}

void PrintTo(const Cell& c, std::ostream* os) { *os << key(c); }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One golden line: "<workload> <seed>" then the fields of SimMetrics in
// declaration order, then `correct` (1/0).
std::string fingerprint(const Cell& c, const perfbench::RunResult& r) {
  const perfbench::SimMetrics& s = r.sim;
  std::string line = key(c);
  for (std::uint64_t v : {s.ops, s.ops_failed, s.attempts, s.committed, s.failed_aborted,
                          s.failed_lock_refused, s.failed_timeout, s.failed_stale_view})
    line += " " + std::to_string(v);
  for (double v : {s.commit_p50_ms, s.commit_p99_ms, s.commit_p999_ms, s.sim_tps, s.stall_max_ms})
    line += " " + num(v);
  line += " " + std::to_string(s.events_processed);
  line += r.correct ? " 1" : " 0";
  return line;
}

// Golden lines keyed by "<workload> <seed>"; '#' lines are comments.
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(GV_FINGERPRINT_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto first = line.find(' ');
    const auto second = line.find(' ', first + 1);
    if (first == std::string::npos || second == std::string::npos) continue;
    out[line.substr(0, second)] = line;
  }
  return out;
}

class SimFingerprint : public ::testing::TestWithParam<Cell> {};

TEST_P(SimFingerprint, MatchesGolden) {
  const Cell c = GetParam();
  perfbench::RunOptions opts;
  opts.workload = c.workload;
  opts.seed = c.seed;
  opts.seconds = kSeconds;
  const perfbench::RunResult r = perfbench::run_workload(opts);
  const std::string actual = fingerprint(c, r);

  const auto golden = load_golden();
  const auto it = golden.find(key(c));
  ASSERT_TRUE(it != golden.end()) << "no golden line for '" << key(c) << "' in "
                                  << GV_FINGERPRINT_GOLDEN << "; actual line:\n"
                                  << actual;
  EXPECT_EQ(actual, it->second) << "sim-time fingerprint changed; actual line:\n" << actual;
  EXPECT_TRUE(r.correct);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SimFingerprint,
    ::testing::Values(Cell{perfbench::Workload::TxnRw, 101},
                      Cell{perfbench::Workload::TxnRw, 90001},
                      Cell{perfbench::Workload::ReadMostly, 101},
                      Cell{perfbench::Workload::ReadMostly, 90001},
                      Cell{perfbench::Workload::CrashRecover, 101},
                      Cell{perfbench::Workload::CrashRecover, 90001}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(perfbench::workload_name(info.param.workload)) + "_" +
             std::to_string(info.param.seed);
    });

}  // namespace
