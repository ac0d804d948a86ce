// Metrics for experiments and campaigns.
//
// MetricsRegistry is the per-System sink for the three metric families the
// observability layer records:
//   * histograms — operation latencies (GetServer, GetView, Exclude batch,
//     commit phases, recovery repair) via the streaming gv::Histogram, so
//     percentiles survive a 750-cell campaign in bounded memory;
//   * gauges — instantaneous sizes sampled at update time (|Sv|, |St|,
//     use-list lengths, lock-table depth) with last/min/max retained;
//   * counters — the existing gv::Counters protocol event counts.
//
// Exported as JSONL (one JSON object per metric per line) so campaign and
// bench runs can dump machine-readable artifacts next to their tables;
// EXPERIMENTS.md documents how to regenerate figures from these dumps.
//
// Table/print_counters are the original fixed-width stdout helpers the
// bench harnesses use for human-readable reporting.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace gv::core {

class MetricsRegistry {
 public:
  struct Gauge {
    double last = 0;
    double min = 0;
    double max = 0;
    std::uint64_t updates = 0;
  };

  // Named histogram, created on first use. Convention: dotted component
  // path with unit suffix, e.g. "naming.getserver_us", "commit.prepare_us".
  // Looked up by view: a name is copied into a string only when created.
  gv::Histogram& histogram(std::string_view name) { return find_or_add(histograms_, name); }

  void gauge_set(std::string_view name, double value) {
    Gauge& g = find_or_add(gauges_, name);
    if (g.updates == 0) {
      g.min = g.max = value;
    } else {
      if (value < g.min) g.min = value;
      if (value > g.max) g.max = value;
    }
    g.last = value;
    ++g.updates;
  }

  gv::Counters& counters() noexcept { return counters_; }
  const gv::Counters& counters() const noexcept { return counters_; }

  const std::map<std::string, gv::Histogram, std::less<>>& histograms() const noexcept {
    return histograms_;
  }

  // clear() drops every metric and bumps generation(), so a component
  // holding Histogram pointers from this registry knows to re-resolve.
  void clear() {
    histograms_.clear();
    gauges_.clear();
    counters_.reset();
    ++generation_;
  }
  std::uint64_t generation() const noexcept { return generation_; }

  // One JSON object per line:
  //   {"label":...,"kind":"histogram","name":...,"count":...,"mean":...,
  //    "p50":...,"p90":...,"p99":...,"min":...,"max":...}
  //   {"label":...,"kind":"gauge","name":...,"last":...,"min":...,"max":...,
  //    "updates":...}
  //   {"label":...,"kind":"counter","name":...,"value":...}
  // `label` identifies the run (bench name + config, campaign cell id).
  std::string jsonl(const std::string& label) const;
  bool write_jsonl(const std::string& path, const std::string& label) const;

 private:
  template <class V>
  static V& find_or_add(std::map<std::string, V, std::less<>>& table, std::string_view name) {
    auto it = table.find(name);
    return it != table.end() ? it->second : table.emplace(name, V{}).first->second;
  }

  std::map<std::string, gv::Histogram, std::less<>> histograms_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  gv::Counters counters_;
  std::uint64_t generation_ = 0;
};

// Null-tolerant helpers mirroring trace_span/trace_instant: components
// outside a ReplicaSystem pass nullptr and record nothing.
inline void metric_record(MetricsRegistry* m, std::string_view name, double value) {
  if (m != nullptr) m->histogram(name).record(value);
}

inline void metric_gauge(MetricsRegistry* m, std::string_view name, double value) {
  if (m != nullptr) m->gauge_set(name, value);
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  // Render to stdout with aligned columns.
  void print(const std::string& title = "") const;

  static std::string fmt(double v, int precision = 2);
  static std::string fmt_pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Print every counter whose name starts with `prefix`.
void print_counters(const Counters& counters, const std::string& prefix,
                    const std::string& title);

}  // namespace gv::core
