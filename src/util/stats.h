// Lightweight statistics for experiments: streaming mean/variance plus
// retained samples for percentiles, a bounded-memory streaming histogram
// for long campaign runs, and a named-counter registry the benchmark
// harness prints as result rows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gv {

// Exact small-sample statistics. Retains EVERY sample for percentile
// queries — right for a bench harness doing a few thousand observations,
// wrong for an unbounded campaign (use Histogram there).
class Summary {
 public:
  void add(double x);
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }
  // p in [0,100]. Linear interpolation between the two closest order
  // statistics (the "exclusive" definition: p*(n-1) fractional rank), NOT
  // nearest-rank — p50 of {1,2} is 1.5, p100 is the max.
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
  double sum_ = 0;
  double sumsq_ = 0;
};

// Streaming quantile sketch with O(#distinct buckets) memory, never the
// sample count: values land in log-spaced buckets (factor 2^(1/8), so
// quantile estimates carry at most ~4.5% relative error) and percentiles
// interpolate inside the winning bucket. Non-positive values share one
// underflow bucket at zero. This is what core/metrics.h registers per
// operation so latency percentiles survive a 750-cell campaign without
// retaining millions of samples. Bucket counts live in one flat vector
// spanning the lowest to the highest bucket used; empty buckets are
// skipped, so results are those of a sparse map.
class Histogram {
 public:
  void record(double v);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  // p in [0,100]; estimate with bucket interpolation, clamped to the
  // observed [min, max].
  double percentile(double p) const;
  // Number of non-empty buckets.
  std::size_t bucket_count() const noexcept { return nonempty_; }

  // Merge another histogram into this one (same bucket layout).
  void merge(const Histogram& other);

 private:
  static std::int32_t bucket_of(double v) noexcept;
  static double bucket_lower(std::int32_t idx) noexcept;
  void add(std::int32_t idx, std::uint64_t n);

  std::uint64_t underflow_ = 0;        // non-positive values: the lowest bucket
  std::int32_t base_ = 0;              // bucket index of buckets_[0]
  std::vector<std::uint64_t> buckets_;  // counts for base_, base_ + 1, ...
  std::size_t nonempty_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Named monotonically increasing counters, e.g. "bind.stale_attempts".
// Lookups take a string_view, so incrementing an existing counter builds
// no std::string.
class Counters {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  void inc(std::string_view name, std::uint64_t by = 1) {
    auto it = counts_.lower_bound(name);
    if (it != counts_.end() && it->first == name)
      it->second += by;
    else
      counts_.emplace_hint(it, name, by);
  }
  std::uint64_t get(std::string_view name) const;
  void reset() { counts_.clear(); }
  const Map& all() const noexcept { return counts_; }

 private:
  Map counts_;
};

}  // namespace gv
