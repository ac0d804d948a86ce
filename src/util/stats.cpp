#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gv {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sumsq_ += x * x;
}

double Summary::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double n = static_cast<double>(samples_.size());
  const double var = (sumsq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Summary::min() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

// ------------------------------------------------------------ Histogram

namespace {
// Bucket boundaries grow by 2^(1/8) per index; index 0 covers [1, 2^(1/8)).
constexpr double kLogBase = 0.08664339756999316;  // ln(2)/8
constexpr std::int32_t kUnderflowBucket = INT32_MIN;
}  // namespace

std::int32_t Histogram::bucket_of(double v) noexcept {
  // <=0, NaN and +inf share the underflow bucket (+inf has no finite log).
  if (!(v > 0) || v == std::numeric_limits<double>::infinity()) return kUnderflowBucket;
  return static_cast<std::int32_t>(std::floor(std::log(v) / kLogBase));
}

double Histogram::bucket_lower(std::int32_t idx) noexcept {
  if (idx == kUnderflowBucket) return 0.0;
  return std::exp(kLogBase * static_cast<double>(idx));
}

void Histogram::add(std::int32_t idx, std::uint64_t n) {
  std::uint64_t* slot;
  if (idx == kUnderflowBucket) {
    slot = &underflow_;
  } else {
    if (buckets_.empty()) {
      base_ = idx;
      buckets_.assign(1, 0);
    } else if (idx < base_) {
      buckets_.insert(buckets_.begin(), static_cast<std::size_t>(base_ - idx), 0);
      base_ = idx;
    } else if (static_cast<std::size_t>(idx - base_) >= buckets_.size()) {
      buckets_.resize(static_cast<std::size_t>(idx - base_) + 1, 0);
    }
    slot = &buckets_[static_cast<std::size_t>(idx - base_)];
  }
  if (*slot == 0) ++nonempty_;
  *slot += n;
}

void Histogram::record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  add(bucket_of(v), 1);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  if (static_cast<double>(underflow_) >= target && underflow_ > 0) return std::min(0.0, max_);
  std::uint64_t seen = underflow_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= target) {
      const std::int32_t idx = base_ + static_cast<std::int32_t>(i);
      const double lo = bucket_lower(idx);
      const double hi = bucket_lower(idx + 1);
      // Interpolate by the fraction of the target rank inside this bucket.
      const double frac = (target - static_cast<double>(seen)) / static_cast<double>(n);
      const double est = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      return std::min(max_, std::max(min_, est));
    }
    seen += n;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.underflow_ > 0) add(kUnderflowBucket, other.underflow_);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i)
    if (other.buckets_[i] > 0) add(other.base_ + static_cast<std::int32_t>(i), other.buckets_[i]);
}

std::uint64_t Counters::get(std::string_view name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace gv
