// Randomized oracle tests for the hot-path structures. Each test keeps the
// straightforward implementation a structure replaced (a priority queue of
// closures with a cancelled-id set, an unordered_set dedup window, ordered
// maps and sets keyed by UID, a sparse bucket map) and checks that the
// replacement gives the same answers on random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "actions/coordinator_log.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/uid_table.h"

namespace gv {
namespace {

// ------------------------------------------------------------ event queue

// The simulator's former queue: closures in a priority queue, cancelled
// ids in a hash set checked on every pop. run_until carries the fix that
// re-checks the limit after skipping a cancelled event.
class ReferenceQueue {
 public:
  sim::SimTime now() const { return now_; }
  std::size_t events_processed() const { return processed_; }
  bool idle() const { return events_.empty(); }

  std::uint64_t schedule(sim::SimTime delay, std::function<void()> fn) {
    const std::uint64_t id = next_seq_++;
    events_.push(Event{now_ + delay, id, std::move(fn)});
    return id;
  }
  void cancel(std::uint64_t id) { cancelled_.insert(id); }

  std::size_t run() {
    std::size_t n = 0;
    while (!events_.empty())
      if (pop_and_run()) ++n;
    return n;
  }
  std::size_t run_until(sim::SimTime limit) {
    std::size_t n = 0;
    while (!events_.empty() && events_.top().at <= limit)
      if (pop_and_run()) ++n;
    if (now_ < limit) now_ = limit;
    return n;
  }

 private:
  struct Event {
    sim::SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Order {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  bool pop_and_run() {
    Event ev = events_.top();
    events_.pop();
    if (cancelled_.erase(ev.seq) > 0) return false;
    now_ = ev.at;
    ++processed_;
    ev.fn();
    return true;
  }

  sim::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Order> events_;
  std::unordered_set<std::uint64_t> cancelled_;
};

// Drives a queue with a random mix of schedules (from outside and from
// inside events), cancels (of pending, fired and already-cancelled
// events) and run_until/run calls; returns a log of everything observable.
template <typename Queue>
std::vector<std::string> drive_queue(std::uint64_t seed) {
  Queue q;
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> ids;  // by schedule order: the queue's own ids
  std::vector<std::string> log;
  std::function<void(int)> fire;
  auto schedule = [&](int label) {
    const sim::SimTime delay = rng() % 4 == 0 ? 0 : rng() % 50;
    ids.push_back(q.schedule(delay, [&fire, label] { fire(label); }));
  };
  auto cancel_some = [&] {
    if (!ids.empty()) q.cancel(ids[rng() % ids.size()]);
  };
  fire = [&](int label) {
    log.push_back("fire " + std::to_string(label) + " at " + std::to_string(q.now()));
    if (rng() % 3 == 0) schedule(static_cast<int>(ids.size()));
    if (rng() % 4 == 0) cancel_some();
  };
  for (int step = 0; step < 400; ++step) {
    switch (rng() % 5) {
      case 0:
      case 1: schedule(static_cast<int>(ids.size())); break;
      case 2: cancel_some(); break;
      case 3: {
        const sim::SimTime limit = q.now() + rng() % 40;
        const std::size_t n = q.run_until(limit);
        log.push_back("run_until " + std::to_string(limit) + " ran " + std::to_string(n) +
                      " now " + std::to_string(q.now()) + " idle " + std::to_string(q.idle()));
        break;
      }
      default:
        log.push_back("processed " + std::to_string(q.events_processed()));
        break;
    }
  }
  const std::size_t n = q.run();
  log.push_back("run ran " + std::to_string(n) + " now " + std::to_string(q.now()) +
                " processed " + std::to_string(q.events_processed()));
  return log;
}

TEST(Oracle, EventQueueMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto want = drive_queue<ReferenceQueue>(seed);
    const auto got = drive_queue<sim::Simulator>(seed);
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

// ----------------------------------------------------------- dedup window

// The former per-sender window: an unordered_set with a full-scan prune.
class ReferenceDedup {
 public:
  bool first_delivery(std::uint64_t req_id) {
    if (req_id <= watermark_) return false;
    if (!seen_.insert(req_id).second) return false;
    constexpr std::size_t kWindow = 1024;
    if (seen_.size() > 2 * kWindow) {
      std::uint64_t max_seen = 0;
      for (std::uint64_t id : seen_) max_seen = std::max(max_seen, id);
      const std::uint64_t new_watermark = max_seen > kWindow ? max_seen - kWindow : 0;
      for (auto it = seen_.begin(); it != seen_.end();) {
        if (*it <= new_watermark)
          it = seen_.erase(it);
        else
          ++it;
      }
      watermark_ = std::max(watermark_, new_watermark);
    }
    return true;
  }

 private:
  std::uint64_t watermark_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

TEST(Oracle, DedupWindowMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    ReferenceDedup want;
    rpc::DedupWindow got;
    // Ids mostly in order with local reordering, duplicates (recent and
    // old), stragglers near the watermark and occasional jumps, well past
    // 2 x kWindow ids.
    std::uint64_t next = 1;
    std::vector<std::uint64_t> sent;
    for (int i = 0; i < 12000; ++i) {
      std::uint64_t id;
      const auto r = rng() % 100;
      if (r < 67 || sent.empty()) {
        id = next++;
      } else if (r < 82) {
        id = next + rng() % 8;  // arrives ahead of its predecessors
      } else if (r < 94) {
        id = sent[sent.size() - 1 - rng() % std::min<std::size_t>(sent.size(), 3000)];
      } else if (r < 97) {
        // A straggler around the watermark's distance from the newest id.
        const std::uint64_t back = rpc::DedupWindow::kWindow - 8 + rng() % 16;
        id = next > back + 1 ? next - back : 1;
      } else {
        next += rng() % 3000;  // a burst the receiver never saw
        id = next;
      }
      sent.push_back(id);
      ASSERT_EQ(got.first_delivery(id), want.first_delivery(id))
          << "seed " << seed << " step " << i << " id " << id;
    }
  }
}

// ------------------------------------------- outcome and terminated tables

TEST(Oracle, DenseUidTableMatchesOrderedMap) {
  std::mt19937_64 rng(7);
  DenseUidTable<2> outcomes;
  std::map<Uid, std::uint8_t> outcomes_ref;
  DenseUidTable<1> terminated;
  std::set<Uid> terminated_ref;
  auto random_uid = [&rng] {
    // Mostly dense generator output from a few seeds, some sparse ids.
    const std::uint64_t hi = 1 + rng() % 4;
    const std::uint64_t lo = rng() % 10 == 0 ? rng() : 1 + rng() % 20000;
    return Uid{hi, lo};
  };
  for (int i = 0; i < 60000; ++i) {
    const Uid uid = random_uid();
    switch (rng() % 8) {
      case 0:
      case 1: {
        const auto v = static_cast<std::uint8_t>(1 + rng() % 2);
        outcomes.set(uid, v);
        outcomes_ref[uid] = v;
        break;
      }
      case 2:
        terminated.set(uid, 1);
        terminated_ref.insert(uid);
        break;
      default: {
        auto it = outcomes_ref.find(uid);
        ASSERT_EQ(outcomes.get(uid), it == outcomes_ref.end() ? 0 : it->second);
        ASSERT_EQ(terminated.get(uid) != 0, terminated_ref.count(uid) > 0);
      }
    }
    if (i % 20000 == 19999) {  // what a crash does to both tables
      outcomes.clear();
      outcomes_ref.clear();
      terminated.clear();
      terminated_ref.clear();
    }
  }
  for (const auto& [uid, v] : outcomes_ref) ASSERT_EQ(outcomes.get(uid), v);
  for (const Uid& uid : terminated_ref) ASSERT_EQ(terminated.get(uid), 1);
}

TEST(Oracle, CoordinatorLogMatchesOrderedMapAcrossCrashes) {
  sim::Simulator sim{3};
  sim::Cluster cluster{sim};
  cluster.add_nodes(1);
  sim::Network net{sim, cluster};
  rpc::RpcFabric fabric{cluster, net};
  actions::CoordinatorLog log{fabric.endpoint(0)};
  std::map<Uid, actions::TxnOutcome> ref;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 30000; ++i) {
    const Uid txn{1 + rng() % 3, 1 + rng() % 9000};
    if (rng() % 3 == 0) {
      const bool committed = rng() % 2 == 0;
      log.record(txn, committed);
      ref[txn] = committed ? actions::TxnOutcome::Committed : actions::TxnOutcome::Aborted;
    } else {
      auto it = ref.find(txn);
      ASSERT_EQ(log.outcome(txn), it == ref.end() ? actions::TxnOutcome::Unknown : it->second);
    }
    if (i % 10000 == 9999) {  // the log is stable: a crash keeps every outcome
      cluster.node(0).crash();
      cluster.node(0).recover();
    }
  }
}

// --------------------------------------------------------------- Histogram

// The former histogram: a sparse ordered map of bucket counts.
class ReferenceHistogram {
 public:
  void record(double v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    ++buckets_[bucket_of(v)];
  }
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (const auto& [idx, n] : buckets_) {
      if (static_cast<double>(seen + n) >= target) {
        if (idx == kUnderflow) return std::min(0.0, max_);
        const double lo = std::exp(kLogBase * static_cast<double>(idx));
        const double hi = std::exp(kLogBase * static_cast<double>(idx + 1));
        const double frac =
            n == 0 ? 0.0 : (target - static_cast<double>(seen)) / static_cast<double>(n);
        const double est = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
        return std::min(max_, std::max(min_, est));
      }
      seen += n;
    }
    return max_;
  }
  void merge(const ReferenceHistogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    for (const auto& [idx, n] : other.buckets_) buckets_[idx] += n;
  }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr double kLogBase = 0.08664339756999316;
  static constexpr std::int32_t kUnderflow = INT32_MIN;
  static std::int32_t bucket_of(double v) {
    if (!(v > 0)) return kUnderflow;
    return static_cast<std::int32_t>(std::floor(std::log(v) / kLogBase));
  }

  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
};

void expect_same(const Histogram& got, const ReferenceHistogram& want, const std::string& what) {
  ASSERT_EQ(got.bucket_count(), want.bucket_count()) << what;
  for (double p : {0.0, 0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0, 37.3})
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.percentile(p)),
              std::bit_cast<std::uint64_t>(want.percentile(p)))
        << what << " p" << p;
}

TEST(Oracle, HistogramMatchesSparseMap) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto random_value = [&] {
    switch (rng() % 6) {
      case 0: return 0.0;
      case 1: return -unit(rng) * 100;
      case 2: return unit(rng) * 1e-3;       // below the first bucket
      case 3: return std::exp(unit(rng) * 60 - 20);  // many decades
      default: return 1 + unit(rng) * 5000;  // latency-like
    }
  };
  for (int round = 0; round < 50; ++round) {
    Histogram a, b;
    ReferenceHistogram ra, rb;
    const int na = static_cast<int>(rng() % 400), nb = static_cast<int>(rng() % 400);
    for (int i = 0; i < na; ++i) {
      const double v = random_value();
      a.record(v);
      ra.record(v);
    }
    for (int i = 0; i < nb; ++i) {
      const double v = random_value();
      b.record(v);
      rb.record(v);
    }
    expect_same(a, ra, "a round " + std::to_string(round));
    expect_same(b, rb, "b round " + std::to_string(round));
    a.merge(b);
    ra.merge(rb);
    expect_same(a, ra, "merged round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace gv
