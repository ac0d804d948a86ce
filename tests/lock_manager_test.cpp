// Tests for the lock manager, with emphasis on the paper's sec 4.2.1
// type-specific concurrency control: the EXCLUDE-WRITE lock that shares
// with readers where a plain WRITE promotion would be refused.
#include <gtest/gtest.h>

#include <tuple>

#include "actions/lock_manager.h"
#include "sim/simulator.h"

namespace gv::actions {
namespace {

using sim::kMillisecond;

// The resources the tests lock, one object each.
const LockKey kR{Uid{50, 1}}, kX{Uid{50, 2}}, kY{Uid{50, 3}}, kZ{Uid{50, 4}}, kP{Uid{50, 5}},
    kQ{Uid{50, 6}}, kStA{Uid{50, 7}, kStPart}, kK1{Uid{50, 9}}, kK2{Uid{50, 8}},
    kP1{Uid{50, 10}}, kP2{Uid{50, 11}}, kC0{Uid{50, 12}}, kC1{Uid{50, 13}};

struct Fixture {
  sim::Simulator sim{7};
  LockManager lm{sim};
  Uid a{1, 1}, b{1, 2}, c{1, 3};

  // Run an acquire to completion synchronously (no contention expected).
  Status acquire_now(const LockKey& res, LockMode m, const Uid& owner) {
    Status out = Err::Timeout;
    sim.spawn([](LockManager& lm, LockKey res, LockMode m, Uid owner,
                 Status& out) -> sim::Task<> {
      out = co_await lm.acquire(res, m, owner);
    }(lm, res, m, owner, out));
    sim.run();
    return out;
  }
  // A promotion is an acquire by a holder of a weaker mode.
  Status promote_now(const LockKey& res, LockMode m, const Uid& owner) {
    return acquire_now(res, m, owner);
  }
};

// ----------------------------------------------- compatibility (property)

// The full matrix of sec 4.2.1: (held, requested) -> compatible.
class LockCompatibility
    : public ::testing::TestWithParam<std::tuple<LockMode, LockMode, bool>> {};

TEST_P(LockCompatibility, MatrixEntry) {
  auto [held, requested, expected] = GetParam();
  EXPECT_EQ(compatible(held, requested), expected)
      << to_string(held) << " vs " << to_string(requested);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LockCompatibility,
    ::testing::Values(
        std::make_tuple(LockMode::Read, LockMode::Read, true),
        std::make_tuple(LockMode::Read, LockMode::Write, false),
        std::make_tuple(LockMode::Read, LockMode::ExcludeWrite, true),  // the paper's point
        std::make_tuple(LockMode::Write, LockMode::Read, false),
        std::make_tuple(LockMode::Write, LockMode::Write, false),
        std::make_tuple(LockMode::Write, LockMode::ExcludeWrite, false),
        std::make_tuple(LockMode::ExcludeWrite, LockMode::Read, true),
        std::make_tuple(LockMode::ExcludeWrite, LockMode::Write, false),
        std::make_tuple(LockMode::ExcludeWrite, LockMode::ExcludeWrite, false)));

// ------------------------------------------------------------- behaviour

TEST(LockManager, SharedReaders) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.a).ok());
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.b).ok());
  EXPECT_EQ(f.lm.holder_count(kR), 2u);
}

TEST(LockManager, WriterExcludesReader) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Write, f.a).ok());
  // b waits, then times out.
  EXPECT_EQ(f.acquire_now(kR, LockMode::Read, f.b).error(), Err::LockRefused);
}

TEST(LockManager, WaiterGrantedOnRelease) {
  Fixture f;
  Status got = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& got) -> sim::Task<> {
    (void)co_await f.lm.acquire(kR, LockMode::Write, f.a);
    got = co_await f.lm.acquire(kR, LockMode::Write, f.b, 200 * kMillisecond);
  }(f, got));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.a); });
  f.sim.run();
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(f.lm.holds(kR, f.b, LockMode::Write));
}

TEST(LockManager, FifoFairnessWriterNotStarved) {
  Fixture f;
  std::vector<int> grant_order;
  f.sim.spawn([](Fixture& f, std::vector<int>& order) -> sim::Task<> {
    (void)co_await f.lm.acquire(kR, LockMode::Read, f.a);  // reader holds
    co_return;
    (void)order;
  }(f, grant_order));
  f.sim.run();
  // Writer queues first, then another reader: the reader must NOT jump
  // the queue even though it is compatible with the holder.
  Status writer = Err::Timeout, reader = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s, std::vector<int>& order) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Write, f.b, 500 * kMillisecond);
    order.push_back(1);
  }(f, writer, grant_order));
  f.sim.spawn([](Fixture& f, Status& s, std::vector<int>& order) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Read, f.c, 500 * kMillisecond);
    order.push_back(2);
  }(f, reader, grant_order));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.a); });
  // The writer must release before the queued reader can be granted.
  f.sim.schedule(50 * kMillisecond, [&] { f.lm.release_all(f.b); });
  f.sim.run();
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(grant_order, (std::vector<int>{1, 2}));
}

TEST(LockManager, Reentrant) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Write, f.a).ok());
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.a).ok());  // weaker: no-op
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Write, f.a).ok());
  EXPECT_EQ(f.lm.holder_count(kR), 1u);
}

// The crux of sec 4.2.1: with the object shared by several readers, a
// read->WRITE promotion fails but a read->EXCLUDE-WRITE promotion
// succeeds.
TEST(LockManager, PromotionToWriteRefusedUnderSharing) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kStA, LockMode::Read, f.a).ok());
  EXPECT_TRUE(f.acquire_now(kStA, LockMode::Read, f.b).ok());
  EXPECT_EQ(f.promote_now(kStA, LockMode::Write, f.a).error(), Err::LockRefused);
}

TEST(LockManager, PromotionToExcludeWriteSharesWithReaders) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kStA, LockMode::Read, f.a).ok());
  EXPECT_TRUE(f.acquire_now(kStA, LockMode::Read, f.b).ok());
  EXPECT_TRUE(f.promote_now(kStA, LockMode::ExcludeWrite, f.a).ok());
  EXPECT_TRUE(f.lm.holds(kStA, f.a, LockMode::ExcludeWrite));
  // The other reader is untouched.
  EXPECT_TRUE(f.lm.holds(kStA, f.b, LockMode::Read));
  // But a second committer cannot also hold exclude-write.
  EXPECT_EQ(f.promote_now(kStA, LockMode::ExcludeWrite, f.b).error(), Err::LockRefused);
}

TEST(LockManager, ExcludeWriteBlocksPlainWrite) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::ExcludeWrite, f.a).ok());
  EXPECT_EQ(f.acquire_now(kR, LockMode::Write, f.b).error(), Err::LockRefused);
  // New readers may still join.
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.c).ok());
}

TEST(LockManager, PromotionWaitsForReaderToLeave) {
  Fixture f;
  Status promo = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& promo) -> sim::Task<> {
    (void)co_await f.lm.acquire(kR, LockMode::Read, f.a);
    (void)co_await f.lm.acquire(kR, LockMode::Read, f.b);
    promo = co_await f.lm.acquire(kR, LockMode::Write, f.a, 300 * kMillisecond);
  }(f, promo));
  f.sim.schedule(20 * kMillisecond, [&] { f.lm.release_all(f.b); });
  f.sim.run();
  EXPECT_TRUE(promo.ok());
  EXPECT_TRUE(f.lm.holds(kR, f.a, LockMode::Write));
}

TEST(LockManager, TransferToParentMergesModes) {
  Fixture f;
  Uid parent{9, 1}, child{9, 2};
  EXPECT_TRUE(f.acquire_now(kX, LockMode::Read, parent).ok());
  EXPECT_TRUE(f.acquire_now(kY, LockMode::Write, child).ok());
  // Child also promoted x beyond the parent's mode.
  EXPECT_TRUE(f.acquire_now(kZ, LockMode::ExcludeWrite, child).ok());
  f.lm.transfer(child, parent);
  EXPECT_TRUE(f.lm.holds(kY, parent, LockMode::Write));
  EXPECT_TRUE(f.lm.holds(kZ, parent, LockMode::ExcludeWrite));
  EXPECT_FALSE(f.lm.holds(kY, child, LockMode::Read));
  EXPECT_EQ(f.lm.holder_count(kX), 1u);
}

TEST(LockManager, ReleaseAllWakesWaitersAcrossResources) {
  Fixture f;
  Status s1 = Err::Timeout, s2 = Err::Timeout;
  f.sim.spawn([](Fixture& f, Status& s1, Status& s2) -> sim::Task<> {
    (void)co_await f.lm.acquire(kP, LockMode::Write, f.a);
    (void)co_await f.lm.acquire(kQ, LockMode::Write, f.a);
    co_await f.sim.sleep(0);
    s1 = co_await f.lm.acquire(kP, LockMode::Write, f.b, 300 * kMillisecond);
    co_return;
    (void)s2;
  }(f, s1, s2));
  f.sim.spawn([](Fixture& f, Status& s2) -> sim::Task<> {
    co_await f.sim.sleep(1 * kMillisecond);
    s2 = co_await f.lm.acquire(kQ, LockMode::Write, f.c, 300 * kMillisecond);
  }(f, s2));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.a); });
  f.sim.run();
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
}

// Ending an action ends its waits (ROADMAP item 15): a request queued by
// an action that has since ended resolves with Aborted and is never
// granted, so the lock is left to no one.
TEST(LockManager, ReleaseAllEndsTheOwnersQueuedRequests) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Write, f.a).ok());
  Status got = Err::None;
  f.sim.spawn([](Fixture& f, Status& got) -> sim::Task<> {
    got = co_await f.lm.acquire(kR, LockMode::Write, f.b, 100 * kMillisecond);
  }(f, got));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.b); });
  f.sim.schedule(20 * kMillisecond, [&] { f.lm.release_all(f.a); });
  f.sim.run();
  EXPECT_EQ(got.error(), Err::Aborted);
  EXPECT_FALSE(f.lm.holds(kR, f.b, LockMode::Read));
  EXPECT_EQ(f.lm.holder_count(kR), 0u);
  EXPECT_EQ(f.lm.table_depth(), 0u);
}

// A cancelled request at the head of the queue no longer blocks the
// compatible request behind it.
TEST(LockManager, CancelledRequestUnblocksTheQueueBehindIt) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.a).ok());
  Status writer = Err::None, reader = Err::None;
  sim::SimTime reader_at = 0;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Write, f.b, 300 * kMillisecond);
  }(f, writer));
  f.sim.spawn([](Fixture& f, Status& s, sim::SimTime& at) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Read, f.c, 300 * kMillisecond);
    at = f.sim.now();
  }(f, reader, reader_at));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.b); });
  f.sim.run();
  EXPECT_EQ(writer.error(), Err::Aborted);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader_at, 10 * kMillisecond);
  EXPECT_TRUE(f.lm.holds(kR, f.c, LockMode::Read));
}

// A request that times out leaves the queue like a cancelled one: the
// compatible reader behind the refused writer is granted at once, not at
// the next release or at its own timeout.
TEST(LockManager, TimedOutRequestUnblocksTheQueueBehindIt) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Read, f.a).ok());
  Status writer = Err::None, reader = Err::None;
  sim::SimTime reader_at = 0;
  f.sim.spawn([](Fixture& f, Status& s) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Write, f.b, 10 * kMillisecond);
  }(f, writer));
  f.sim.spawn([](Fixture& f, Status& s, sim::SimTime& at) -> sim::Task<> {
    s = co_await f.lm.acquire(kR, LockMode::Read, f.c, 100 * kMillisecond);
    at = f.sim.now();
  }(f, reader, reader_at));
  f.sim.run();
  EXPECT_EQ(writer.error(), Err::LockRefused);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader_at, 10 * kMillisecond);
  EXPECT_TRUE(f.lm.holds(kR, f.c, LockMode::Read));
}

// A waiter that times out in the middle of the queue leaves it without
// reordering the rest: the requests ahead of and behind it are granted
// in the order they asked, and the key leaves the table once released.
TEST(LockManager, MidQueueTimeoutKeepsTheOthersInFifoOrder) {
  Fixture f;
  const Uid d{1, 4};
  EXPECT_TRUE(f.acquire_now(kR, LockMode::Write, f.a).ok());
  std::vector<Uid> granted;
  Status middle = Err::None;
  auto waiter = [](Fixture& f, Uid owner, sim::SimTime timeout, std::vector<Uid>& granted,
                   Status& out) -> sim::Task<> {
    out = co_await f.lm.acquire(kR, LockMode::Write, owner, timeout);
    if (!out.ok()) co_return;
    granted.push_back(owner);
    co_await f.sim.sleep(5 * kMillisecond);
    f.lm.release_all(owner);
  };
  Status first = Err::None, last = Err::None;
  f.sim.spawn(waiter(f, f.b, 300 * kMillisecond, granted, first));
  f.sim.spawn(waiter(f, f.c, 10 * kMillisecond, granted, middle));
  f.sim.spawn(waiter(f, d, 300 * kMillisecond, granted, last));
  f.sim.schedule(20 * kMillisecond, [&] { f.lm.release_all(f.a); });
  f.sim.run();
  EXPECT_EQ(middle.error(), Err::LockRefused);
  EXPECT_TRUE(first.ok());
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(granted, (std::vector<Uid>{f.b, d}));
  EXPECT_EQ(f.lm.table_depth(), 0u);
}

// Wait on `res` for `owner` and record the resource once granted.
sim::Task<> wait_for(Fixture& f, LockKey res, Uid owner, std::vector<LockKey>& resumed) {
  Status s = co_await f.lm.acquire(res, LockMode::Write, owner, 300 * kMillisecond);
  if (s.ok()) resumed.push_back(res);
}

// release_all releases in the owner's acquisition order, whatever the
// table's layout: the waiters resume in that order. Both a key-ordered
// table and a hash table walk kK2 first: it is the smaller key and the
// later insertion.
TEST(LockManager, ReleaseAllResumesWaitersInAcquisitionOrder) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kK1, LockMode::Write, f.a).ok());
  EXPECT_TRUE(f.acquire_now(kK2, LockMode::Write, f.a).ok());
  std::vector<LockKey> resumed;
  f.sim.spawn(wait_for(f, kK2, f.c, resumed));
  f.sim.spawn(wait_for(f, kK1, f.b, resumed));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(f.a); });
  f.sim.run();
  EXPECT_EQ(resumed, (std::vector<LockKey>{kK1, kK2}));
}

// transfer keeps the parent's place for a resource both hold and puts
// the child's other resources after the parent's, in the child's order.
TEST(LockManager, TransferKeepsTheParentsOrderThenTheChilds) {
  Fixture f;
  const Uid parent{9, 1}, child{9, 2};
  EXPECT_TRUE(f.acquire_now(kP1, LockMode::Read, parent).ok());
  EXPECT_TRUE(f.acquire_now(kP2, LockMode::Read, parent).ok());
  Status shared = Err::None;
  f.sim.spawn([](Fixture& f, Uid parent, Uid child, Status& shared) -> sim::Task<> {
    std::vector<Uid> family{parent};
    (void)co_await f.lm.acquire(kC1, LockMode::Write, child);
    shared = co_await f.lm.acquire(kP2, LockMode::Write, child, LockManager::kDefaultTimeout,
                                   family);
    (void)co_await f.lm.acquire(kC0, LockMode::Write, child);
  }(f, parent, child, shared));
  f.sim.run();
  ASSERT_TRUE(shared.ok());
  f.lm.transfer(child, parent);
  EXPECT_TRUE(f.lm.holds(kP2, parent, LockMode::Write));
  EXPECT_EQ(f.lm.holder_count(kP2), 1u);
  std::vector<LockKey> resumed;
  const std::vector<LockKey> order{kC0, kC1, kP2, kP1};
  for (std::size_t i = 0; i < order.size(); ++i)
    f.sim.spawn(wait_for(f, order[i], Uid{8, i + 1}, resumed));
  f.sim.schedule(10 * kMillisecond, [&] { f.lm.release_all(parent); });
  f.sim.run();
  EXPECT_EQ(resumed, (std::vector<LockKey>{kP1, kP2, kC1, kC0}));
}

TEST(LockManager, TimeoutResolvesDeadlock) {
  // Classic AB-BA deadlock: both time out eventually (no hang).
  Fixture f;
  Status sa = Err::None, sb = Err::None;
  f.sim.spawn([](Fixture& f, Status& sa) -> sim::Task<> {
    (void)co_await f.lm.acquire(kX, LockMode::Write, f.a);
    co_await f.sim.sleep(1 * kMillisecond);
    sa = co_await f.lm.acquire(kY, LockMode::Write, f.a, 50 * kMillisecond);
  }(f, sa));
  f.sim.spawn([](Fixture& f, Status& sb) -> sim::Task<> {
    (void)co_await f.lm.acquire(kY, LockMode::Write, f.b);
    co_await f.sim.sleep(1 * kMillisecond);
    sb = co_await f.lm.acquire(kX, LockMode::Write, f.b, 50 * kMillisecond);
  }(f, sb));
  f.sim.run();
  // At least one must have been refused; with equal timeouts, both are.
  EXPECT_EQ(sa.error(), Err::LockRefused);
  EXPECT_EQ(sb.error(), Err::LockRefused);
}

TEST(LockManager, HoldsChecksStrength) {
  Fixture f;
  EXPECT_TRUE(f.acquire_now(kR, LockMode::ExcludeWrite, f.a).ok());
  EXPECT_TRUE(f.lm.holds(kR, f.a, LockMode::Read));          // EW >= Read
  EXPECT_TRUE(f.lm.holds(kR, f.a, LockMode::ExcludeWrite));
  EXPECT_FALSE(f.lm.holds(kR, f.a, LockMode::Write));        // EW < Write
}

}  // namespace
}  // namespace gv::actions
