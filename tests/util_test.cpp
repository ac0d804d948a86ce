// Unit tests for the util module: Buffer round-trips, Uid identity,
// Result semantics, RNG determinism, Summary statistics.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "util/buffer.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/uid.h"

namespace gv {
namespace {

// ---------------------------------------------------------------- Buffer

TEST(Buffer, RoundTripScalars) {
  Buffer b;
  b.pack_u8(0xAB)
      .pack_u32(0xDEADBEEF)
      .pack_u64(0x0123456789ABCDEFull)
      .pack_i64(-42)
      .pack_bool(true)
      .pack_double(3.25);
  EXPECT_EQ(b.unpack_u8().value(), 0xAB);
  EXPECT_EQ(b.unpack_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(b.unpack_u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(b.unpack_i64().value(), -42);
  EXPECT_TRUE(b.unpack_bool().value());
  EXPECT_DOUBLE_EQ(b.unpack_double().value(), 3.25);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Buffer, RoundTripStringsAndUids) {
  Buffer b;
  const Uid u{7, 9};
  b.pack_string("hello world").pack_string("").pack_uid(u);
  EXPECT_EQ(b.unpack_string().value(), "hello world");
  EXPECT_EQ(b.unpack_string().value(), "");
  EXPECT_EQ(b.unpack_uid().value(), u);
}

TEST(Buffer, RoundTripNestedBuffers) {
  Buffer inner;
  inner.pack_u32(123).pack_string("inner");
  Buffer outer;
  outer.pack_string("head").pack_bytes(inner).pack_u32(999);
  EXPECT_EQ(outer.unpack_string().value(), "head");
  Buffer got = outer.unpack_bytes().value();
  EXPECT_EQ(outer.unpack_u32().value(), 999u);
  EXPECT_EQ(got.unpack_u32().value(), 123u);
  EXPECT_EQ(got.unpack_string().value(), "inner");
}

TEST(Buffer, RoundTripVectors) {
  Buffer b;
  std::vector<std::uint32_t> xs{1, 2, 3, 5, 8};
  std::vector<Uid> us{Uid{1, 1}, Uid{2, 2}};
  b.pack_u32_vector(xs).pack_uid_vector(us);
  EXPECT_EQ(b.unpack_u32_vector().value(), xs);
  EXPECT_EQ(b.unpack_uid_vector().value(), us);
}

TEST(Buffer, UnderflowIsBadRequestNotUB) {
  Buffer b;
  b.pack_u32(1);
  EXPECT_TRUE(b.unpack_u64().error() == Err::BadRequest);
}

TEST(Buffer, TruncatedStringDetected) {
  Buffer b;
  b.pack_u32(1000);  // claims a 1000-byte string, provides none
  EXPECT_EQ(b.unpack_string().error(), Err::BadRequest);
}

// A corrupt count must yield BadRequest, not size an allocation: a
// 4-byte message claiming 2^30 elements used to abort with bad_alloc.
TEST(Buffer, OversizedU32VectorCountIsBadRequest) {
  Buffer b;
  b.pack_u32(1u << 30);
  auto r = b.unpack_u32_vector();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::BadRequest);
  // One element short of the claimed count is refused the same way.
  Buffer c;
  c.pack_u32(2).pack_u32(7);
  EXPECT_EQ(c.unpack_u32_vector().error(), Err::BadRequest);
}

TEST(Buffer, OversizedUidVectorCountIsBadRequest) {
  Buffer b;
  b.pack_u32(1u << 30);
  auto r = b.unpack_uid_vector();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::BadRequest);
  Buffer c;
  c.pack_u32(2).pack_uid(Uid{1, 2});
  EXPECT_EQ(c.unpack_uid_vector().error(), Err::BadRequest);
}

TEST(Buffer, ChecksumDiscriminates) {
  Buffer a, b;
  a.pack_string("state-1");
  b.pack_string("state-2");
  EXPECT_NE(a.checksum(), b.checksum());
  Buffer c;
  c.pack_string("state-1");
  EXPECT_EQ(a.checksum(), c.checksum());
}

TEST(Buffer, RewindRereads) {
  Buffer b;
  b.pack_u32(5);
  EXPECT_EQ(b.unpack_u32().value(), 5u);
  b.rewind();
  EXPECT_EQ(b.unpack_u32().value(), 5u);
}

// ------------------------------------------------------------------ Uid

// Appending grows a buffer geometrically: packing n values reallocates
// O(log n) times, not once per value.
TEST(Buffer, PackingGrowsGeometrically) {
  constexpr int kValues = 10000;
  const std::vector<std::function<void(Buffer&)>> packs = {
      [](Buffer& b) { b.pack_string("a value"); },
      [](Buffer& b) { b.pack_bytes(Buffer{std::vector<std::uint8_t>(7, 1)}); },
      [](Buffer& b) { b.pack_u32_vector({1, 2}); },
      [](Buffer& b) { b.pack_uid_vector({Uid{1, 2}}); },
  };
  for (std::size_t which = 0; which < packs.size(); ++which) {
    Buffer b;
    int growths = 0;
    for (int i = 0; i < kValues; ++i) {
      const std::size_t before = b.capacity();
      packs[which](b);
      growths += b.capacity() != before;
    }
    EXPECT_LE(growths, 40) << "pack call " << which;
  }
}

TEST(Uid, OrderingAndEquality) {
  Uid a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (Uid{1, 2}));
  EXPECT_NE(a, b);
  EXPECT_TRUE(Uid{}.nil());
  EXPECT_FALSE(a.nil());
}

TEST(Uid, GeneratorIsDeterministicPerSeed) {
  UidGenerator g1{42}, g2{42};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(g1.next(), g2.next());
  UidGenerator g3{43};
  EXPECT_NE(g1.next(), g3.next());
}

TEST(Uid, HashSpreads) {
  std::hash<Uid> h;
  EXPECT_NE(h(Uid{1, 1}), h(Uid{1, 2}));
  EXPECT_NE(h(Uid{1, 1}), h(Uid{2, 1}));
}

// --------------------------------------------------------------- Result

TEST(Result, ValueAndError) {
  Result<int> r = 5;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  Result<int> e = Err::Timeout;
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error(), Err::Timeout);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Result, StatusVoid) {
  Status s = ok_status();
  EXPECT_TRUE(s.ok());
  Status f = Err::Aborted;
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), Err::Aborted);
}

TEST(Result, ErrToStringCoversAllCodes) {
  EXPECT_STREQ(to_string(Err::Timeout), "Timeout");
  EXPECT_STREQ(to_string(Err::NotQuiescent), "NotQuiescent");
  EXPECT_STREQ(to_string(Err::NoReplicas), "NoReplicas");
}

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicPerSeed) {
  Rng a{7}, b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, Uniform01InRange) {
  Rng r{11};
  for (int i = 0; i < 1000; ++i) {
    double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r{13};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng r{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesP) {
  Rng r{19};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r{23};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{29};
  Rng child = a.fork();
  // Child and parent should diverge immediately.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------- Stats

TEST(Summary, MeanStddevMinMax) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 0.01);
  EXPECT_NEAR(s.percentile(100), 100.0, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Counters, IncrementAndRead) {
  Counters c;
  c.inc("a");
  c.inc("a", 4);
  c.inc("b");
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("b"), 1u);
  EXPECT_EQ(c.get("missing"), 0u);
  c.reset();
  EXPECT_EQ(c.get("a"), 0u);
}

}  // namespace
}  // namespace gv
