// Tests for common utilities: time, RNG, stats, bytes, thread pool.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"

namespace oda::common {
namespace {

TEST(TimeTest, WindowStartFloors) {
  EXPECT_EQ(window_start(0, 15 * kSecond), 0);
  EXPECT_EQ(window_start(14 * kSecond, 15 * kSecond), 0);
  EXPECT_EQ(window_start(15 * kSecond, 15 * kSecond), 15 * kSecond);
  EXPECT_EQ(window_start(31 * kSecond, 15 * kSecond), 30 * kSecond);
  EXPECT_EQ(window_start(-1, 15 * kSecond), -15 * kSecond);  // floor, not trunc
  EXPECT_EQ(window_start(100, 0), 100);                      // degenerate bucket
}

TEST(TimeTest, Formatting) {
  EXPECT_EQ(format_time(0), "0+00:00:00.000");
  EXPECT_EQ(format_time(kDay + kHour + kMinute + kSecond + 5 * kMillisecond), "1+01:01:01.005");
  EXPECT_EQ(format_duration(15 * kSecond), "15.0s");
  EXPECT_EQ(format_duration(3 * kDay), "3.0d");
  EXPECT_EQ(format_duration(500), "500us");
}

TEST(RngTest, DeterministicAndSplitIndependent) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(42);
  Rng child1 = c.split(1);
  Rng c2(42);
  Rng child2 = c2.split(1);
  EXPECT_EQ(child1.next(), child2.next());  // stable derivation
  Rng other = c.split(2);
  EXPECT_NE(child1.next(), other.next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.uniform_index(10), 10u);
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(8);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(10);
  std::size_t low = 0, total = 20000;
  for (std::size_t i = 0; i < total; ++i) {
    if (rng.zipf(100, 1.2) < 5) ++low;
  }
  EXPECT_GT(low, total / 2);  // top 5 of 100 ranks dominate
}

TEST(StatsTest, WelfordMatchesClosedForm) {
  RunningStats s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(StatsTest, MergeEqualsSingleStream) {
  Rng rng(11);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(0, 3);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StatsTest, ExactQuantile) {
  EXPECT_EQ(exact_quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(exact_quantile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(exact_quantile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(StatsTest, MapeAndRmse) {
  EXPECT_DOUBLE_EQ(mape({100, 200}, {110, 180}), (10.0 + 10.0) / 2.0);
  EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(mape({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(mape({0.0}, {5.0}), 0.0);  // zero-truth points skipped
}

TEST(StatsTest, ByteAndCountFormatting) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(4.5 * 1024 * 1024 * 1024 * 1024.0), "4.50 TB");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1.3e6), "1.3M");
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, VarintBoundaries) {
  ByteWriter w;
  const std::uint64_t cases[] = {0, 1, 127, 128, 16383, 16384, UINT64_MAX};
  for (auto v : cases) w.varint(v);
  const std::int64_t scases[] = {0, -1, 1, INT64_MAX, INT64_MIN, -12345678};
  for (auto v : scases) w.svarint(v);
  ByteReader r(w.bytes());
  for (auto v : cases) EXPECT_EQ(r.varint(), v);
  for (auto v : scases) EXPECT_EQ(r.svarint(), v);
}

TEST(BytesTest, ReadPastEndThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u8(), std::out_of_range);
  EXPECT_THROW(r.varint(), std::out_of_range);
}

TEST(BytesTest, Fnv1aStableAndSensitive) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a("abc", 1), fnv1a("abc", 2));  // salt changes hash
}

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

}  // namespace
}  // namespace oda::common
