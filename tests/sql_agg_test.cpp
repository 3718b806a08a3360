// Tests for group-by, window aggregation and pivots — the Fig 4-b
// building blocks. Includes parameterized property checks.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "sql/agg.hpp"
#include "sql/ops.hpp"

namespace oda::sql {
namespace {

Table readings() {
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kString},
                 {"value", DataType::kFloat64}}};
  // Two nodes, values 1..4 at t=0..3 and 10..13 at t=20..23.
  for (int i = 0; i < 4; ++i) {
    t.append_row({Value(std::int64_t{i}), Value("a"), Value(1.0 + i)});
    t.append_row({Value(std::int64_t{20 + i}), Value("b"), Value(10.0 + i)});
  }
  return t;
}

TEST(GroupByTest, BasicAggregates) {
  const Table g = group_by(readings(), {"node"},
                           {AggSpec{"value", AggKind::kSum, "sum"},
                            AggSpec{"value", AggKind::kMean, "mean"},
                            AggSpec{"value", AggKind::kMin, "mn"},
                            AggSpec{"value", AggKind::kMax, "mx"},
                            AggSpec{"value", AggKind::kCount, "n"}});
  ASSERT_EQ(g.num_rows(), 2u);
  // First-seen order: node "a" first.
  EXPECT_EQ(g.column("node").str_at(0), "a");
  EXPECT_DOUBLE_EQ(g.column("sum").double_at(0), 10.0);
  EXPECT_DOUBLE_EQ(g.column("mean").double_at(0), 2.5);
  EXPECT_DOUBLE_EQ(g.column("mn").double_at(1), 10.0);
  EXPECT_DOUBLE_EQ(g.column("mx").double_at(1), 13.0);
  EXPECT_EQ(g.column("n").int_at(0), 4);
}

TEST(GroupByTest, StdFirstLastQuantiles) {
  const Table g = group_by(readings(), {"node"},
                           {AggSpec{"value", AggKind::kStd, "sd"},
                            AggSpec{"value", AggKind::kFirst, "f"},
                            AggSpec{"value", AggKind::kLast, "l"},
                            AggSpec{"value", AggKind::kP50, "med"}});
  // std of {1,2,3,4} = sqrt(5/3).
  EXPECT_NEAR(g.column("sd").double_at(0), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(g.column("f").double_at(0), 1.0);
  EXPECT_DOUBLE_EQ(g.column("l").double_at(0), 4.0);
  EXPECT_NEAR(g.column("med").double_at(0), 2.0, 1.01);  // exact_quantile index semantics
}

TEST(GroupByTest, CountDistinctAndNullsIgnored) {
  Table t{Schema{{"k", DataType::kString}, {"v", DataType::kString}}};
  t.append_row({Value("g"), Value("x")});
  t.append_row({Value("g"), Value("x")});
  t.append_row({Value("g"), Value("y")});
  t.append_row({Value("g"), Value::null()});
  const Table g = group_by(t, {"k"},
                           {AggSpec{"v", AggKind::kCountDistinct, "d"},
                            AggSpec{"v", AggKind::kCount, "n"}});
  EXPECT_EQ(g.column("d").int_at(0), 2);
  EXPECT_EQ(g.column("n").int_at(0), 3);  // nulls not counted
}

TEST(GroupByTest, CountDistinctKeysOnTypedValues) {
  // Doubles that print alike under %g are still distinct values.
  Table t{Schema{{"k", DataType::kInt64}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value(1.0000001)});
  t.append_row({Value(std::int64_t{0}), Value(1.0000002)});
  t.append_row({Value(std::int64_t{0}), Value(1.0000002)});
  const Table g = group_by(t, {"k"}, {AggSpec{"v", AggKind::kCountDistinct, "d"}});
  EXPECT_EQ(g.column("d").int_at(0), 2);
}

TEST(GroupByTest, EmptyColumnCountStar) {
  // kCount with empty column name = COUNT(*).
  const Table g = group_by(readings(), {"node"}, {AggSpec{"", AggKind::kCount, "n"}});
  EXPECT_EQ(g.column("n").int_at(0), 4);
}

TEST(GroupByTest, DefaultOutputNames) {
  const Table g = group_by(readings(), {"node"}, {AggSpec{"value", AggKind::kMean, ""}});
  EXPECT_TRUE(g.schema().contains("mean_value"));
}

TEST(GroupByTest, NullKeysGroupTogether) {
  Table t{Schema{{"k", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value::null(), Value(1.0)});
  t.append_row({Value::null(), Value(2.0)});
  t.append_row({Value("a"), Value(3.0)});
  const Table g = group_by(t, {"k"}, {AggSpec{"v", AggKind::kSum, "s"}});
  ASSERT_EQ(g.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(g.column("s").double_at(0), 3.0);  // null group first-seen
}

TEST(WindowAggregateTest, FifteenSecondWindows) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  using common::kSecond;
  for (int s = 0; s < 45; ++s) t.append_row({Value(s * kSecond), Value(1.0)});
  const std::vector<std::string> no_keys;
  const std::vector<AggSpec> aggs{{"v", AggKind::kCount, "n"}};
  const Table w = window_aggregate(t, "time", 15 * kSecond, no_keys, aggs);
  ASSERT_EQ(w.num_rows(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(w.column("n").int_at(r), 15);
    EXPECT_EQ(w.column("window_start").int_at(r) % (15 * kSecond), 0);
  }
}

TEST(WindowAggregateTest, MeanMatchesManualComputation) {
  const Table t = readings();
  const std::vector<std::string> keys{"node"};
  const std::vector<AggSpec> aggs{{"value", AggKind::kMean, "m"}};
  const Table w = window_aggregate(t, "time", 100, keys, aggs);
  // Window 0 (t in [0,100)) node a: mean(1..4)=2.5; window 0 node b: 11.5.
  ASSERT_EQ(w.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(w.column("m").double_at(0), 2.5);
  EXPECT_DOUBLE_EQ(w.column("m").double_at(1), 11.5);
}

TEST(PivotTest, LongToWideStableColumnOrder) {
  Table t{Schema{{"w", DataType::kInt64}, {"sensor", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value("z_temp"), Value(40.0)});
  t.append_row({Value(std::int64_t{0}), Value("a_power"), Value(100.0)});
  t.append_row({Value(std::int64_t{1}), Value("a_power"), Value(200.0)});
  const Table wide = pivot_wider(t, {"w"}, "sensor", "v");
  ASSERT_EQ(wide.num_rows(), 2u);
  // Sorted distinct names -> a_power before z_temp regardless of input order.
  EXPECT_EQ(wide.schema().field(1).name, "a_power");
  EXPECT_EQ(wide.schema().field(2).name, "z_temp");
  EXPECT_DOUBLE_EQ(wide.column("a_power").double_at(0), 100.0);
  EXPECT_TRUE(wide.column("z_temp").is_null(1));  // missing cell -> null
}

TEST(PivotTest, DuplicateCellsAveraged) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value("x"), Value(10.0)});
  t.append_row({Value(std::int64_t{0}), Value("x"), Value(20.0)});
  const Table wide = pivot_wider(t, {"w"}, "s", "v");
  EXPECT_DOUBLE_EQ(wide.column("x").double_at(0), 15.0);
}

TEST(PivotTest, NonStringNamesThrow) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kInt64}, {"v", DataType::kFloat64}}};
  EXPECT_THROW(pivot_wider(t, {"w"}, "s", "v"), std::invalid_argument);
}

TEST(PivotTest, LongerInvertsWider) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kString}, {"v", DataType::kFloat64}}};
  for (int w = 0; w < 3; ++w) {
    t.append_row({Value(std::int64_t{w}), Value("p"), Value(w * 1.0)});
    t.append_row({Value(std::int64_t{w}), Value("q"), Value(w * 2.0)});
  }
  const Table wide = pivot_wider(t, {"w"}, "s", "v");
  const std::vector<std::string> ids{"w"};
  const Table back = pivot_longer(wide, ids, "s", "v");
  EXPECT_EQ(back.num_rows(), 6u);
  // Re-pivot and compare a cell.
  const Table wide2 = pivot_wider(back, {"w"}, "s", "v");
  EXPECT_DOUBLE_EQ(wide2.column("q").double_at(2), 4.0);
}

// ---- property: group_by(sum) equals whole-table sum regardless of keys ----

class GroupBySumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupBySumProperty, SumsPartitionTotal) {
  common::Rng rng(GetParam());
  Table t{Schema{{"k1", DataType::kInt64}, {"k2", DataType::kString}, {"v", DataType::kFloat64}}};
  double total = 0.0;
  const std::size_t n = 200 + rng.uniform_index(800);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.normal(0.0, 100.0);
    total += v;
    t.append_row({Value(static_cast<std::int64_t>(rng.uniform_index(7))),
                  Value("g" + std::to_string(rng.uniform_index(5))), Value(v)});
  }
  const Table g = group_by(t, {"k1", "k2"}, {AggSpec{"v", AggKind::kSum, "s"}});
  double partition_total = 0.0;
  for (std::size_t r = 0; r < g.num_rows(); ++r) partition_total += g.column("s").double_at(r);
  EXPECT_NEAR(partition_total, total, 1e-6 * std::max(1.0, std::abs(total)));
  EXPECT_LE(g.num_rows(), 35u);  // at most |k1| x |k2| groups
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupBySumProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- property: window counts partition the row count ----

class WindowCountProperty : public ::testing::TestWithParam<common::Duration> {};

TEST_P(WindowCountProperty, CountsPartitionRows) {
  common::Rng rng(99);
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    t.append_row({Value(static_cast<std::int64_t>(rng.uniform_index(3600) * common::kSecond)),
                  Value(1.0)});
  }
  const std::vector<std::string> no_keys;
  const std::vector<AggSpec> aggs{{"v", AggKind::kCount, "n"}};
  const Table w = window_aggregate(t, "time", GetParam(), no_keys, aggs);
  std::int64_t sum = 0;
  for (std::size_t r = 0; r < w.num_rows(); ++r) sum += w.column("n").int_at(r);
  EXPECT_EQ(sum, static_cast<std::int64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowCountProperty,
                         ::testing::Values(common::kSecond, 15 * common::kSecond,
                                           common::kMinute, 10 * common::kMinute,
                                           common::kHour));

}  // namespace
}  // namespace oda::sql
