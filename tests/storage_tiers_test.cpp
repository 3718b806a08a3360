// Tests for the object store (OCEAN), time-series DB (LAKE), tape
// archive (GLACIER) and the tier manager's retention/migration.
#include <gtest/gtest.h>

#include "storage/tiers.hpp"

namespace oda::storage {
namespace {

using common::kDay;
using common::kHour;
using common::kMinute;
using common::kSecond;

std::vector<std::uint8_t> blob(std::size_t n, std::uint8_t fill = 7) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(ObjectStoreTest, PutGetRemove) {
  ObjectStore os;
  os.put("a/1", blob(100), "a", DataClass::kBronze, 0);
  EXPECT_TRUE(os.exists("a/1"));
  EXPECT_EQ(os.get("a/1")->size(), 100u);
  EXPECT_FALSE(os.get("a/2").has_value());
  EXPECT_TRUE(os.remove("a/1"));
  EXPECT_FALSE(os.remove("a/1"));
}

TEST(ObjectStoreTest, OverwriteReplaces) {
  ObjectStore os;
  os.put("k", blob(10), "d", DataClass::kBronze, 0);
  os.put("k", blob(30), "d", DataClass::kSilver, 5);
  EXPECT_EQ(os.object_count(), 1u);
  EXPECT_EQ(os.get("k")->size(), 30u);
  EXPECT_EQ(os.bytes_by_class(DataClass::kSilver), 30u);
  EXPECT_EQ(os.bytes_by_class(DataClass::kBronze), 0u);
}

TEST(ObjectStoreTest, ListByPrefixInKeyOrder) {
  ObjectStore os;
  os.put("silver/b/part2", blob(1), "silver/b", DataClass::kSilver, 0);
  os.put("silver/a/part1", blob(1), "silver/a", DataClass::kSilver, 0);
  os.put("bronze/x", blob(1), "bronze", DataClass::kBronze, 0);
  const auto all = os.list();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, "bronze/x");
  const auto silver = os.list("silver/");
  ASSERT_EQ(silver.size(), 2u);
  EXPECT_EQ(silver[0].key, "silver/a/part1");
}

TEST(ObjectStoreTest, EvictOlderThan) {
  ObjectStore os;
  os.put("old", blob(100), "d", DataClass::kBronze, 0);
  os.put("new", blob(100), "d", DataClass::kBronze, 10 * kDay);
  const std::size_t freed = os.evict_older_than(5 * kDay, 11 * kDay);
  EXPECT_EQ(freed, 100u);
  EXPECT_FALSE(os.exists("old"));
  EXPECT_TRUE(os.exists("new"));
}

TEST(TsdbTest, AppendAndRangeQuery) {
  TimeSeriesDb db;
  SeriesKey key{"power", {{"node", "n1"}}};
  for (int i = 0; i < 100; ++i) db.append(key, i * kSecond, 100.0 + i);
  TsQuery q;
  q.metric = "power";
  q.t0 = 10 * kSecond;
  q.t1 = 20 * kSecond;
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(t.column("time").int_at(0), 10 * kSecond);
  EXPECT_DOUBLE_EQ(t.column("value").double_at(0), 110.0);
  EXPECT_EQ(t.column("node").str_at(0), "n1");
}

TEST(TsdbTest, TagFilterSelectsSeries) {
  TimeSeriesDb db;
  db.append({"power", {{"node", "n1"}}}, 0, 1.0);
  db.append({"power", {{"node", "n2"}}}, 0, 2.0);
  db.append({"temp", {{"node", "n1"}}}, 0, 3.0);
  TsQuery q;
  q.metric = "power";
  q.tag_filter = {{"node", "n2"}};
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.column("value").double_at(0), 2.0);
}

TEST(TsdbTest, DownsamplingAggregations) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  for (int i = 0; i < 60; ++i) db.append(key, i * kSecond, static_cast<double>(i));
  TsQuery q;
  q.metric = "m";
  q.step = 30 * kSecond;
  q.agg = sql::AggKind::kMax;
  const auto mx = db.query(q);
  ASSERT_EQ(mx.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(mx.column("value").double_at(0), 29.0);
  EXPECT_DOUBLE_EQ(mx.column("value").double_at(1), 59.0);

  q.agg = sql::AggKind::kMean;
  const auto mean = db.query(q);
  EXPECT_DOUBLE_EQ(mean.column("value").double_at(0), 14.5);
  q.agg = sql::AggKind::kCount;
  EXPECT_DOUBLE_EQ(db.query(q).column("value").double_at(0), 30.0);
}

TEST(TsdbTest, OutOfOrderAppendsStaySorted) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  db.append(key, 10 * kSecond, 1.0);
  db.append(key, 5 * kSecond, 2.0);  // out of order
  db.append(key, 7 * kSecond, 3.0);
  TsQuery q;
  q.metric = "m";
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column("time").int_at(0), 5 * kSecond);
  EXPECT_EQ(t.column("time").int_at(1), 7 * kSecond);
  EXPECT_EQ(t.column("time").int_at(2), 10 * kSecond);
}

TEST(TsdbTest, LatestPerSeries) {
  TimeSeriesDb db;
  db.append({"m", {{"n", "a"}}}, 0, 1.0);
  db.append({"m", {{"n", "a"}}}, 100, 5.0);
  db.append({"m", {{"n", "b"}}}, 50, 2.0);
  const auto t = db.latest("m");
  ASSERT_EQ(t.num_rows(), 2u);
  // Series in key order: a then b.
  EXPECT_DOUBLE_EQ(t.column("value").double_at(0), 5.0);
  EXPECT_DOUBLE_EQ(t.column("value").double_at(1), 2.0);
}

TEST(TsdbTest, EvictionDropsOldPointsAndEmptySeries) {
  TimeSeriesDb db;
  SeriesKey old_series{"m", {{"n", "old"}}};
  SeriesKey live{"m", {{"n", "live"}}};
  db.append(old_series, 0, 1.0);
  db.append(live, 0, 1.0);
  db.append(live, 2 * kHour, 2.0);
  const std::size_t dropped = db.evict_older_than(kHour, 2 * kHour + 1);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(db.series_count(), 1u);
  EXPECT_EQ(db.point_count(), 1u);
}

// --- step-alignment regressions (DESIGN.md §14; tsdb.hpp semantics) ---
// The range is [t0, t1) and downsample buckets are epoch-aligned
// [k*step, (k+1)*step), NOT t0-aligned. These lock the edges.

TEST(TsdbTest, RangeBoundsAreInclusiveExclusive) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  for (int i = 0; i < 10; ++i) db.append(key, i * kSecond, static_cast<double>(i));
  TsQuery q;
  q.metric = "m";
  q.t0 = 3 * kSecond;
  q.t1 = 7 * kSecond;
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 4u);  // 3,4,5,6 — the point at t1 is excluded
  EXPECT_EQ(t.column("time").int_at(0), 3 * kSecond);
  EXPECT_EQ(t.column("time").int_at(3), 6 * kSecond);
}

TEST(TsdbTest, UnalignedT0EmitsEpochAlignedFirstBucket) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  for (int i = 0; i < 60; ++i) db.append(key, i * kSecond, 1.0);
  TsQuery q;
  q.metric = "m";
  q.t0 = 15 * kSecond;  // mid-bucket
  q.t1 = 45 * kSecond;
  q.step = 30 * kSecond;
  q.agg = sql::AggKind::kCount;
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 2u);
  // First bucket is stamped at its epoch-aligned start (0), before t0,
  // but aggregates only the in-range points 15..29.
  EXPECT_EQ(t.column("time").int_at(0), 0);
  EXPECT_DOUBLE_EQ(t.column("value").double_at(0), 15.0);
  EXPECT_EQ(t.column("time").int_at(1), 30 * kSecond);
  EXPECT_DOUBLE_EQ(t.column("value").double_at(1), 15.0);
}

TEST(TsdbTest, EmptyAndInvertedRangesReturnNoRows) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  for (int i = 0; i < 10; ++i) db.append(key, i * kSecond, 1.0);
  TsQuery q;
  q.metric = "m";
  q.t0 = 5 * kSecond;
  q.t1 = 5 * kSecond;  // empty half-open range
  EXPECT_EQ(db.query(q).num_rows(), 0u);
  q.step = kSecond;  // with downsampling too
  EXPECT_EQ(db.query(q).num_rows(), 0u);
  q.t0 = 8 * kSecond;
  q.t1 = 2 * kSecond;  // inverted
  EXPECT_EQ(db.query(q).num_rows(), 0u);
  q.t0 = 100 * kSecond;  // entirely past the data
  q.t1 = 200 * kSecond;
  EXPECT_EQ(db.query(q).num_rows(), 0u);
}

TEST(TsdbTest, StepLargerThanRangeYieldsOneBucket) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  for (int i = 0; i < 10; ++i) db.append(key, i * kSecond, static_cast<double>(i));
  TsQuery q;
  q.metric = "m";
  q.t0 = 2 * kSecond;
  q.t1 = 8 * kSecond;
  q.step = kHour;  // one bucket swallows the whole range
  q.agg = sql::AggKind::kCount;
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column("time").int_at(0), 0);        // epoch-aligned start
  EXPECT_DOUBLE_EQ(t.column("value").double_at(0), 6.0);  // points 2..7 only
}

TEST(TsdbTest, OpenEndedRangeWithStepClampsInsteadOfWrapping) {
  TimeSeriesDb db;
  SeriesKey key{"m", {}};
  db.append(key, INT64_MIN + 2, 1.0);  // bottom of the timeline
  db.append(key, 0, 2.0);
  db.append(key, INT64_MAX - 2, 3.0);  // top of the timeline
  TsQuery q;
  q.metric = "m";
  q.t0 = INT64_MIN;
  q.t1 = INT64_MAX;  // open-ended
  q.step = 7 * kSecond;  // deliberately not a divisor of the extremes
  q.agg = sql::AggKind::kCount;
  const auto t = db.query(q);
  ASSERT_EQ(t.num_rows(), 3u);
  // Bucket stamps must floor (or saturate at INT64_MIN) — never exceed
  // the point's own time, never wrap positive.
  EXPECT_LE(t.column("time").int_at(0), INT64_MIN + 2);
  EXPECT_EQ(t.column("time").int_at(1), 0);
  EXPECT_LE(t.column("time").int_at(2), INT64_MAX - 2);
  EXPECT_GT(t.column("time").int_at(2), 0);
}

TEST(ArchiveTest, RecallLatencyScalesWithSize) {
  TapeArchive tape;
  tape.archive("small", blob(1 << 20), 0);
  tape.archive("big", blob(100 << 20), 0);
  const auto s = tape.recall("small");
  const auto b = tape.recall("big");
  ASSERT_TRUE(s && b);
  EXPECT_GT(b->simulated_latency, s->simulated_latency);
  // Floor = mount + seek.
  EXPECT_GE(s->simulated_latency, 65 * kSecond);
  EXPECT_EQ(tape.recall_count(), 2u);
  EXPECT_FALSE(tape.recall("missing").has_value());
}

TEST(TierManagerTest, OceanObjectsMigrateToGlacier) {
  stream::Broker broker;
  TimeSeriesDb lake;
  ObjectStore ocean;
  TapeArchive glacier;
  TierRetention ret;
  ret.ocean_age = kHour;
  TierManager tiers(broker, lake, ocean, glacier, ret);

  ocean.put("bronze/old", blob(500), "bronze", DataClass::kBronze, 0);
  ocean.put("bronze/new", blob(500), "bronze", DataClass::kBronze, 3 * kHour);
  const auto out = tiers.enforce(3 * kHour + 1);
  EXPECT_EQ(out.ocean_objects_migrated, 1u);
  EXPECT_EQ(out.ocean_bytes_migrated, 500u);
  EXPECT_FALSE(ocean.exists("bronze/old"));
  EXPECT_TRUE(glacier.exists("bronze/old"));
  EXPECT_TRUE(ocean.exists("bronze/new"));
}

TEST(TierManagerTest, ReportCoversAllFourTiers) {
  stream::Broker broker;
  TimeSeriesDb lake;
  ObjectStore ocean;
  TapeArchive glacier;
  TierManager tiers(broker, lake, ocean, glacier);
  const auto report = tiers.report();
  ASSERT_EQ(report.size(), 4u);
  EXPECT_EQ(report[0].tier, Tier::kStream);
  EXPECT_EQ(report[3].tier, Tier::kGlacier);
  EXPECT_EQ(report[3].retention, 0);  // forever
  // Access latency ordering: each colder tier is slower.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(report[i].typical_access_latency, report[i - 1].typical_access_latency);
  }
}

TEST(TierManagerTest, StreamRetentionAppliedThroughTierPolicy) {
  stream::Broker broker;
  broker.create_topic("t", {1, 256, {365 * kDay, -1}});  // generous topic default
  stream::BatchBuilder staged;
  for (int i = 0; i < 200; ++i) staged.add(i * kSecond, "", std::string(16, 'x'));
  broker.producer("t").produce_staged(staged);
  TimeSeriesDb lake;
  ObjectStore ocean;
  TapeArchive glacier;
  TierRetention ret;
  ret.stream_age = 30 * kSecond;
  TierManager tiers(broker, lake, ocean, glacier, ret);
  const auto out = tiers.enforce(200 * kSecond);
  // The tier policy overrides the topic's own default.
  EXPECT_GT(out.stream_bytes_evicted, 0u);
}

}  // namespace
}  // namespace oda::storage
