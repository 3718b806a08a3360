// Tests for the collection-path model (Sec IV-B) plus parameterized
// pipeline-equivalence sweeps (batch size must never change results).
#include <gtest/gtest.h>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/collection.hpp"

namespace oda {
namespace {

using common::kMillisecond;
using common::kSecond;

engine::OperatorFactory windowed_sum_10s() {
  return [] {
    return std::make_unique<pipeline::WindowAggOp>(
        "w", "time", 10 * kSecond, std::vector<std::string>{},
        std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
  };
}

TEST(CollectionTest, PathTradeoffsHold) {
  const std::size_t sensors = 24;
  const auto inband = telemetry::collection_properties(telemetry::CollectionPath::kInBand, sensors);
  const auto oob = telemetry::collection_properties(telemetry::CollectionPath::kOutOfBand, sensors);
  const auto perjob =
      telemetry::collection_properties(telemetry::CollectionPath::kPerJobInstr, sensors);

  // In-band: fastest but taxes the node and dies with it.
  EXPECT_LT(inband.min_period, oob.min_period);
  EXPECT_GT(inband.node_overhead_fraction, 0.0);
  EXPECT_FALSE(inband.survives_node_crash);
  EXPECT_TRUE(inband.sees_app_context);
  // Out-of-band: free, crash-proof, blind to apps.
  EXPECT_DOUBLE_EQ(oob.node_overhead_fraction, 0.0);
  EXPECT_TRUE(oob.survives_node_crash);
  EXPECT_FALSE(oob.sees_app_context);
  // Per-job: perfect attribution, no loss.
  EXPECT_TRUE(perjob.sees_app_context);
  EXPECT_DOUBLE_EQ(perjob.loss_rate, 0.0);
}

TEST(CollectionTest, OverheadScalesWithRateAndFloorsAtMinPeriod) {
  const auto spec = telemetry::compass_spec(0.01);
  const auto fast = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, 100 * kMillisecond);
  const auto slow = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, 10 * kSecond);
  EXPECT_NEAR(fast.node_hours_lost_per_day / slow.node_hours_lost_per_day, 100.0, 1.0);
  // Requesting faster than the path supports clamps to min_period.
  const auto too_fast = telemetry::plan_cost(spec, telemetry::CollectionPath::kOutOfBand, kMillisecond);
  const auto at_floor = telemetry::plan_cost(spec, telemetry::CollectionPath::kOutOfBand, kSecond);
  EXPECT_DOUBLE_EQ(too_fast.delivered_samples_per_day, at_floor.delivered_samples_per_day);
}

TEST(CollectionTest, DeliveredSamplesAccountForLoss) {
  const auto spec = telemetry::mountain_spec(0.004);
  const auto cost = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, kSecond);
  const double gross = static_cast<double>(spec.total_sensors()) * 86400.0;
  EXPECT_LT(cost.delivered_samples_per_day, gross);
  EXPECT_NEAR(cost.delivered_samples_per_day, gross * cost.delivered_fraction, 1.0);
}

// ---- the collector's push path ------------------------------------------

/// Stage one step's worth of packets — `nodes` packets at time t — into
/// the channel's buffer for `topic`.
void stage_step(telemetry::CollectionChannel& channel, const std::string& topic,
                common::TimePoint t, std::uint32_t nodes) {
  for (std::uint32_t n = 0; n < nodes; ++n) {
    telemetry::TelemetryPacket pkt;
    pkt.timestamp = t;
    pkt.node_id = n;
    pkt.readings = {{telemetry::SensorId{telemetry::ComponentKind::kNode, 0,
                                         telemetry::SensorKind::kPowerW}
                         .encode(),
                     100.0 + n}};
    telemetry::encode_packet_into(pkt, channel.stage(topic));
  }
}

TEST(CollectionChannelTest, FailedFlushDropsExactlyThatStep) {
  stream::Broker broker;
  stream::Topic& topic = broker.create_topic("power", stream::TopicConfig{}.with_partitions(4));
  chaos::RetryPolicy rp;
  rp.max_attempts = 3;
  telemetry::CollectionChannel channel(broker, rp);
  constexpr std::uint32_t kNodes = 40;
  const auto landed = [&topic] {
    std::int64_t n = 0;
    for (std::size_t p = 0; p < topic.num_partitions(); ++p) n += topic.partition(p).end_offset();
    return n;
  };

  stage_step(channel, "power", 0, kNodes);
  EXPECT_EQ(channel.flush(), kNodes);
  const telemetry::ChannelStats before = channel.stats();
  EXPECT_EQ(before.delivered_records, kNodes);
  EXPECT_EQ(before.delivered_bytes, topic.stats().produced_bytes);
  EXPECT_EQ(landed(), kNodes);

  // The broker rejects every attempt of the second step's flush.
  stage_step(channel, "power", 15 * kSecond, kNodes);
  const std::size_t step_bytes = channel.stage("power").wire_bytes();
  chaos::FaultPlan plan(7);
  plan.configure("stream.produce", {.transient_p = 1.0});
  {
    chaos::ScopedFaultPlan scoped(plan);
    EXPECT_EQ(channel.flush(), 0u);
  }
  EXPECT_EQ(plan.site_stats("stream.produce").visits, rp.max_attempts);  // one flush, retried
  const telemetry::ChannelStats dropped = channel.stats();
  EXPECT_EQ(dropped.dropped_records, kNodes);
  EXPECT_EQ(dropped.dropped_bytes, step_bytes);
  EXPECT_EQ(dropped.delivered_records, before.delivered_records);
  EXPECT_EQ(dropped.retries, before.retries + rp.max_attempts - 1);
  EXPECT_EQ(landed(), kNodes);                   // none of the step's records landed
  EXPECT_TRUE(channel.stage("power").empty());  // and none waits for the next flush

  // The next step delivers, with offsets dense after the first step's.
  stage_step(channel, "power", 30 * kSecond, kNodes);
  EXPECT_EQ(channel.flush(), kNodes);
  EXPECT_EQ(channel.stats().delivered_records, 2 * kNodes);
  EXPECT_EQ(channel.stats().dropped_records, kNodes);
  std::size_t seen = 0;
  for (std::size_t p = 0; p < topic.num_partitions(); ++p) {
    stream::FetchView view;
    topic.partition(p).fetch_view(0, 2 * kNodes, view);
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view[i].offset, static_cast<std::int64_t>(i)) << "partition " << p;
      EXPECT_NE(view[i].timestamp, 15 * kSecond);  // the dropped step never shows up
    }
    seen += view.size();
  }
  EXPECT_EQ(seen, 2 * kNodes);
}

// ---- parameterized pipeline equivalence -------------------------------
// The same input through the same windowed query must produce identical
// results regardless of micro-batch size — batch boundaries are an
// execution detail, not semantics.

class BatchSizeInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeInvariance, WindowedSumsIndependentOfBatching) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  stream::BatchBuilder staged;
  common::Rng rng(5);
  common::TimePoint t = 0;
  sql::Table all{sql::Schema{{"time", sql::DataType::kInt64}, {"v", sql::DataType::kFloat64}}};
  for (int i = 0; i < 300; ++i) {
    t += static_cast<common::TimePoint>(rng.uniform_index(2)) * kSecond;
    const double v = rng.uniform(0, 10);
    all.append_row({sql::Value(t), sql::Value(v)});
    sql::Table row{all.schema()};
    row.append_row({sql::Value(t), sql::Value(v)});
    const auto blob = storage::write_columnar(row);
    staged.add(t, "", std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
  }
  broker.producer("in").produce_staged(staged);

  pipeline::QueryConfig qc;
  qc.max_records_per_batch = GetParam();
  qc.name = "equiv";
  engine::Query q(qc,
                  engine::SourceSpec{&broker, "in", "g" + std::to_string(GetParam()),
                                     pipeline::decode_columnar_records},
                  /*workers=*/1);
  q.add_operator(windowed_sum_10s());
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  q.run_until_caught_up();
  q.finalize();

  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kSum, "s"}};
  const sql::Table expected = sql::sort_by(
      sql::window_aggregate(all, "time", 10 * kSecond, no_keys, aggs), {{"window_start", true}});
  const sql::Table got = sql::sort_by(out->table(), {{"window_start", true}});
  ASSERT_EQ(got.num_rows(), expected.num_rows());
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.column("window_start").int_at(r), expected.column("window_start").int_at(r));
    EXPECT_NEAR(got.column("s").double_at(r), expected.column("s").double_at(r), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchSizeInvariance,
                         ::testing::Values(1, 3, 7, 17, 50, 300, 1000));

// ---- parameterized fault-position invariance -----------------------------
// An injected fault at any batch index must never change the final sums.

class FaultPositionInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultPositionInvariance, RecoveryPreservesExactlyOnce) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  stream::BatchBuilder staged;
  for (int i = 0; i < 120; ++i) {
    sql::Table row{sql::Schema{{"time", sql::DataType::kInt64}, {"v", sql::DataType::kFloat64}}};
    row.append_row({sql::Value(static_cast<common::TimePoint>(i) * kSecond), sql::Value(1.0)});
    const auto blob = storage::write_columnar(row);
    staged.add(i * kSecond, "",
               std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
  }
  broker.producer("in").produce_staged(staged);
  pipeline::QueryConfig qc;
  qc.max_records_per_batch = 10;
  qc.name = "faulty";
  engine::Query q(qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
                  /*workers=*/1);
  q.add_operator(windowed_sum_10s());
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  // The chaos pipeline.batch seam fails batch GetParam() (0-based) once.
  chaos::FaultPlan plan(1);
  plan.configure("pipeline.batch", {.skip_first = GetParam(), .every_nth = 1, .max_faults = 1});
  {
    chaos::ScopedFaultPlan scoped(plan);
    q.run_until_caught_up();
  }
  q.finalize();
  EXPECT_EQ(q.metrics().failures, 1u);
  double total = 0.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    total += out->table().column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 120.0);
}

INSTANTIATE_TEST_SUITE_P(FaultAt, FaultPositionInvariance, ::testing::Values(0, 1, 5, 10, 11));

}  // namespace
}  // namespace oda
