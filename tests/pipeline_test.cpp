// Tests for the micro-batch streaming pipeline: window operator watermark
// semantics, exactly-once emission, batch rollback/recovery, dead-letter
// policy, sinks, and batch-vs-stream equivalence on engine::Query.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"

namespace oda::pipeline {
namespace {

using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

Table rows_at(std::initializer_list<std::pair<common::TimePoint, double>> points) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  for (const auto& [time, v] : points) t.append_row({Value(time), Value(v)});
  return t;
}

WindowAggOp make_op(common::Duration window = 10 * kSecond) {
  return WindowAggOp("w", "time", window, {},
                     {{"v", sql::AggKind::kSum, "s"}, {"v", sql::AggKind::kCount, "n"}});
}

TEST(WindowAggOpTest, EmitsOnlyWatermarkClosedWindows) {
  auto op = make_op();
  op.begin_batch();
  // Rows in windows [0,10) and [10,20); watermark 12 closes only the first.
  Batch out = op.process({rows_at({{1 * kSecond, 1.0}, {5 * kSecond, 2.0}, {12 * kSecond, 4.0}}),
                          12 * kSecond});
  ASSERT_EQ(out.table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.table.column("s").double_at(0), 3.0);
  EXPECT_EQ(out.table.column("n").int_at(0), 2);
  EXPECT_EQ(op.pending_windows(), 2u);  // closed window awaits commit; [10,20) buffered
  op.commit_batch();
  EXPECT_EQ(op.pending_windows(), 1u);
}

TEST(WindowAggOpTest, LateRowsForClosedWindowsDropped) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}}), 30 * kSecond});  // closes window 0
  op.commit_batch();
  op.begin_batch();
  Batch out = op.process({rows_at({{2 * kSecond, 9.0}}), 30 * kSecond});  // late for window 0
  EXPECT_EQ(out.table.num_rows(), 0u);
  EXPECT_EQ(op.late_rows_dropped(), 1u);
  op.commit_batch();
}

TEST(WindowAggOpTest, FlushEmitsEverythingPending) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}, {11 * kSecond, 2.0}, {21 * kSecond, 3.0}}),
                    5 * kSecond});
  op.commit_batch();
  op.begin_batch();
  const Batch out = op.flush();
  op.commit_batch();
  EXPECT_EQ(out.table.num_rows(), 3u);
  EXPECT_EQ(op.pending_windows(), 0u);
}

TEST(WindowAggOpTest, RollbackRestoresPreBatchState) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}}), 1 * kSecond});
  op.commit_batch();

  op.begin_batch();
  (void)op.process({rows_at({{2 * kSecond, 100.0}, {15 * kSecond, 50.0}}), 15 * kSecond});
  op.rollback_batch();  // simulate downstream failure

  // Replay the same rows, then flush: the 100.0 must appear exactly once.
  op.begin_batch();
  const Batch emitted =
      op.process({rows_at({{2 * kSecond, 100.0}, {15 * kSecond, 50.0}}), 15 * kSecond});
  op.commit_batch();
  op.begin_batch();
  const Batch flushed = op.flush();
  op.commit_batch();
  double total = 0.0;
  for (std::size_t r = 0; r < emitted.table.num_rows(); ++r) {
    total += emitted.table.column("s").double_at(r);
  }
  for (std::size_t r = 0; r < flushed.table.num_rows(); ++r) {
    total += flushed.table.column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 151.0);  // 1 + 100 + 50, no double count
}

TEST(WindowAggOpTest, RollbackAfterEmissionReplaysWindow) {
  auto op = make_op();
  op.begin_batch();
  Batch out = op.process({rows_at({{1 * kSecond, 7.0}, {30 * kSecond, 1.0}}), 30 * kSecond});
  EXPECT_EQ(out.table.num_rows(), 1u);  // window 0 emitted
  op.rollback_batch();                  // sink failed: emission must not be lost

  op.begin_batch();
  out = op.process({rows_at({{1 * kSecond, 7.0}, {30 * kSecond, 1.0}}), 30 * kSecond});
  ASSERT_EQ(out.table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.table.column("s").double_at(0), 7.0);  // exactly once, not 14
  op.commit_batch();
}

TEST(WindowAggOpTest, CheckpointStateRoundTrips) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}, {11 * kSecond, 2.0}}), 5 * kSecond});
  op.commit_batch();
  const auto state = op.checkpoint_state();

  auto restored = make_op();
  restored.restore_state(state);
  EXPECT_EQ(restored.pending_windows(), op.pending_windows());
  restored.begin_batch();
  op.begin_batch();
  const Batch a = restored.flush();
  const Batch b = op.flush();
  restored.commit_batch();
  op.commit_batch();
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  for (std::size_t r = 0; r < a.table.num_rows(); ++r) {
    EXPECT_EQ(a.table.column("s").get(r), b.table.column("s").get(r));
  }
}

// ---- engine::Query end-to-end over a broker --------------------------------

struct QueryRig {
  stream::Broker broker;
  // One partition so produce order == consume order (deterministic
  // batch boundaries for the fault/poison tests). The cached handle
  // skips the name lookup on every produced record.
  stream::Producer in_producer{broker.create_topic("in", {1, 1 << 20, {}})};
  stream::BatchBuilder staged;
  /// Flushes each record on its own, so tests can interleave produce and poll.
  void produce(common::TimePoint t, double v) {
    const auto blob = storage::write_columnar(rows_at({{t, v}}));
    staged.add(t, "", std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
    in_producer.produce_staged(staged);
  }
  std::unique_ptr<engine::Query> make_query(QueryConfig qc = {}) {
    return std::make_unique<engine::Query>(
        qc, engine::SourceSpec{&broker, "in", "g", decode_columnar_records}, /*workers=*/1);
  }
};

engine::OperatorFactory windowed_sum(common::Duration window) {
  return [window] {
    return std::make_unique<WindowAggOp>("w", "time", window, std::vector<std::string>{},
                                         std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
  };
}

TEST(QueryConfigTest, FluentSettersAndValidate) {
  const QueryConfig qc = QueryConfig{}
                             .with_name("fluent")
                             .with_batch_size(256)
                             .with_time_column("ts")
                             .with_allowed_lateness(5 * kSecond)
                             .with_max_retries(2);
  EXPECT_EQ(qc.name, "fluent");
  EXPECT_EQ(qc.max_records_per_batch, 256u);
  EXPECT_EQ(qc.time_column, "ts");
  EXPECT_NO_THROW(qc.validate());

  QueryRig rig;
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("")), std::invalid_argument);
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("q").with_batch_size(0)),
               std::invalid_argument);
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("q").with_time_column("")),
               std::invalid_argument);
}

TEST(QueryTest, EndToEndWindowedSum) {
  QueryRig rig;
  for (int i = 0; i < 40; ++i) rig.produce(i * kSecond, 1.0);
  auto q = rig.make_query();
  q->add_operator(windowed_sum(10 * kSecond));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  q->finalize();
  // 40 seconds -> 4 windows of sum 10.
  ASSERT_EQ(out->table().num_rows(), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(out->table().column("s").double_at(r), 10.0);
  EXPECT_EQ(q->metrics().failures, 0u);
  EXPECT_GT(q->metrics().batches, 0u);
}

TEST(WindowAggOpTest, AllowedLatenessHoldsWindowsOpen) {
  // Lateness lives at the engine's watermark: max event time minus
  // QueryConfig::allowed_lateness.
  QueryRig rig;
  auto q = rig.make_query(QueryConfig{}.with_allowed_lateness(20 * kSecond));
  q->add_operator(windowed_sum(10 * kSecond));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  rig.produce(1 * kSecond, 1.0);
  rig.produce(29 * kSecond, 1.0);
  q->run_until_caught_up();
  EXPECT_EQ(out->table().num_rows(), 0u);  // watermark 9 s < window end 10 s: still open
  rig.produce(30 * kSecond, 1.0);
  q->run_until_caught_up();
  ASSERT_EQ(out->table().num_rows(), 1u);  // watermark 10 s: now closed
  EXPECT_DOUBLE_EQ(out->table().column("s").double_at(0), 1.0);
}

TEST(QueryTest, InjectedFaultRecoversWithoutLossOrDuplication) {
  QueryRig rig;
  for (int i = 0; i < 60; ++i) rig.produce(i * kSecond, 1.0);
  QueryConfig qc;
  qc.max_records_per_batch = 10;
  auto q = rig.make_query(qc);
  q->add_operator(windowed_sum(10 * kSecond));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  chaos::FaultPlan plan(1);
  plan.configure("pipeline.batch", {.skip_first = 2, .every_nth = 1, .max_faults = 1});
  {
    chaos::ScopedFaultPlan scoped(plan);  // fail the third batch once
    q->run_until_caught_up();
  }
  q->finalize();
  EXPECT_EQ(q->metrics().failures, 1u);
  double total = 0.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    total += out->table().column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 60.0);  // exactly-once despite the fault
}

TEST(QueryTest, PoisonBatchIsSkippedAfterMaxRetries) {
  QueryRig rig;
  for (int i = 0; i < 30; ++i) rig.produce(i * kSecond, 1.0);
  QueryConfig qc;
  qc.max_records_per_batch = 10;
  qc.max_retries = 3;
  auto q = rig.make_query(qc);
  // A transform that always throws on rows with time in [10s, 20s).
  q->add_transform("poison", storage::DataClass::kSilver, [](const Table& t) {
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const auto time = t.column("time").int_at(r);
      if (time >= 10 * kSecond && time < 20 * kSecond) throw std::runtime_error("corrupt record");
    }
    return t;
  });
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  EXPECT_EQ(q->metrics().batches_skipped, 1u);
  EXPECT_EQ(q->metrics().failures, 3u);
  EXPECT_EQ(q->metrics().last_error, "corrupt record");
  EXPECT_EQ(out->table().num_rows(), 20u);  // the other two batches flowed through
}

TEST(QueryTest, StageMetricsTrackRows) {
  QueryRig rig;
  for (int i = 0; i < 20; ++i) rig.produce(i * kSecond, static_cast<double>(i));
  auto q = rig.make_query();
  q->add_transform("filter", storage::DataClass::kBronze, [](const Table& t) {
    return sql::filter(t, sql::col("v") >= sql::lit(Value(10.0)));
  });
  q->add_sink(std::make_unique<TableSink>());
  q->run_until_caught_up();
  ASSERT_EQ(q->metrics().stages.size(), 1u);
  EXPECT_EQ(q->metrics().stages[0].rows_in, 20u);
  EXPECT_EQ(q->metrics().stages[0].rows_out, 10u);
}

TEST(QueryTest, StreamEqualsBatchResult) {
  // The streaming windowed sum must equal a one-shot batch aggregation —
  // the correctness core of the batch->stream transition (Sec VI-B).
  QueryRig rig;
  common::Rng rng(21);
  Table all{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  // Event times advance monotonically (in-order stream); disorder beyond
  // the allowed lateness would legitimately drop late rows and the two
  // results would differ by design.
  common::TimePoint t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<common::TimePoint>(rng.uniform_index(3)) * kSecond;
    const double v = rng.normal(10, 3);
    all.append_row({Value(t), Value(v)});
    rig.produce(t, v);
  }
  QueryConfig qc;
  qc.max_records_per_batch = 37;  // odd size to shuffle batch boundaries
  auto q = rig.make_query(qc);
  q->add_operator(windowed_sum(15 * kSecond));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  q->finalize();

  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kSum, "s"}};
  const Table batch = sql::sort_by(sql::window_aggregate(all, "time", 15 * kSecond, no_keys, aggs),
                                   {{"window_start", true}});
  const Table streamed = sql::sort_by(out->table(), {{"window_start", true}});
  ASSERT_EQ(streamed.num_rows(), batch.num_rows());
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(streamed.column("window_start").int_at(r), batch.column("window_start").int_at(r));
    EXPECT_NEAR(streamed.column("s").double_at(r), batch.column("s").double_at(r), 1e-9);
  }
}

TEST(SinkTest, OceanSinkChunksObjects) {
  storage::ObjectStore ocean;
  OceanSink sink(ocean, "ds", storage::DataClass::kSilver, /*rows_per_object=*/100);
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  for (int i = 0; i < 250; ++i) t.append_row({Value(std::int64_t{i}), Value(1.0)});
  sink.begin_batch();
  sink.write(t);
  EXPECT_EQ(sink.objects_written(), 2u);  // 2 full chunks, 50 buffered
  sink.flush();
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 3u);
  std::size_t total = 0;
  for (const auto& meta : ocean.list("ds")) {
    total += storage::inspect_columnar(*ocean.get(meta.key)).num_rows;
  }
  EXPECT_EQ(total, 250u);
}

TEST(SinkTest, OceanSinkRollbackAcrossPartsReplaysSameObjects) {
  storage::ObjectStore ocean;
  OceanSink sink(ocean, "ds", storage::DataClass::kBronze, /*rows_per_object=*/100);
  const auto rows = [](int lo, int hi) {
    Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
    for (int i = lo; i < hi; ++i) t.append_row({Value(std::int64_t{i}), Value(0.5 * i)});
    return t;
  };
  const auto first_time = [&](const std::string& key) {
    return storage::read_columnar(*ocean.get(key)).column("time").int_at(0);
  };

  sink.begin_batch();
  sink.write(rows(0, 60));
  sink.commit_batch();
  ASSERT_EQ(sink.objects_written(), 0u);
  ASSERT_EQ(sink.buffered_rows(), 60u);

  // A batch that crosses rows_per_object twice, then fails downstream.
  sink.begin_batch();
  sink.write(rows(60, 230));
  ASSERT_EQ(sink.objects_written(), 2u);
  ASSERT_EQ(sink.buffered_rows(), 30u);
  const auto part0 = *ocean.get("ds/part000000");
  const auto part1 = *ocean.get("ds/part000001");
  sink.rollback_batch();
  EXPECT_EQ(sink.objects_written(), 0u);
  EXPECT_EQ(sink.buffered_rows(), 60u);

  // The replay puts byte-identical objects under the same part keys.
  sink.begin_batch();
  sink.write(rows(60, 230));
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 2u);
  EXPECT_EQ(sink.buffered_rows(), 30u);
  EXPECT_EQ(ocean.object_count(), 2u);
  EXPECT_EQ(*ocean.get("ds/part000000"), part0);
  EXPECT_EQ(*ocean.get("ds/part000001"), part1);
  EXPECT_EQ(first_time("ds/part000000"), 0);
  EXPECT_EQ(first_time("ds/part000001"), 100);

  // The committed remainder (rows 200..229) leads the next part.
  sink.begin_batch();
  sink.write(rows(230, 300));
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 3u);
  EXPECT_EQ(sink.buffered_rows(), 0u);
  EXPECT_EQ(first_time("ds/part000002"), 200);
  EXPECT_EQ(storage::read_columnar(*ocean.get("ds/part000002")).num_rows(), 100u);
  sink.begin_batch();
  sink.flush();  // nothing left to flush
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 3u);
}

TEST(SinkTest, LakeSinkWritesTaggedSeries) {
  storage::TimeSeriesDb lake;
  LakeSink sink(lake, "m", "time", "v", {"node"});
  Table t{Schema{{"time", DataType::kInt64}, {"node", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{100}), Value("a"), Value(1.0)});
  t.append_row({Value(std::int64_t{200}), Value("b"), Value(2.0)});
  t.append_row({Value(std::int64_t{300}), Value("a"), Value::null()});  // skipped
  sink.begin_batch();
  sink.write(t);
  sink.commit_batch();
  EXPECT_EQ(lake.series_count(), 2u);
  EXPECT_EQ(lake.point_count(), 2u);
}

TEST(SinkTest, TopicSinkRoundTripsThroughDecoder) {
  stream::Broker broker;
  TopicSink sink(broker, "out");
  Table t = rows_at({{5 * kSecond, 1.5}, {6 * kSecond, 2.5}});
  sink.begin_batch();
  sink.write(t);
  sink.commit_batch();
  stream::GroupMember c(broker, "g", "out");
  const auto records = c.poll(10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, 6 * kSecond);  // batch max event time
  const Table back = decode_columnar_records(records.records());
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back.column("v").double_at(1), 2.5);
}

}  // namespace
}  // namespace oda::pipeline
