// The engine's headline guarantee: scheduling a query partition-parallel
// must be invisible in its committed output. Runs at any worker count
// over the same stream — with tracing on and a chaos fault plan active —
// must commit byte-identical sink tables, because a batch's contents are
// a pure function of the group's committed offsets, never of worker
// count or fetch interleaving. The shared-nothing redesign adds the
// ownership story: each worker's GroupMember assignment IS its partition
// set, lanes (operator state) shard by partition, and kill_worker()
// exercises rebalancing mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/faults.hpp"
#include "engine/engine.hpp"
#include "observe/export.hpp"
#include "observe/history.hpp"
#include "observe/metrics.hpp"
#include "observe/scraper.hpp"
#include "pipeline/operator.hpp"
#include "pipeline/self_telemetry.hpp"
#include "pipeline/source_sink.hpp"
#include "sql/agg.hpp"
#include "sql/table.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"
#include "table_check.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/simulator.hpp"
#include "tiny_facility.hpp"

namespace oda::engine {
namespace {

using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

constexpr std::size_t kPartitions = 8;
constexpr std::size_t kRecords = 6000;

// One record per sensor reading: timestamp = event time, key = node id
// (hash-partitioned), payload = the reading, each flushed on its own.
// [lo, hi) lets the chunked self-telemetry test feed the stream in
// installments.
void fill_topic(stream::Topic& topic, std::size_t lo, std::size_t hi) {
  stream::BatchBuilder staged;
  for (std::size_t i = lo; i < hi; ++i) {
    staged.add(static_cast<common::TimePoint>(i) * common::kSecond / 4,
               "node" + std::to_string(i % 32), std::to_string(0.5 + static_cast<double>(i % 97)));
    topic.produce_staged(staged);
  }
}

void fill_topic(stream::Topic& topic) { fill_topic(topic, 0, kRecords); }

// Same records group-committed 512 at a time. Identical keys/payloads, so
// the resulting partition layout must match fill_topic's byte for byte.
void fill_topic_staged(stream::Broker& broker, const std::string& topic_name) {
  stream::Producer producer = broker.producer(topic_name);
  stream::BatchBuilder staging;
  for (std::size_t i = 0; i < kRecords; ++i) {
    staging.add(static_cast<common::TimePoint>(i) * common::kSecond / 4,
                "node" + std::to_string(i % 32),
                std::to_string(0.5 + static_cast<double>(i % 97)));
    if (staging.pending() >= 512) producer.produce_staged(staging);
  }
  producer.produce_staged(staging);
}

Table decode(std::span<const stream::RecordView> records) {
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kString},
                 {"value", DataType::kFloat64}}};
  for (const auto& v : records) {
    t.append_row({Value(v.timestamp), Value(std::string(v.key)),
                  Value(std::stod(std::string(v.payload)))});
  }
  return t;
}

OperatorFactory window_agg_factory() {
  return [] {
    return std::make_unique<pipeline::WindowAggOp>(
        "window_10s", "time", 10 * common::kSecond, std::vector<std::string>{"node"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"},
                                  {"value", sql::AggKind::kMax, "max_value"},
                                  {"value", sql::AggKind::kCount, "samples"}});
  };
}

// Build broker + engine-driven windowed aggregation, run to quiescence,
// return the committed sink table serialized to bytes. Tracing (the
// engine's flight recorder takes the spans) and the given chaos plan are
// active for the whole run.
std::vector<std::uint8_t> run_with_workers(std::size_t workers, chaos::FaultPlan& plan,
                                           EngineStats* stats_out = nullptr,
                                           bool staged_fill = false,
                                           std::size_t partitions = kPartitions) {
  stream::Broker broker;
  auto& topic = broker.create_topic("sensors", stream::TopicConfig{}.with_partitions(partitions));
  if (staged_fill) {
    fill_topic_staged(broker, "sensors");
  } else {
    fill_topic(topic);
  }

  chaos::ScopedFaultPlan scoped_plan(plan);

  Engine engine(EngineConfig{}.with_workers(workers).with_ownership(
      OwnershipConfig{}.with_partitions(partitions)));
  chaos::RetryPolicy retry;
  retry.max_attempts = 50;  // outlast the plan's transient schedule
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& q = engine.add_query(pipeline::QueryConfig{}
                                 .with_name("engine.agg")
                                 .with_batch_size(1000)
                                 .with_max_retries(0),  // retry forever: no dead-letter
                             SourceSpec{&broker, "sensors", "agg-group", decode, retry});
  q.add_operator(window_agg_factory());
  q.add_sink(std::move(sink));

  engine.run_until_caught_up();
  q.finalize();
  if (stats_out) *stats_out = engine.stats();
  return storage::write_columnar(sink_ptr->table());
}

void configure_plan(chaos::FaultPlan& plan) {
  chaos::SiteConfig fetch;
  fetch.transient_p = 0.05;
  plan.configure("stream.fetch", fetch);
  chaos::SiteConfig batch;
  batch.every_nth = 5;
  plan.configure("pipeline.batch", batch);
}

TEST(EngineTest, WorkersFourByteIdenticalToWorkersOneUnderChaos) {
  chaos::FaultPlan plan1(0xc0ffee);
  chaos::FaultPlan plan4(0xc0ffee);
  configure_plan(plan1);
  configure_plan(plan4);
  EngineStats stats1, stats4;
  const auto bytes1 = run_with_workers(1, plan1, &stats1);
  const auto bytes4 = run_with_workers(4, plan4, &stats4);

  EXPECT_GT(bytes1.size(), 0u);
  EXPECT_EQ(bytes1, bytes4);

  // Teeth: both runs processed every row, and faults actually fired.
  EXPECT_EQ(stats1.rows, kRecords);
  EXPECT_EQ(stats4.rows, kRecords);
  EXPECT_GT(plan1.total_faults(), 0u);
  EXPECT_GT(plan4.total_faults(), 0u);
}

// Write-path extension of the golden-run proof: a topic filled through
// the staged zero-copy produce path (encode-into-arena, group commit)
// yields byte-identical engine output to the Record produce path, at
// every worker count, under the same chaos plan with tracing active.
TEST(EngineTest, StagedFillByteIdenticalAcrossWorkerCounts) {
  chaos::FaultPlan ref_plan(0x5eed);
  configure_plan(ref_plan);
  const auto reference = run_with_workers(1, ref_plan);
  EXPECT_GT(reference.size(), 0u);

  for (std::size_t workers : {1, 2, 4, 8}) {
    chaos::FaultPlan plan(0x5eed);
    configure_plan(plan);
    EngineStats stats;
    const auto bytes = run_with_workers(workers, plan, &stats, /*staged_fill=*/true);
    EXPECT_EQ(bytes, reference) << workers << " workers";
    EXPECT_EQ(stats.rows, kRecords);
    EXPECT_GT(plan.total_faults(), 0u);
  }
}

// Wide-team extension: over a 32-partition topic, teams of 16 and 32
// owned workers (real threads, real concurrent lane execution) still
// commit byte-identical output under chaos with tracing on.
TEST(EngineTest, ByteIdenticalUpToThirtyTwoWorkersUnderChaos) {
  std::vector<std::uint8_t> baseline;
  for (std::size_t workers : {1, 4, 16, 32}) {
    chaos::FaultPlan plan(0xfeedbeef);
    configure_plan(plan);
    EngineStats stats;
    const auto bytes = run_with_workers(workers, plan, &stats, /*staged_fill=*/false,
                                        /*partitions=*/32);
    EXPECT_EQ(stats.rows, kRecords) << "workers=" << workers;
    EXPECT_GT(plan.total_faults(), 0u) << "workers=" << workers;
    if (baseline.empty()) {
      EXPECT_GT(bytes.size(), 0u);
      baseline = bytes;
    } else {
      EXPECT_EQ(baseline, bytes) << "workers=" << workers;
    }
  }
}

// PR 4 extension of the golden-run proof: the self-telemetry loop rides
// the same chaotic engine run, and the retained HistoryStore must be
// worker-count invariant too. Input arrives in chunks; only after each
// chunk is fully caught up — the one engine state that IS invariant
// across worker counts (mid-run scheduling details depend on per-worker
// fetch interleaving) — caught-up totals are mirrored into gauges and
// scraped at a fixed virtual instant. The history query then drains the
// reserved metrics topic standalone, and the dump rides along in the
// compared bytes.
std::vector<std::uint8_t> run_with_history(std::size_t workers, chaos::FaultPlan& plan) {
  stream::Broker broker;
  auto& topic = broker.create_topic("sensors", stream::TopicConfig{}.with_partitions(kPartitions));

  chaos::ScopedFaultPlan scoped_plan(plan);

  Engine engine(EngineConfig{}.with_workers(workers));
  chaos::RetryPolicy retry;
  retry.max_attempts = 50;  // outlast the plan's transient schedule
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& q = engine.add_query(pipeline::QueryConfig{}
                                 .with_name("engine.agg")
                                 .with_batch_size(1000)
                                 .with_max_retries(0),
                             SourceSpec{&broker, "sensors", "agg-group", decode, retry});
  q.add_operator(window_agg_factory());
  q.add_sink(std::move(sink));

  observe::MetricsRegistry selfreg;  // local: only the mirrored gauges
  auto scraper = pipeline::make_scraper(selfreg, broker, observe::ScraperConfig{}, retry);

  constexpr std::size_t kChunks = 6;
  constexpr std::size_t kPerChunk = kRecords / kChunks;
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
    fill_topic(topic, chunk * kPerChunk, (chunk + 1) * kPerChunk);
    engine.run_until_caught_up();
    selfreg.gauge("selfwatch.rows")->set(static_cast<double>(engine.stats().rows));
    selfreg.gauge("selfwatch.sink.rows")->set(static_cast<double>(sink_ptr->table().num_rows()));
    selfreg.gauge("selfwatch.chunk")->set(static_cast<double>(chunk + 1));
    scraper->scrape(static_cast<common::TimePoint>(chunk + 1) * 15 * common::kSecond);
  }
  q.finalize();

  observe::HistoryStore history;
  auto history_query =
      make_history_query(broker, history, pipeline::QueryConfig{}.with_max_retries(0), retry);
  history_query->run_until_caught_up();

  std::vector<std::uint8_t> bytes = storage::write_columnar(sink_ptr->table());
  std::string dump;
  for (const auto& series : history.series_names()) {
    dump += observe::history_to_text(history, series, INT64_MIN, INT64_MAX,
                                     observe::Resolution::kRaw);
    dump += observe::history_to_text(history, series, INT64_MIN, INT64_MAX,
                                     observe::Resolution::kOneMinute);
  }
  bytes.insert(bytes.end(), dump.begin(), dump.end());
  return bytes;
}

void configure_plan_with_selfobs(chaos::FaultPlan& plan) {
  configure_plan(plan);
  chaos::SiteConfig produce;
  produce.transient_p = 0.2;  // the scraper's own produce seam faults too
  plan.configure("selfobs.produce", produce);
}

TEST(EngineTest, HistoryRangeQueriesAreWorkerCountInvariantUnderChaos) {
  std::vector<std::uint8_t> baseline;
  for (std::size_t workers : {1, 2, 4, 8}) {
    chaos::FaultPlan plan(0xc0ffee);
    configure_plan_with_selfobs(plan);
    const auto bytes = run_with_history(workers, plan);
    EXPECT_GT(plan.total_faults(), 0u) << "workers=" << workers;
    if (baseline.empty()) {
      baseline = bytes;
    } else {
      EXPECT_EQ(baseline, bytes) << "workers=" << workers;
    }
  }
  // Same seed, fresh run: byte-identical again.
  chaos::FaultPlan replay(0xc0ffee);
  configure_plan_with_selfobs(replay);
  EXPECT_EQ(baseline, run_with_history(2, replay));

  // Teeth: the compared bytes really contain the history dump.
  const std::string all(baseline.begin(), baseline.end());
  EXPECT_NE(all.find("selfwatch.rows (raw, 6 points)"), std::string::npos);
  EXPECT_NE(all.find("selfwatch.chunk"), std::string::npos);
  EXPECT_NE(all.find("(1m, "), std::string::npos);
}

TEST(EngineTest, ScalingCurveIsWorkerCountInvariant) {
  std::vector<std::uint8_t> baseline;
  for (std::size_t workers : {1, 2, 4, 8}) {
    chaos::FaultPlan plan(0x5eed);
    configure_plan(plan);
    const auto bytes = run_with_workers(workers, plan);
    if (baseline.empty()) {
      baseline = bytes;
    } else {
      EXPECT_EQ(baseline, bytes) << "workers=" << workers;
    }
  }
}

// finalize() commits like a generation, so the query resumes afterwards
// as if it had never stopped: the next generation's Silver record lands
// in the topic rather than being skipped as a replay of the flush.
TEST(EngineTest, FinalizeThenResumeKeepsEveryTopicRecord) {
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.seed = 7;
  telemetry::FacilitySimulator sim(testing::tiny_spec(), broker, cfg);
  // One partition: the topic decodes in publish order.
  broker.create_topic("silver.resume", stream::TopicConfig{}.with_partitions(1));
  Query q(pipeline::QueryConfig{}
              .with_name("resume")
              .with_batch_size(500)
              .with_allowed_lateness(20 * common::kSecond),
          SourceSpec{&broker, sim.topics().power, "resume", telemetry::packets_to_bronze},
          /*workers=*/1);
  q.add_operator(testing::silver_window);
  q.add_sink(std::make_unique<pipeline::TopicSink>(broker, "silver.resume"));
  auto sink = std::make_unique<pipeline::TableSink>();
  const pipeline::TableSink* sink_ptr = sink.get();
  q.add_sink(std::move(sink));

  for (const common::TimePoint until : {2 * common::kMinute, 4 * common::kMinute}) {
    sim.run_until(until);
    q.run_until_caught_up();
    q.finalize();
  }
  ASSERT_GT(sink_ptr->table().num_rows(), 0u);
  testing::expect_tables_equal(testing::topic_rows(broker, "silver.resume"), sink_ptr->table());
}

TEST(EngineTest, MultiQueryChainDrainsAcrossRounds) {
  // bronze --(re-encode)--> silver topic --> table. The downstream query
  // only sees data produced by the upstream one, so draining the chain
  // exercises the engine's round loop.
  stream::Broker broker;
  auto& topic = broker.create_topic("bronze", stream::TopicConfig{}.with_partitions(4));
  fill_topic(topic);

  Engine engine(EngineConfig{}.with_workers(2));
  auto& upstream =
      engine.add_query(pipeline::QueryConfig{}.with_name("chain.bronze").with_batch_size(500),
                       SourceSpec{&broker, "bronze", "chain-b", decode});
  upstream.add_sink(std::make_unique<pipeline::TopicSink>(broker, "silver"));

  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& downstream =
      engine.add_query(pipeline::QueryConfig{}.with_name("chain.silver").with_batch_size(500),
                       SourceSpec{&broker, "silver", "chain-s", pipeline::decode_columnar_records});
  downstream.add_sink(std::move(sink));

  engine.run_until_caught_up();

  EXPECT_EQ(sink_ptr->table().num_rows(), kRecords);
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.rounds, 2u);  // downstream needed at least one later round
  EXPECT_EQ(stats.rows, 2 * kRecords);
}

// Backlog drain over unevenly loaded partitions. Heavy nodes emit eight
// readings per tick where light ones emit one, and every partition gets
// the same fetch budget, so while the backlog drains the partitions
// drift apart in event time by far more than the allowed lateness. The
// watermark is the min over the lanes that decoded rows, so no lane's
// rows arrive behind it: nothing is dropped as late, every reading lands
// in exactly one window, and the committed bytes do not depend on the
// worker count.
std::vector<std::uint8_t> drain_uneven_backlog(std::size_t workers, std::uint64_t* late_rows,
                                               std::uint64_t* samples) {
  constexpr int kTicks = 600;
  stream::Broker broker;
  auto& topic = broker.create_topic("uneven", stream::TopicConfig{}.with_partitions(kPartitions));
  {
    stream::Producer producer = broker.producer("uneven");
    stream::BatchBuilder staged;
    for (int tick = 0; tick < kTicks; ++tick) {
      for (int node = 0; node < 32; ++node) {
        const int readings = node % 8 == 0 ? 8 : 1;
        for (int k = 0; k < readings; ++k) {
          staged.add(tick * common::kSecond, "node" + std::to_string(node),
                     std::to_string(0.5 + k + node));
        }
      }
      producer.produce_staged(staged);
    }
  }
  std::int64_t lightest = INT64_MAX;
  std::int64_t heaviest = 0;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    lightest = std::min(lightest, topic.partition(p).end_offset());
    heaviest = std::max(heaviest, topic.partition(p).end_offset());
  }
  EXPECT_GE(heaviest, 2 * lightest);  // the load really is uneven

  Engine engine(EngineConfig{}.with_workers(workers).with_ownership(
      OwnershipConfig{}.with_partitions(kPartitions)));
  std::vector<const pipeline::WindowAggOp*> lanes;
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& q = engine.add_query(pipeline::QueryConfig{}
                                 .with_name("uneven.q")
                                 .with_batch_size(800)
                                 .with_allowed_lateness(5 * common::kSecond),
                             SourceSpec{&broker, "uneven", "uneven-group", decode});
  q.add_operator([&lanes] {
    auto op = std::make_unique<pipeline::WindowAggOp>(
        "window_10s", "time", 10 * common::kSecond, std::vector<std::string>{"node"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kSum, "sum_value"},
                                  {"value", sql::AggKind::kCount, "samples"}});
    lanes.push_back(op.get());
    return op;
  });
  q.add_sink(std::move(sink));
  engine.run_until_caught_up();
  q.finalize();

  *late_rows = 0;
  for (const pipeline::WindowAggOp* op : lanes) *late_rows += op->late_rows_dropped();
  *samples = 0;
  const Table& out = sink_ptr->table();
  for (std::size_t r = 0; r < out.num_rows(); ++r) {
    *samples += static_cast<std::uint64_t>(out.column("samples").int_at(r));
  }
  return storage::write_columnar(out);
}

TEST(EngineTest, UnevenBacklogDrainsWithoutLateRows) {
  constexpr std::uint64_t kReadings = 600 * (28 + 4 * 8);
  std::uint64_t late1 = 0, samples1 = 0, late4 = 0, samples4 = 0;
  const auto bytes1 = drain_uneven_backlog(1, &late1, &samples1);
  const auto bytes4 = drain_uneven_backlog(4, &late4, &samples4);
  EXPECT_EQ(late1, 0u);
  EXPECT_EQ(late4, 0u);
  EXPECT_EQ(samples1, kReadings);
  EXPECT_EQ(samples4, kReadings);
  EXPECT_GT(bytes1.size(), 0u);
  EXPECT_EQ(bytes1, bytes4);
}

TEST(EngineTest, TeamClampsToPartitionCount) {
  stream::Broker broker;
  broker.create_topic("narrow", stream::TopicConfig{}.with_partitions(2));
  Engine engine(EngineConfig{}.with_workers(8));
  auto& q = engine.add_query(pipeline::QueryConfig{}.with_name("narrow.q"),
                             SourceSpec{&broker, "narrow", "narrow-group", decode});
  EXPECT_EQ(q.team_size(), 2u);  // extra workers would own nothing
  EXPECT_EQ(q.num_partitions(), 2u);
}

TEST(EngineTest, ConfigValidateRejectsNonsense) {
  EXPECT_NO_THROW(Engine(EngineConfig{}.with_workers(2)));
  // Declared ownership makes oversubscription a configuration error
  // instead of a silent clamp.
  EXPECT_THROW(Engine(EngineConfig{}.with_workers(4).with_ownership(
                   OwnershipConfig{}.with_partitions(2))),
               std::invalid_argument);
  EXPECT_NO_THROW(Engine(EngineConfig{}.with_workers(2).with_ownership(
      OwnershipConfig{}.with_partitions(2))));
}

TEST(EngineTest, AddQueryRejectsOwnershipPartitionMismatch) {
  stream::Broker broker;
  broker.create_topic("p4", stream::TopicConfig{}.with_partitions(4));
  Engine engine(EngineConfig{}.with_workers(2).with_ownership(
      OwnershipConfig{}.with_partitions(8)));
  EXPECT_THROW(engine.add_query(pipeline::QueryConfig{}.with_name("mismatch.q"),
                                SourceSpec{&broker, "p4", "mismatch-group", decode}),
               std::invalid_argument);
}

TEST(EngineTest, EngineGaugesReflectConfiguration) {
  // Broker outlives the engine: the engine's group members deregister
  // from the broker when their queries are destroyed.
  stream::Broker broker;
  broker.create_topic("g", stream::TopicConfig{}.with_partitions(2));

  Engine engine(EngineConfig{}.with_workers(3));
  auto& reg = observe::default_registry();
  EXPECT_DOUBLE_EQ(reg.gauge("engine.workers")->value(), 3.0);

  auto& q = engine.add_query(pipeline::QueryConfig{}.with_name("gauge.q"),
                             SourceSpec{&broker, "g", "gauge-group", decode});
  EXPECT_DOUBLE_EQ(reg.gauge("engine.queries")->value(), 1.0);
  EXPECT_EQ(q.team_size(), 2u);
}

// Ownership rebalance: killing a worker mid-stream hands its partitions
// to the survivors through the consumer-group generation bump, and the
// fenced commit protocol guarantees no record is lost or duplicated
// across the handover.
TEST(EngineTest, KillWorkerRebalancesOwnershipWithoutLossOrDuplication) {
  stream::Broker broker;
  auto& topic = broker.create_topic("reb", stream::TopicConfig{}.with_partitions(kPartitions));
  fill_topic(topic, 0, kRecords / 2);

  Engine engine(EngineConfig{}.with_workers(4).with_ownership(
      OwnershipConfig{}.with_partitions(kPartitions)));
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& q = engine.add_query(pipeline::QueryConfig{}.with_name("reb.q").with_batch_size(500),
                             SourceSpec{&broker, "reb", "reb-group", decode});
  q.add_sink(std::move(sink));

  engine.run_until_caught_up();
  EXPECT_EQ(sink_ptr->table().num_rows(), kRecords / 2);
  ASSERT_EQ(q.num_workers(), 4u);
  {
    std::size_t owned = 0;
    for (const WorkerStats& ws : q.worker_stats()) {
      EXPECT_TRUE(ws.alive);
      owned += ws.owned_partitions;
    }
    EXPECT_EQ(owned, kPartitions);  // full coverage, 2 lanes per worker
  }

  // Kill one threaded worker and one more; survivors absorb the freed
  // partitions on their next fetch (generation observed through the
  // broker's lock-free cell).
  q.kill_worker(3);
  q.kill_worker(1);
  EXPECT_EQ(q.num_workers(), 2u);
  EXPECT_EQ(q.team_size(), 4u);  // dead members stay visible in stats

  fill_topic(topic, kRecords / 2, kRecords);
  engine.run_until_caught_up();

  // Exactly every record, exactly once — committed offsets never
  // regressed across the rebalance.
  EXPECT_EQ(sink_ptr->table().num_rows(), kRecords);
  std::size_t owned = 0;
  for (const WorkerStats& ws : q.worker_stats()) {
    if (ws.worker == 1 || ws.worker == 3) {
      EXPECT_FALSE(ws.alive);
      EXPECT_EQ(ws.owned_partitions, 0u);
    } else {
      EXPECT_TRUE(ws.alive);
      EXPECT_GT(ws.rows_fetched, 0u);
    }
    owned += ws.owned_partitions;
  }
  EXPECT_EQ(owned, kPartitions);  // survivors own everything

  // The last alive worker is not killable (the query would deadlock).
  q.kill_worker(2);
  EXPECT_THROW(q.kill_worker(0), std::invalid_argument);
  EXPECT_EQ(q.num_workers(), 1u);
}

TEST(EngineTest, WorkerFetchSpansParentUnderBatchSpan) {
  // A traced engine run must show the workers' fetch phases tied to the
  // trace of the batch that scheduled them — that is how an operator
  // reads the fan-out of one micro-batch off a trace export.
  stream::Broker broker;
  auto& topic = broker.create_topic("traced", stream::TopicConfig{}.with_partitions(4));
  fill_topic(topic);

  Engine engine(EngineConfig{}.with_workers(4));
  auto& q = engine.add_query(pipeline::QueryConfig{}.with_name("traced.q").with_batch_size(1000),
                             SourceSpec{&broker, "traced", "traced-group", decode});
  q.add_sink(std::make_unique<pipeline::TableSink>());
  engine.run_until_caught_up();

  // The engine's recorder carries the spans too: batch spans by id, and
  // the workers' fetch phases hang under them, in their trace.
  const observe::FlightDump d = engine.dump_flight();
  std::map<std::uint64_t, std::uint64_t> batch_trace;  // batch span id → trace id
  for (const auto& span : d.spans()) {
    if (span.name(d) == "query.traced.q.batch") batch_trace[span.ids.span] = span.ids.trace;
  }
  ASSERT_FALSE(batch_trace.empty());
  std::size_t fetch_spans_in_batch_trace = 0;
  std::size_t on_worker_threads = 0;  // rings 2..4: workers 1..3, off the driver thread
  for (const auto& span : d.spans()) {
    if (span.phase != observe::FlightPhase::kFetch) continue;
    const auto it = batch_trace.find(span.ids.parent);
    if (it == batch_trace.end() || span.ids.trace != it->second) continue;
    ++fetch_spans_in_batch_trace;
    on_worker_threads += span.ring >= 2 ? 1 : 0;
  }
  EXPECT_GT(fetch_spans_in_batch_trace, 0u);
  EXPECT_GT(on_worker_threads, 0u);
}

}  // namespace
}  // namespace oda::engine
