// Stress tier: the shared-nothing engine's owned worker teams racing
// live staged producers and retention enforcement on one broker. The
// engine's workers poll their owned partitions through long-lived
// GroupMembers while producer threads group-commit staged batches into
// the same topic and a retention sweeper evicts segments of a sibling
// churn topic. Invariants: exactly-once into the sink (every produced
// record lands exactly once, none torn), and a mid-stream kill_worker()
// rebalance loses nothing. Run under -DODA_SANITIZE=thread to prove the
// barrier/handoff story.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "pipeline/query.hpp"
#include "pipeline/source_sink.hpp"
#include "sql/table.hpp"
#include "stream/broker.hpp"

namespace oda::engine {
namespace {

constexpr std::size_t kPartitions = 8;
constexpr std::size_t kStagedProducers = 4;
constexpr std::size_t kFlushes = 120;
constexpr std::size_t kPerFlush = 25;
constexpr std::size_t kPerProducer = kFlushes * kPerFlush;
constexpr std::size_t kTotal = kStagedProducers * kPerProducer;

// Payload "<producer>:<seq>" decoded into (time, producer, seq) rows so
// the final table can be audited for loss/duplication per producer.
sql::Table decode_audit(std::span<const stream::RecordView> records) {
  sql::Table t{sql::Schema{{"time", sql::DataType::kInt64},
                           {"producer", sql::DataType::kInt64},
                           {"seq", sql::DataType::kInt64}}};
  for (const auto& v : records) {
    const std::string payload(v.payload);
    const std::size_t colon = payload.find(':');
    // A torn record shows up as an unparsable payload: surface it as a
    // sentinel row rather than throwing mid-race.
    if (colon == std::string::npos) {
      t.append_row({sql::Value(v.timestamp), sql::Value(std::int64_t{-1}),
                    sql::Value(std::int64_t{-1})});
      continue;
    }
    t.append_row({sql::Value(v.timestamp),
                  sql::Value(static_cast<std::int64_t>(std::stoll(payload.substr(0, colon)))),
                  sql::Value(static_cast<std::int64_t>(std::stoll(payload.substr(colon + 1))))});
  }
  return t;
}

TEST(EngineStressTest, OwnedWorkersRaceStagedProducersAndRetention) {
  stream::Broker broker;
  stream::TopicConfig tc;
  tc.num_partitions = kPartitions;
  tc.segment_bytes = 1 << 12;  // small segments: fetches cross rolls
  broker.create_topic("live", tc);  // unbounded retention: every record audited
  stream::TopicConfig churn = tc;
  churn.segment_bytes = 1 << 10;
  churn.retention = stream::RetentionPolicy{2 * common::kSecond, -1};
  broker.create_topic("live-churn", churn);  // eviction races for real

  std::atomic<bool> producers_done{false};
  std::atomic<std::size_t> live_producers{kStagedProducers};

  // --- staged producers: zero-copy write path into the engine's topic --
  std::vector<std::thread> producers;
  producers.reserve(kStagedProducers);
  for (std::size_t p = 0; p < kStagedProducers; ++p) {
    producers.emplace_back([&broker, &live_producers, p] {
      stream::Producer producer = broker.producer("live");
      stream::Producer churner = broker.producer("live-churn");
      stream::BatchBuilder staging;
      stream::BatchBuilder churn_staging;
      const std::string churn_payload(256, 'x');
      for (std::size_t j = 0; j < kFlushes; ++j) {
        for (std::size_t i = 0; i < kPerFlush; ++i) {
          const std::size_t seq = j * kPerFlush + i;
          staging.add(static_cast<common::TimePoint>(seq) * common::kSecond,
                      "p" + std::to_string(p) + "." + std::to_string(seq % kPartitions),
                      std::to_string(p) + ":" + std::to_string(seq));
        }
        producer.produce_staged(staging);
        churn_staging.add(static_cast<common::TimePoint>(j) * common::kSecond, "", churn_payload);
        churner.produce_staged(churn_staging);  // keeps eviction busy
        if (j % 16 == 0) std::this_thread::yield();
      }
      live_producers.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  // --- retention: sweeps both topics while producers and workers run --
  std::thread retention([&] {
    common::TimePoint now = 0;
    while (!producers_done.load(std::memory_order_acquire)) {
      now += common::kSecond;
      broker.enforce_retention(now);
      std::this_thread::yield();
    }
    broker.enforce_retention(static_cast<common::TimePoint>(kFlushes + 100) * common::kSecond);
  });

  // --- the engine: 4 owned workers drain "live" while it is written ---
  Engine engine(EngineConfig{}.with_workers(4).with_ownership(
      OwnershipConfig{}.with_partitions(kPartitions)));
  auto& q = engine.add_query(
      pipeline::QueryConfig{}.with_name("stress.live").with_batch_size(512),
      SourceSpec{&broker, "live", "stress-group", decode_audit});
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  q.add_sink(std::move(sink));

  // Drain concurrently with the producers; kill a worker mid-stream so
  // the rebalance (survivors adopt the dead worker's partitions) also
  // happens under the race.
  bool killed = false;
  std::uint64_t drained = 0;
  while (true) {
    drained += engine.run_until_caught_up();
    if (!killed && drained > kTotal / 4) {
      q.kill_worker(3);
      killed = true;
    }
    if (live_producers.load(std::memory_order_acquire) == 0 && q.lag() == 0) break;
    std::this_thread::yield();
  }

  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  retention.join();

  // Final sweep: anything flushed after the last drain pass.
  engine.run_until_caught_up();
  ASSERT_EQ(q.lag(), 0u);
  EXPECT_TRUE(killed);
  EXPECT_EQ(engine.workers(), 4u);
  EXPECT_EQ(q.num_workers(), 3u);  // one killed, survivors own all partitions

  // Exactly-once audit: every (producer, seq) exactly once, none torn.
  const sql::Table& table = sink_ptr->table();
  ASSERT_EQ(table.num_rows(), kTotal);
  std::vector<std::set<std::int64_t>> seen(kStagedProducers);
  const sql::Column& prod = table.column("producer");
  const sql::Column& seq = table.column("seq");
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const std::int64_t p = prod.int_at(r);
    ASSERT_GE(p, 0) << "torn record at row " << r;
    ASSERT_LT(p, static_cast<std::int64_t>(kStagedProducers));
    EXPECT_TRUE(seen[static_cast<std::size_t>(p)].insert(seq.int_at(r)).second)
        << "duplicate producer=" << p << " seq=" << seq.int_at(r);
  }
  for (std::size_t p = 0; p < kStagedProducers; ++p) {
    EXPECT_EQ(seen[p].size(), kPerProducer) << "producer " << p << " lost records";
  }

  // Retention had real work on the churn topic (the race was exercised).
  const stream::Topic* churn_topic = broker.find_topic("live-churn");
  ASSERT_NE(churn_topic, nullptr);
  EXPECT_GT(churn_topic->partition(0).start_offset(), 0);
}

}  // namespace
}  // namespace oda::engine
