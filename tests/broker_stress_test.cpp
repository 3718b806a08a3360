// Stress tier: concurrent producers, committing readers (GroupMembers,
// each alone in its group unless the test says otherwise), group
// membership churn and retention enforcement all racing on one broker.
// Invariants: no record lost or reordered within a partition (offsets
// strictly monotonic), and topic stats stay consistent. Run under
// -DODA_SANITIZE=thread to prove the locking story.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "stream/broker.hpp"

namespace oda::stream {
namespace {

constexpr std::size_t kProducers = 4;
constexpr std::size_t kPerProducer = 1500;
constexpr std::size_t kTotal = kProducers * kPerProducer;

/// Stage producer `producer`'s record `seq`; the payload names both so
/// audits can check order and count.
void stage_record(BatchBuilder& staged, std::size_t producer, std::size_t seq) {
  staged.add(static_cast<common::TimePoint>(seq) * common::kSecond,
             "p" + std::to_string(producer),  // stable partition per producer
             std::to_string(producer) + ":" + std::to_string(seq));
}

TEST(BrokerStressTest, ProducersConsumerChurnAndRetentionRace) {
  Broker broker;
  TopicConfig tc;
  tc.num_partitions = 8;
  tc.segment_bytes = 1 << 12;  // many segments: retention has work to do
  broker.create_topic("stress", tc);
  // A second topic with aggressive size-bound retention, so eviction
  // races fetches for real (readers there must tolerate gaps).
  TopicConfig churn_tc;
  churn_tc.num_partitions = 4;
  churn_tc.segment_bytes = 1 << 10;
  churn_tc.retention = RetentionPolicy{0, 16 << 10};
  broker.create_topic("churny", churn_tc);

  std::atomic<bool> producers_done{false};
  std::atomic<bool> stop_aux{false};
  std::atomic<std::uint64_t> monotonicity_violations{0};

  // --- producers: interleave both topics --------------------------------
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto stress = broker.producer("stress");
      auto churny = broker.producer("churny");
      BatchBuilder staged;
      // One record per flush: the finest interleaving of producers.
      for (std::size_t j = 0; j < kPerProducer; ++j) {
        stage_record(staged, p, j);
        stress.produce_staged(staged);
        stage_record(staged, p, j);
        churny.produce_staged(staged);
      }
    });
  }

  // --- retention: sweeps both topics while everything else runs ---------
  std::atomic<std::uint64_t> sweeps_done{0};
  std::thread retention([&] {
    common::TimePoint now = 0;
    while (!stop_aux.load(std::memory_order_acquire)) {
      broker.enforce_retention(now);
      sweeps_done.fetch_add(1, std::memory_order_release);
      now += common::kMinute;
      std::this_thread::yield();
    }
  });

  // --- group churn: members join, poll, commit and leave repeatedly -----
  std::thread churn([&] {
    while (!stop_aux.load(std::memory_order_acquire)) {
      GroupMember m(broker, "churn-group", "stress");
      auto got = m.poll(64);
      m.commit();
      m.leave();
      std::this_thread::yield();
    }
  });

  // --- gap-tolerant reader on the evicting topic -------------------------
  std::thread churny_reader([&] {
    GroupMember c(broker, "churny-reader", "churny");
    std::map<std::string, std::int64_t> last_offset;  // key = partition key
    while (!stop_aux.load(std::memory_order_acquire)) {
      const auto got = c.poll(128);
      for (const auto& sr : got) {
        auto [it, fresh] = last_offset.emplace(std::string(sr.key), sr.offset);
        if (!fresh) {
          // Eviction may skip offsets forward, never backward or equal.
          if (sr.offset <= it->second) monotonicity_violations.fetch_add(1);
          it->second = sr.offset;
        }
      }
      c.commit();
      std::this_thread::yield();
    }
  });

  // --- the accounting consumer: must see every stress record once -------
  GroupMember consumer(broker, "accounting", "stress");
  std::vector<std::vector<std::uint8_t>> seen(kProducers,
                                              std::vector<std::uint8_t>(kPerProducer, 0));
  std::size_t received = 0;
  std::uint64_t duplicates = 0;
  std::map<std::string, std::int64_t> last_offset;  // per producer key
  std::size_t idle_polls = 0;
  while (received < kTotal && idle_polls < 200000) {
    const auto got = consumer.poll(256);
    if (got.empty()) {
      ++idle_polls;
      if (producers_done.load(std::memory_order_acquire) && consumer.lag() == 0) break;
      std::this_thread::yield();
      continue;
    }
    idle_polls = 0;
    for (const auto& sr : got) {
      // Strictly increasing offsets per producer key (a producer's records
      // all land in one partition thanks to key hashing).
      auto [it, fresh] = last_offset.emplace(std::string(sr.key), sr.offset);
      if (!fresh) {
        EXPECT_GT(sr.offset, it->second);
        it->second = sr.offset;
      }
      std::size_t producer = 0, seq = 0;
      ASSERT_EQ(std::sscanf(std::string(sr.payload).c_str(), "%zu:%zu", &producer, &seq), 2);
      ASSERT_LT(producer, kProducers);
      ASSERT_LT(seq, kPerProducer);
      if (seen[producer][seq]) {
        ++duplicates;
      } else {
        seen[producer][seq] = 1;
        ++received;
      }
    }
    consumer.commit();
    if (received >= kTotal) break;
  }

  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  // One last sweep in case producers finished after the consumer's check.
  while (consumer.lag() > 0) {
    for (const auto& sr : consumer.poll(256)) {
      std::size_t producer = 0, seq = 0;
      if (std::sscanf(std::string(sr.payload).c_str(), "%zu:%zu", &producer, &seq) == 2 &&
          producer < kProducers && seq < kPerProducer && !seen[producer][seq]) {
        seen[producer][seq] = 1;
        ++received;
      }
    }
    consumer.commit();
  }
  // Stop only after a sweep that began after the producers joined has
  // finished: the sweep running now may have started before, the next
  // one cannot. A starved retention thread then still sees the churny
  // partitions over their size bound.
  const std::uint64_t sweeps_at_join = sweeps_done.load(std::memory_order_acquire);
  while (sweeps_done.load(std::memory_order_acquire) < sweeps_at_join + 2) {
    std::this_thread::yield();
  }
  stop_aux.store(true, std::memory_order_release);
  retention.join();
  churn.join();
  churny_reader.join();

  // Exactly-once through the committing consumer: all records, no dupes.
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(monotonicity_violations.load(), 0u);

  // Stats consistency at quiescence.
  const auto stress_stats = broker.topic("stress").stats();
  EXPECT_EQ(stress_stats.produced_records, kTotal);
  EXPECT_LE(stress_stats.retained_records, stress_stats.produced_records);
  EXPECT_GE(stress_stats.fetched_records, kTotal);  // accounting consumer alone saw all
  const auto churny_stats = broker.topic("churny").stats();
  EXPECT_EQ(churny_stats.produced_records, kTotal);
  EXPECT_EQ(churny_stats.retained_bytes + churny_stats.evicted_bytes,
            churny_stats.produced_bytes);
  // Size-bound retention actually ran (the race was real).
  EXPECT_GT(churny_stats.evicted_bytes, 0u);
  EXPECT_EQ(broker.lag("accounting", "stress"), 0);
}

TEST(BrokerStressTest, ParallelGroupMembersPartitionTheTopic) {
  Broker broker;
  TopicConfig tc;
  tc.num_partitions = 6;
  broker.create_topic("shared", tc);
  BatchBuilder staged;
  for (std::size_t j = 0; j < 1200; ++j) staged.add(0, "k" + std::to_string(j % 97), std::to_string(j));
  broker.producer("shared").produce_staged(staged);

  std::atomic<std::uint64_t> consumed{0};
  constexpr std::size_t kMembers = 3;
  std::vector<std::vector<std::size_t>> seen(kMembers);
  std::vector<std::thread> members;
  members.reserve(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    members.emplace_back([&, m] {
      GroupMember member(broker, "fleet", "shared");
      std::size_t idle = 0;
      while (idle < 2000) {
        const auto got = member.poll(64);
        if (got.empty()) {
          ++idle;
          std::this_thread::yield();
          continue;
        }
        idle = 0;
        consumed.fetch_add(got.size());
        for (const auto& r : got) seen[m].push_back(std::stoul(std::string(r.payload)));
        member.commit();
      }
    });
  }
  for (auto& t : members) t.join();

  // Members join while others already poll, so a rebalance can land
  // between a poll and its commit — the group guarantee is at-least-once,
  // not exactly-once. Assert what the broker actually promises: nothing
  // is lost (all 1200 distinct records reach the fleet), re-delivery is
  // the only slack in the count, and the committed offsets drain the lag.
  std::set<std::size_t> distinct;
  for (const auto& s : seen) distinct.insert(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 1200u);
  EXPECT_GE(consumed.load(), 1200u);
  EXPECT_EQ(broker.lag("fleet", "shared"), 0);
}

TEST(BrokerStressTest, ProduceBatchRacesRetentionAndReaders) {
  // Batched producers, cached Producer handles, aggressive size-bound
  // retention and a polling reader all racing on one topic. Invariants:
  // per-partition offsets stay strictly monotonic across batch and
  // one-record flushes, and byte accounting balances at quiescence. TSan
  // target.
  Broker broker;
  TopicConfig tc;
  tc.num_partitions = 4;
  tc.segment_bytes = 1 << 10;  // many small segments: retention churns
  tc.retention = RetentionPolicy{0, 32 << 10};
  broker.create_topic("batched", tc);

  constexpr std::size_t kBatches = 120;
  constexpr std::size_t kBatchSize = 32;
  std::atomic<bool> producers_done{false};
  std::atomic<std::uint64_t> monotonicity_violations{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&broker, p] {
      Producer producer = broker.producer("batched");
      BatchBuilder staged;
      for (std::size_t j = 0; j < kBatches; ++j) {
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          // Keyless: exercises the shared round-robin cursor under races.
          staged.add(static_cast<common::TimePoint>(j) * common::kSecond, "",
                     std::to_string(p) + ":" + std::to_string(j * kBatchSize + i));
        }
        producer.produce_staged(staged);
        // Interleave a one-record flush: both share the cursor.
        stage_record(staged, p, j);
        producer.produce_staged(staged);
      }
    });
  }

  std::thread retention([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      broker.enforce_retention(0);
      std::this_thread::yield();
    }
    broker.enforce_retention(0);
  });

  std::thread reader([&] {
    // Races fetch against concurrent batch appends and eviction; the
    // per-partition order invariant is verified after quiescence below.
    GroupMember consumer(broker, "batch-reader", "batched");
    while (!producers_done.load(std::memory_order_acquire)) {
      consumer.poll(256);
      consumer.commit();
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  retention.join();
  reader.join();

  // Per-partition offsets strictly monotonic and dense from the start
  // offset (batch appends reserve contiguous ranges under the lock).
  auto& topic = broker.topic("batched");
  for (std::size_t p = 0; p < topic.num_partitions(); ++p) {
    FetchView got;
    topic.partition(p).fetch_view(topic.partition(p).start_offset(), 1 << 20, got);
    for (std::size_t i = 1; i < got.size(); ++i) {
      if (got[i].offset != got[i - 1].offset + 1) monotonicity_violations.fetch_add(1);
    }
  }
  EXPECT_EQ(monotonicity_violations.load(), 0u);

  const auto stats = topic.stats();
  const std::uint64_t expected = kProducers * kBatches * (kBatchSize + 1);
  EXPECT_EQ(stats.produced_records, expected);
  EXPECT_EQ(stats.retained_bytes + stats.evicted_bytes, stats.produced_bytes);
  EXPECT_GT(stats.evicted_bytes, 0u);  // retention actually raced the producers
}

// Property: a pinned RecordView survives concurrent enforce_retention
// evicting its backing segment, and reads byte-identical to the record
// that was produced. Every payload encodes its sequence number, so
// each held view can be checked against the exact bytes its producer
// wrote — after aggressive retention has swept the topic many times.
// Run under -DODA_SANITIZE=address / thread to prove the lifetime story.
TEST(BrokerStressTest, PinnedViewsSurviveConcurrentRetention) {
  Broker broker;
  TopicConfig tc;
  tc.num_partitions = 2;
  tc.segment_bytes = 1 << 10;  // small segments: eviction is frequent
  tc.retention = RetentionPolicy{2 * common::kSecond, -1};
  broker.create_topic("evict", tc);

  constexpr std::size_t kRecords = 4000;
  std::atomic<bool> produced_all{false};

  std::thread producer_thread([&] {
    auto producer = broker.producer("evict");
    BatchBuilder staged;
    for (std::size_t j = 0; j < kRecords; ++j) {
      staged.add(static_cast<common::TimePoint>(j) * common::kSecond,
                 "host" + std::to_string(j % 7), "payload-" + std::to_string(j));
      producer.produce_staged(staged);
    }
    produced_all.store(true, std::memory_order_release);
  });

  std::thread retention_thread([&] {
    common::TimePoint now = 0;
    while (!produced_all.load(std::memory_order_acquire)) {
      now += common::kSecond;
      broker.enforce_retention(now);
      std::this_thread::yield();
    }
    // Final sweep: everything evictable is evicted while views are held.
    broker.enforce_retention(static_cast<common::TimePoint>(kRecords + 100) * common::kSecond);
  });

  // The reader holds every FetchView it polls for the whole run, so the
  // views' segments are evicted out from under them by the sweeps above.
  std::vector<FetchView> held;
  {
    GroupMember consumer(broker, "g", "evict");
    for (;;) {
      FetchView v = consumer.poll(97);
      if (!v.empty()) {
        held.push_back(std::move(v));
      } else if (produced_all.load(std::memory_order_acquire) && consumer.lag() == 0) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  }
  producer_thread.join();
  retention_thread.join();

  std::uint64_t checked = 0;
  for (const FetchView& fv : held) {
    for (const RecordView& v : fv) {
      const std::string payload(v.payload);
      ASSERT_EQ(payload.rfind("payload-", 0), 0u) << payload;
      const std::size_t j = std::stoull(payload.substr(8));
      EXPECT_EQ(v.key, "host" + std::to_string(j % 7));
      EXPECT_EQ(v.timestamp, static_cast<common::TimePoint>(j) * common::kSecond);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(BrokerStressTest, StagedProducersRaceConsumersAndRetention) {
  // The zero-copy write path under fire: N producers encode into their
  // own staging buffers and group-commit flushes into one topic while
  // zero-copy readers hold views and retention sweeps race. Invariants:
  // exactly-once (no record lost, duplicated or torn), per-partition
  // offsets dense, and pinned views stay byte-valid after eviction.
  // TSan target.
  Broker broker;
  TopicConfig tc;
  tc.num_partitions = 4;
  tc.segment_bytes = 1 << 12;  // small segments: group commits cross rolls
  broker.create_topic("staged", tc);  // unbounded: every record audited
  TopicConfig churn = tc;
  churn.segment_bytes = 1 << 10;
  churn.retention = RetentionPolicy{2 * common::kSecond, -1};
  broker.create_topic("staged-churn", churn);  // retention races for real

  constexpr std::size_t kStagedProducers = 4;
  constexpr std::size_t kFlushes = 150;
  constexpr std::size_t kPerFlush = 24;
  constexpr std::size_t kPerProd = kFlushes * kPerFlush;
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> producers;
  producers.reserve(kStagedProducers);
  for (std::size_t p = 0; p < kStagedProducers; ++p) {
    producers.emplace_back([&broker, p] {
      Producer producer = broker.producer("staged");
      Producer churner = broker.producer("staged-churn");
      BatchBuilder staging;
      BatchBuilder churn_staging;
      for (std::size_t j = 0; j < kFlushes; ++j) {
        for (std::size_t i = 0; i < kPerFlush; ++i) {
          const std::size_t seq = j * kPerFlush + i;
          const std::string payload = std::to_string(p) + ":" + std::to_string(seq);
          if (i % 3 == 0) {
            // Keyless via the writer API: shared round-robin cursor.
            common::ByteWriter& w = staging.begin_record(
                static_cast<common::TimePoint>(seq) * common::kSecond);
            staging.begin_payload();
            w.raw(payload.data(), payload.size());
            staging.end_record();
          } else {
            staging.add(static_cast<common::TimePoint>(seq) * common::kSecond,
                        "p" + std::to_string(p), payload);
          }
        }
        producer.produce_staged(staging);
        stage_record(churn_staging, p, j);
        churner.produce_staged(churn_staging);  // keeps eviction busy
      }
    });
  }

  std::thread retention([&] {
    common::TimePoint now = 0;
    while (!producers_done.load(std::memory_order_acquire)) {
      now += common::kSecond;
      broker.enforce_retention(now);
      std::this_thread::yield();
    }
    broker.enforce_retention(static_cast<common::TimePoint>(kFlushes + 100) * common::kSecond);
  });

  // Two zero-copy reader groups; one pins every view it ever polled so
  // segment eviction and arena lifetimes are exercised while the staged
  // topic's segments stay referenced.
  std::atomic<std::uint64_t> torn{0};
  std::vector<FetchView> held;
  std::thread pinning_reader([&] {
    GroupMember consumer(broker, "pin", "staged");
    while (!producers_done.load(std::memory_order_acquire) || consumer.lag() > 0) {
      FetchView v = consumer.poll(128);
      if (v.empty()) {
        std::this_thread::yield();
        continue;
      }
      for (const RecordView& rv : v) {
        // Torn-record check while racing appends: payload must parse as
        // "<producer>:<seq>" with a consistent timestamp.
        const std::string payload(rv.payload);
        const std::size_t colon = payload.find(':');
        if (colon == std::string::npos) {
          torn.fetch_add(1);
          continue;
        }
        const std::size_t seq = std::stoull(payload.substr(colon + 1));
        if (rv.timestamp != static_cast<common::TimePoint>(seq) * common::kSecond) {
          torn.fetch_add(1);
        }
      }
      held.push_back(std::move(v));
    }
  });
  std::thread churn_reader([&] {
    GroupMember consumer(broker, "churn", "staged-churn");
    while (!producers_done.load(std::memory_order_acquire)) {
      consumer.poll(64);  // races eviction; gaps are fine here
      std::this_thread::yield();
    }
  });

  for (auto& t : producers) t.join();
  producers_done.store(true, std::memory_order_release);
  retention.join();
  pinning_reader.join();
  churn_reader.join();
  EXPECT_EQ(torn.load(), 0u);

  // Exactly-once audit over the full topic: every (producer, seq) pair
  // appears exactly once, and per-partition offsets are dense.
  auto& topic = broker.topic("staged");
  std::vector<std::vector<bool>> seen(kStagedProducers, std::vector<bool>(kPerProd, false));
  std::uint64_t total = 0, duplicates = 0;
  for (std::size_t p = 0; p < topic.num_partitions(); ++p) {
    FetchView got;
    topic.partition(p).fetch_view(topic.partition(p).start_offset(), 1 << 20, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(got[i].offset, got[i - 1].offset + 1);
      }
      const std::string payload(got[i].payload);
      const std::size_t colon = payload.find(':');
      ASSERT_NE(colon, std::string::npos) << payload;
      const std::size_t prod = std::stoull(payload.substr(0, colon));
      const std::size_t seq = std::stoull(payload.substr(colon + 1));
      ASSERT_LT(prod, kStagedProducers);
      ASSERT_LT(seq, kPerProd);
      if (seen[prod][seq]) {
        ++duplicates;
      } else {
        seen[prod][seq] = true;
        ++total;
      }
      // Keyed records carry their producer's key; keyless carry none.
      if (!got[i].key.empty()) {
        EXPECT_EQ(got[i].key, "p" + std::to_string(prod));
      }
    }
  }
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(total, kStagedProducers * kPerProd);  // nothing lost

  // Pinned views from mid-run still read the same bytes at quiescence.
  std::uint64_t pinned_checked = 0;
  for (const FetchView& fv : held) {
    for (const RecordView& rv : fv) {
      const std::string payload(rv.payload);
      const std::size_t colon = payload.find(':');
      ASSERT_NE(colon, std::string::npos) << payload;
      const std::size_t seq = std::stoull(payload.substr(colon + 1));
      EXPECT_EQ(rv.timestamp, static_cast<common::TimePoint>(seq) * common::kSecond);
      ++pinned_checked;
    }
  }
  EXPECT_EQ(pinned_checked, kStagedProducers * kPerProd);

  const auto stats = topic.stats();
  EXPECT_EQ(stats.produced_records, kStagedProducers * kPerProd);
}

}  // namespace
}  // namespace oda::stream
