// Tests for the STREAM tier: partitions, topics, retention, consumer
// groups, offset recovery and concurrent produce/consume.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "stream/broker.hpp"

namespace oda::stream {
namespace {

/// An owned record: what a test stages and later compares with the views
/// the broker hands back.
struct Record {
  common::TimePoint timestamp = 0;
  std::string key;
  std::string payload;
  std::size_t wire_size() const { return key.size() + payload.size() + 24; }
};

Record make_record(common::TimePoint t, const std::string& key = "", std::size_t payload = 16) {
  Record r;
  r.timestamp = t;
  r.key = key;
  r.payload.assign(payload, 'x');
  return r;
}

/// Append one record as a batch of its own; returns its offset.
std::int64_t append_one(Partition& p, const Record& r) {
  const EncodedRecord e{r.timestamp, 0, 0, r.key, r.payload};
  return p.append_encoded_batch(std::span<const EncodedRecord>(&e, 1));
}

/// Flush one record on its own: one fault-seam visit, one rr draw if keyless.
std::size_t produce_one(Topic& t, const Record& r) {
  BatchBuilder staged(256);
  staged.add(r.timestamp, r.key, r.payload);
  return t.produce_staged(staged);
}
std::size_t produce_one(Producer& producer, const Record& r) {
  return produce_one(producer.topic(), r);
}

TEST(PartitionTest, AppendAssignsSequentialOffsets) {
  Partition p;
  EXPECT_EQ(append_one(p, make_record(1)), 0);
  EXPECT_EQ(append_one(p, make_record(2)), 1);
  EXPECT_EQ(p.end_offset(), 2);
  EXPECT_EQ(p.start_offset(), 0);
  EXPECT_EQ(p.record_count(), 2u);
}

TEST(PartitionTest, FetchFromOffsetAndLimit) {
  Partition p;
  for (int i = 0; i < 10; ++i) append_one(p, make_record(i));
  FetchView out;
  const std::int64_t next = p.fetch_view(3, 4, out);
  EXPECT_EQ(next, 7);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].offset, 3);
  EXPECT_EQ(out[0].timestamp, 3);
}

TEST(PartitionTest, FetchPastEndReturnsNothing) {
  Partition p;
  append_one(p, make_record(1));
  FetchView out;
  EXPECT_EQ(p.fetch_view(5, 10, out), 1);
  EXPECT_TRUE(out.empty());
}

TEST(PartitionTest, OffsetForTime) {
  Partition p;
  for (int i = 0; i < 10; ++i) append_one(p, make_record(i * 100));
  EXPECT_EQ(p.offset_for_time(0), 0);
  EXPECT_EQ(p.offset_for_time(250), 3);
  EXPECT_EQ(p.offset_for_time(900), 9);
  EXPECT_EQ(p.offset_for_time(10000), 10);  // past end
}

TEST(PartitionTest, RetentionByAgeDropsWholeSegmentsOnly) {
  Partition p(/*segment_bytes=*/200);  // ~5 records per segment
  for (int i = 0; i < 50; ++i) append_one(p, make_record(i * common::kSecond));
  const std::size_t evicted = p.enforce_retention({10 * common::kSecond, -1}, 60 * common::kSecond);
  EXPECT_GT(evicted, 0u);
  EXPECT_GT(p.start_offset(), 0);
  // Everything older than cutoff minus at most one segment is gone.
  FetchView out;
  p.fetch_view(0, 100, out);
  ASSERT_FALSE(out.empty());
  EXPECT_GE(out.front().offset, p.start_offset());
}

TEST(PartitionTest, RetentionBySizeKeepsActiveSegment) {
  Partition p(200);
  for (int i = 0; i < 100; ++i) append_one(p, make_record(i));
  p.enforce_retention({0, 400}, 1000);
  EXPECT_LE(p.size_bytes(), 800u);  // bounded (granularity = segment)
  EXPECT_GT(p.record_count(), 0u);  // active segment never evicted
}

TEST(PartitionTest, FetchSnapsForwardAfterEviction) {
  Partition p(200);
  for (int i = 0; i < 50; ++i) append_one(p, make_record(i * common::kSecond));
  p.enforce_retention({5 * common::kSecond, -1}, 100 * common::kSecond);
  FetchView out;
  p.fetch_view(0, 5, out);  // offset 0 evicted
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().offset, p.start_offset());
}

// ---- zero-copy view fetches -------------------------------------------

TEST(PartitionViewTest, FetchViewMatchesFetchByteForByte) {
  // The views hand back byte for byte what was staged.
  Partition p(256);  // several segments
  std::vector<Record> staged;
  for (int i = 0; i < 40; ++i) {
    Record r = make_record(i, "key" + std::to_string(i % 3), 24);
    r.payload = "payload-" + std::to_string(i) + r.payload;
    staged.push_back(r);
    append_one(p, r);
  }
  FetchView views;
  EXPECT_EQ(p.fetch_view(5, 20, views), 25);
  ASSERT_EQ(views.size(), 20u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const Record& want = staged[5 + i];
    EXPECT_EQ(views[i].offset, static_cast<std::int64_t>(5 + i));
    EXPECT_EQ(views[i].timestamp, want.timestamp);
    EXPECT_EQ(views[i].key, want.key);
    EXPECT_EQ(views[i].payload, want.payload);
    EXPECT_EQ(views[i].wire_size(), want.wire_size());
  }
  EXPECT_GT(views.pin_count(), 1u);  // the range spans segment boundaries
}

TEST(PartitionViewTest, PinnedViewSurvivesSegmentEviction) {
  Partition p(200);
  std::vector<Record> originals;
  for (int i = 0; i < 50; ++i) {
    Record r = make_record(i * common::kSecond, "host" + std::to_string(i % 4));
    r.payload = "payload-" + std::to_string(i);
    originals.push_back(r);
    append_one(p, std::move(r));
  }
  FetchView v;
  p.fetch_view(0, 10, v);
  ASSERT_EQ(v.size(), 10u);
  // Evict everything but the active segment; the pinned bytes must stay
  // readable and byte-identical.
  p.enforce_retention({1 * common::kSecond, -1}, 1000 * common::kSecond);
  EXPECT_GT(p.start_offset(), v.front().offset);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i].key, originals[i].key);
    EXPECT_EQ(v[i].payload, originals[i].payload);
  }
}

TEST(PartitionViewTest, ViewsOutliveThePartition) {
  FetchView v;
  {
    Partition p;
    Record r = make_record(7, "node42");
    r.payload = "the payload";
    append_one(p, std::move(r));
    p.fetch_view(0, 10, v);
  }  // the partition's segments are now only owned via the pins
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].key, "node42");
  EXPECT_EQ(v[0].payload, "the payload");
}

TEST(PartitionViewTest, KeyBytesPrecedePayloadInTheArena) {
  // A segment is self-contained: each record's key sits in the segment
  // arena immediately before its payload, across rolls made both between
  // and inside batches. Keyless records have an empty key.
  Partition p(128);  // three records per segment
  std::vector<Record> staged;
  for (int i = 0; i < 30; ++i) {
    staged.push_back(make_record(i, i % 5 == 0 ? "" : "host" + std::to_string(i % 3), 8));
  }
  for (int i = 0; i < 15; ++i) append_one(p, staged[static_cast<std::size_t>(i)]);
  std::vector<EncodedRecord> batch;
  for (std::size_t i = 15; i < staged.size(); ++i) {
    batch.push_back(EncodedRecord{staged[i].timestamp, 0, 0, staged[i].key, staged[i].payload});
  }
  p.append_encoded_batch(batch);

  FetchView v;
  p.fetch_view(0, 30, v);
  ASSERT_EQ(v.size(), 30u);
  EXPECT_GT(v.pin_count(), 5u);  // the range spans several segment rolls
  for (const RecordView& rv : v) {
    const Record& want = staged[static_cast<std::size_t>(rv.offset)];
    EXPECT_EQ(rv.key, want.key);
    EXPECT_EQ(rv.payload, want.payload);
    if (want.key.empty()) {
      EXPECT_TRUE(rv.key.empty()) << rv.offset;
    } else {
      EXPECT_EQ(rv.key.data() + rv.key.size(), rv.payload.data()) << rv.offset;
    }
  }
}

TEST(PartitionViewTest, DistinctKeysRoundTripAndSurviveEviction) {
  constexpr std::size_t kKeys = 1 << 16;
  Partition p(/*segment_bytes=*/8192);  // many segments across the fill
  for (std::size_t i = 0; i < kKeys; ++i) {
    append_one(p, make_record(static_cast<common::TimePoint>(i), "k" + std::to_string(i), 4));
  }
  const std::int64_t first_late = p.end_offset();
  for (int i = 0; i < 10; ++i) {
    Record r = make_record(1000000 + i, "late-key-" + std::to_string(i));
    r.payload = "late-payload-" + std::to_string(i);
    append_one(p, std::move(r));
  }
  EXPECT_EQ(p.record_count(), kKeys + 10);

  FetchView v;
  p.fetch_view(first_late, 10, v);
  ASSERT_EQ(v.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(v[i].key, "late-key-" + std::to_string(i));
    EXPECT_EQ(v[i].payload, "late-payload-" + std::to_string(i));
  }
  FetchView first;
  p.fetch_view(0, 1, first);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].key, "k0");
  // Keys live in the pinned arena, so views survive eviction of their
  // segment. Big keyless records first roll the log past the late
  // records' segment (the active segment is never evicted).
  for (int i = 0; i < 3; ++i) append_one(p, make_record(1000100 + i, "", 6000));
  p.enforce_retention({/*max_age=*/1, /*max_bytes=*/-1}, /*now=*/2000000 + kKeys);
  EXPECT_GT(p.start_offset(), first_late);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(v[i].key, "late-key-" + std::to_string(i));
    EXPECT_EQ(v[i].payload, "late-payload-" + std::to_string(i));
  }
}

TEST(PartitionViewTest, ZeroBudgetAndAtEndFetchesAreFree) {
  Partition p;
  for (int i = 0; i < 5; ++i) append_one(p, make_record(i));
  FetchView v;
  // Zero budget: nothing fetched, no pins taken, offset handed back.
  EXPECT_EQ(p.fetch_view(2, 0, v), 2);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.pin_count(), 0u);
  // At the end: reports the end offset without views or pins.
  EXPECT_EQ(p.fetch_view(5, 100, v), 5);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.pin_count(), 0u);
  // Past the end: snaps back to the end offset.
  EXPECT_EQ(p.fetch_view(99, 100, v), 5);
  EXPECT_TRUE(v.empty());
}

TEST(TopicTest, EmptyPollLeavesFetchCountersUntouched) {
  Broker b;
  b.create_topic("t", TopicConfig{}.with_partitions(2));
  GroupMember c(b, "g", "t");
  EXPECT_TRUE(c.poll(10).empty());  // nothing produced yet
  EXPECT_TRUE(c.poll(10).empty());
  const TopicStats s0 = b.topic("t").stats();
  EXPECT_EQ(s0.fetched_records, 0u);
  EXPECT_EQ(s0.fetched_bytes, 0u);

  auto producer = b.producer("t");
  Record r = make_record(1, "k");
  const std::size_t wire = r.wire_size();
  produce_one(producer, std::move(r));
  EXPECT_TRUE(c.poll(0).empty());  // zero-budget poll: still free
  EXPECT_EQ(b.topic("t").stats().fetched_records, 0u);
  EXPECT_EQ(c.poll(10).size(), 1u);
  const TopicStats s1 = b.topic("t").stats();
  EXPECT_EQ(s1.fetched_records, 1u);
  EXPECT_EQ(s1.fetched_bytes, wire);
}

TEST(TopicTest, KeyHashingIsStable) {
  Topic t("x", {4, 1 << 20, {}});
  produce_one(t, make_record(1, "nodeA"));
  produce_one(t, make_record(2, "nodeA"));
  // Both must land in the same partition.
  std::size_t with_data = 0;
  for (std::size_t p = 0; p < t.num_partitions(); ++p) {
    if (t.partition(p).record_count() > 0) {
      ++with_data;
      EXPECT_EQ(t.partition(p).record_count(), 2u);
    }
  }
  EXPECT_EQ(with_data, 1u);
}

TEST(TopicTest, EmptyKeyRoundRobins) {
  Topic t("x", {4, 1 << 20, {}});
  for (int i = 0; i < 8; ++i) produce_one(t, make_record(i));
  for (std::size_t p = 0; p < 4; ++p) EXPECT_EQ(t.partition(p).record_count(), 2u);
}

TEST(TopicTest, StatsTrackProducedAndRetained) {
  Topic t("x", {2, 1 << 20, {}});
  for (int i = 0; i < 10; ++i) produce_one(t, make_record(i, "k" + std::to_string(i)));
  const auto s = t.stats();
  EXPECT_EQ(s.produced_records, 10u);
  EXPECT_EQ(s.retained_records, 10u);
  EXPECT_GT(s.produced_bytes, 0u);
}

TEST(BrokerTest, CreateTopicIdempotent) {
  Broker b;
  Topic& t1 = b.create_topic("t", {2, 1 << 20, {}});
  Topic& t2 = b.create_topic("t", {8, 1 << 20, {}});  // config of first creation wins
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(t1.num_partitions(), 2u);
  EXPECT_TRUE(b.has_topic("t"));
  EXPECT_FALSE(b.has_topic("nope"));
  EXPECT_THROW(b.topic("nope"), std::out_of_range);
}

// The broker's one reader is a GroupMember; a member alone in its group
// reads every partition of the topic.

TEST(ReaderTest, PollsAllRecordsAcrossPartitions) {
  Broker b;
  b.create_topic("t", {4, 1 << 20, {}});
  auto producer = b.producer("t");
  for (int i = 0; i < 100; ++i) produce_one(producer, make_record(i, "k" + std::to_string(i)));
  GroupMember c(b, "g", "t");
  std::size_t total = 0;
  for (;;) {
    const auto batch = c.poll(7);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(c.lag(), 0);
}

TEST(ReaderTest, CommitAndResumeFromCommitted) {
  Broker b;
  b.create_topic("t", {2, 1 << 20, {}});
  auto producer = b.producer("t");
  for (int i = 0; i < 20; ++i) produce_one(producer, make_record(i, "k" + std::to_string(i)));

  std::size_t committed = 0;
  {
    GroupMember c1(b, "g", "t");
    const auto first = c1.poll(3);  // at most 3 from each partition
    committed = first.size();
    EXPECT_GT(committed, 0u);
    EXPECT_LE(committed, 6u);
    c1.commit();
    (void)c1.poll(2);  // uncommitted reads
  }  // the reader dies: it leaves the group before its successor joins

  // A "restarted" reader resumes from the commit, not the last read.
  GroupMember c2(b, "g", "t");
  std::size_t total = 0;
  for (;;) {
    const auto batch = c2.poll(64);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 20u - committed);  // produced - committed
}

TEST(ReaderTest, IndependentGroupsSeeFullStream) {
  Broker b;
  b.create_topic("t", {2, 1 << 20, {}});
  auto producer = b.producer("t");
  for (int i = 0; i < 30; ++i) produce_one(producer, make_record(i));
  GroupMember a(b, "groupA", "t"), c(b, "groupB", "t");
  EXPECT_EQ(a.poll(100).size(), 30u);
  EXPECT_EQ(c.poll(100).size(), 30u);  // fan-out: each group gets everything
}

TEST(ReaderTest, SeekToTime) {
  Broker b;
  b.create_topic("t", {1, 1 << 20, {}});
  auto producer = b.producer("t");
  for (int i = 0; i < 10; ++i) produce_one(producer, make_record(i * common::kMinute));
  GroupMember c(b, "g", "t");
  c.seek_to_time(5 * common::kMinute);
  const auto batch = c.poll(100);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.front().timestamp, 5 * common::kMinute);
}

TEST(BrokerTest, LagAccountsCommittedOffsets) {
  Broker b;
  b.create_topic("t", {2, 1 << 20, {}});
  auto producer = b.producer("t");
  for (int i = 0; i < 10; ++i) produce_one(producer, make_record(i));
  EXPECT_EQ(b.lag("g", "t"), 10);
  GroupMember c(b, "g", "t");
  (void)c.poll(2);  // 2 from each of the 2 partitions
  c.commit();
  EXPECT_EQ(b.lag("g", "t"), 6);
}

TEST(BrokerTest, RetentionAllTopics) {
  Broker b;
  b.create_topic("a", {1, 128, {}});
  b.create_topic("x", {1, 128, {}});
  auto pa = b.producer("a");
  auto px = b.producer("x");
  for (int i = 0; i < 100; ++i) {
    produce_one(pa, make_record(i * common::kSecond));
    produce_one(px, make_record(i * common::kSecond));
  }
  b.set_retention_all({10 * common::kSecond, -1});
  const std::size_t evicted = b.enforce_retention(200 * common::kSecond);
  EXPECT_GT(evicted, 0u);
}

TEST(BrokerTest, ConcurrentProducersAndConsumer) {
  Broker b;
  b.create_topic("t", {4, 1 << 20, {}});
  constexpr int kPerThread = 5000;
  std::vector<std::thread> producers;
  for (int tid = 0; tid < 4; ++tid) {
    producers.emplace_back([&b, tid] {
      auto producer = b.producer("t");
      for (int i = 0; i < kPerThread; ++i) {
        produce_one(producer, make_record(i, "t" + std::to_string(tid) + "_" + std::to_string(i)));
      }
    });
  }
  for (auto& t : producers) t.join();

  GroupMember c(b, "g", "t");
  std::size_t total = 0;
  for (;;) {
    const auto batch = c.poll(1024);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 4u * kPerThread);
}

TEST(TopicConfigTest, ValidateRejectsNonsense) {
  Broker b;
  EXPECT_THROW(b.create_topic("no_parts", TopicConfig{}.with_partitions(0)),
               std::invalid_argument);
  EXPECT_THROW(b.create_topic("no_bytes", TopicConfig{}.with_segment_bytes(0)),
               std::invalid_argument);
  // Fluent setters chain and survive validation.
  EXPECT_NO_THROW(b.create_topic(
      "ok", TopicConfig{}.with_partitions(2).with_segment_bytes(1 << 10).with_retention(
                RetentionPolicy{0, 1 << 20})));
  EXPECT_EQ(b.topic("ok").num_partitions(), 2u);
}

TEST(TopicTest, ProduceBatchMatchesSequentialProduce) {
  // Same records flushed as one batch and one per flush must land on the
  // same partitions at the same offsets — batching is a locking
  // optimization, not a placement change.
  Broker seq_broker;
  Broker batch_broker;
  auto& seq_topic = seq_broker.create_topic("t", TopicConfig{}.with_partitions(4));
  auto& batch_topic = batch_broker.create_topic("t", TopicConfig{}.with_partitions(4));

  BatchBuilder batch;
  for (std::size_t i = 0; i < 200; ++i) {
    // Mix keyed (hash placement) and keyless (round-robin placement).
    const std::string key = i % 3 == 0 ? "" : "k" + std::to_string(i % 7);
    const Record r = make_record(static_cast<common::TimePoint>(i), key);
    EXPECT_EQ(produce_one(seq_topic, r), 1u);
    batch.add(r.timestamp, r.key, r.payload);
  }
  EXPECT_EQ(batch_topic.produce_staged(batch), 200u);

  EXPECT_EQ(seq_topic.stats().produced_records, batch_topic.stats().produced_records);
  EXPECT_EQ(seq_topic.stats().produced_bytes, batch_topic.stats().produced_bytes);
  for (std::size_t p = 0; p < 4; ++p) {
    FetchView a, b;
    seq_topic.partition(p).fetch_view(0, 1000, a);
    batch_topic.partition(p).fetch_view(0, 1000, b);
    ASSERT_EQ(a.size(), b.size()) << "partition " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].offset, b[i].offset);
      EXPECT_EQ(a[i].timestamp, b[i].timestamp);
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].payload, b[i].payload);
    }
  }
}

TEST(TopicTest, ProduceBatchInterleavesWithSingleProduce) {
  // The shared round-robin cursor keeps mixed traffic balanced: a batch
  // flush then one-record flushes must cover partitions exactly like
  // all one-record flushes would.
  Broker b;
  auto& topic = b.create_topic("t", TopicConfig{}.with_partitions(4));
  BatchBuilder batch;
  for (std::size_t i = 0; i < 6; ++i) batch.add(1, "", "x");
  EXPECT_EQ(topic.produce_staged(batch), 6u);  // keyless: rr 0..5
  produce_one(topic, make_record(1));          // keyless: rr 6
  produce_one(topic, make_record(1));          // keyless: rr 7
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(topic.partition(p).record_count(), 2u) << "partition " << p;
  }
}

TEST(ProducerTest, CachedHandleProducesAndBatches) {
  Broker b;
  b.create_topic("t", TopicConfig{}.with_partitions(2));
  Producer producer = b.producer("t");
  EXPECT_EQ(producer.topic_name(), "t");
  BatchBuilder staged;
  staged.add(1, "k", "x");
  EXPECT_EQ(producer.produce_staged(staged), 1u);
  staged.add(2, "k", "y");
  staged.add(3, "k", "z");
  EXPECT_EQ(producer.produce_staged(staged), 2u);
  EXPECT_EQ(b.topic("t").stats().produced_records, 3u);
  // Unknown topics still fail fast at handle resolution.
  EXPECT_THROW(b.producer("missing"), std::out_of_range);
}

TEST(StagedProduceTest, MatchesProduceBatchByteForByte) {
  // Staged flushes store byte for byte the owned Records they were
  // staged from, and every record lands where the placement rule puts
  // it, whatever the flush boundaries: a keyed record on
  // fnv1a(key) % partitions, a
  // keyless one on the topic's shared round-robin cursor, which each flush
  // advances by its keyless count. Within a partition, offsets are dense
  // and follow staging order, and the bytes land unchanged.
  constexpr std::size_t kPartitions = 4;
  Broker b;
  auto& topic = b.create_topic("t", TopicConfig{}.with_partitions(kPartitions));
  common::Rng rng(0x57a6ed);
  BatchBuilder staged;
  std::vector<std::vector<Record>> want(kPartitions);
  std::uint64_t rr = 0;
  std::uint64_t wire = 0;
  std::size_t total = 0;
  // One-record flushes between batches, and an empty flush.
  for (const std::size_t n : {6, 1, 1, 200, 0, 1, 37, 2, 1}) {
    for (std::size_t i = 0; i < n; ++i, ++total) {
      const std::string key = total % 3 == 0 ? "" : "k" + std::to_string(rng.uniform_index(7));
      std::string payload(rng.uniform_index(64) + 1, 'a');
      for (char& c : payload) c = static_cast<char>('a' + rng.uniform_index(26));
      const auto ts = static_cast<common::TimePoint>(total);
      staged.add(ts, key, payload);
      const std::size_t p = key.empty() ? rr++ % kPartitions : common::fnv1a(key) % kPartitions;
      want[p].push_back(Record{ts, key, payload});
      wire += want[p].back().wire_size();
    }
    EXPECT_EQ(topic.produce_staged(staged), n);
    EXPECT_TRUE(staged.empty());  // consumed on success
  }

  EXPECT_EQ(topic.stats().produced_records, total);
  EXPECT_EQ(topic.stats().produced_bytes, wire);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    FetchView got;
    topic.partition(p).fetch_view(0, total, got);
    ASSERT_EQ(got.size(), want[p].size()) << "partition " << p;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, static_cast<std::int64_t>(i)) << "partition " << p;
      EXPECT_EQ(got[i].timestamp, want[p][i].timestamp);
      EXPECT_EQ(got[i].key, want[p][i].key);
      EXPECT_EQ(got[i].payload, want[p][i].payload);
    }
  }
}

TEST(StagedProduceTest, WriterApiMatchesAddApi) {
  // begin_record/begin_payload/end_record encodes the same bytes add()
  // copies in.
  BatchBuilder via_add;
  BatchBuilder via_writer;
  via_add.add(7, "key7", "payload-bytes");
  common::ByteWriter& w = via_writer.begin_record(7);
  w.raw("key", 3);
  w.raw("7", 1);
  via_writer.begin_payload();
  w.raw("payload-bytes", 13);
  via_writer.end_record();

  std::vector<EncodedRecord> a, b;
  via_add.snapshot(a);
  via_writer.snapshot(b);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].timestamp, b[0].timestamp);
  EXPECT_EQ(a[0].key, b[0].key);
  EXPECT_EQ(a[0].payload, b[0].payload);
}

TEST(StagedProduceTest, EncodedBatchRoundTripsManyDistinctKeys) {
  // Property: randomized payloads under tens of thousands of distinct
  // keys, with a repeated-key mix, round-trip byte-identically through
  // uneven batches.
  const std::size_t kKeys = (1 << 16) + 5000;
  Partition part(1 << 20);
  common::Rng rng(0xd1c7);
  std::vector<Record> originals;
  originals.reserve(kKeys);
  std::vector<EncodedRecord> encoded;
  encoded.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    Record r;
    r.timestamp = static_cast<common::TimePoint>(i);
    // Mostly distinct keys; every 10th record repeats one of 97 keys.
    r.key = i % 10 == 0 ? "k" + std::to_string(i % 97) : "key-" + std::to_string(i);
    r.payload.assign(rng.uniform_index(24) + 1,
                     static_cast<char>('a' + rng.uniform_index(26)));
    originals.push_back(std::move(r));
  }
  for (const Record& r : originals) {
    encoded.push_back(EncodedRecord{r.timestamp, 0, 0, r.key, r.payload});
  }
  // Split into uneven batches, including empty ones.
  std::size_t at = 0;
  std::int64_t expect_first = 0;
  while (at < encoded.size()) {
    const std::size_t take = std::min<std::size_t>(rng.uniform_index(4096), encoded.size() - at);
    const std::int64_t first =
        part.append_encoded_batch(std::span<const EncodedRecord>(encoded).subspan(at, take));
    EXPECT_EQ(first, expect_first);
    expect_first += static_cast<std::int64_t>(take);
    at += take;
  }

  FetchView out;
  std::int64_t cursor = 0;
  std::size_t seen = 0;
  while (true) {
    FetchView chunk;
    const std::int64_t next = part.fetch_view(cursor, 8192, chunk);
    if (chunk.empty()) break;
    for (const RecordView& v : chunk) {
      const Record& orig = originals[seen];
      ASSERT_EQ(v.offset, static_cast<std::int64_t>(seen));
      EXPECT_EQ(v.timestamp, orig.timestamp);
      EXPECT_EQ(v.key, orig.key);
      EXPECT_EQ(v.payload, orig.payload);
      ++seen;
    }
    cursor = next;
  }
  EXPECT_EQ(seen, kKeys);
}

TEST(StagedProduceTest, EmptyBatchesAndFlushesAreNoOps) {
  Broker b;
  auto& topic = b.create_topic("t", TopicConfig{}.with_partitions(2));
  Producer producer = b.producer("t");
  BatchBuilder empty;
  EXPECT_EQ(producer.produce_staged(empty), 0u);
  EXPECT_EQ(topic.produce_staged(empty), 0u);
  Partition part;
  EXPECT_EQ(part.append_encoded_batch({}), 0);
  EXPECT_EQ(topic.stats().produced_records, 0u);
  EXPECT_EQ(part.end_offset(), 0);
}

TEST(StagedProduceTest, ProducerStagingFlushInterleavesWithRoundRobin) {
  // A batch's keyless records and one-record flushes draw from the SAME
  // shared rr cursor, so mixed batch/single traffic stays balanced.
  Broker b;
  auto& topic = b.create_topic("t", TopicConfig{}.with_partitions(4));
  Producer producer = b.producer("t");
  BatchBuilder staged;
  for (std::size_t i = 0; i < 6; ++i) staged.add(1, "", "x");
  EXPECT_EQ(producer.produce_staged(staged), 6u);  // keyless: rr 0..5
  produce_one(producer, make_record(1));  // rr 6
  produce_one(producer, make_record(1));  // rr 7
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(topic.partition(p).record_count(), 2u) << "partition " << p;
  }
}

TEST(StagedProduceTest, BuilderCapacityIsReusedAcrossFlushes) {
  // Steady-state staging must not allocate per record: after the first
  // flush cycle the arena and entry table retain capacity.
  Broker b;
  b.create_topic("t", TopicConfig{}.with_partitions(2));
  Producer producer = b.producer("t");
  BatchBuilder staging;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 100; ++i) {
      staging.add(static_cast<common::TimePoint>(i), "k", "0123456789abcdef");
    }
    EXPECT_EQ(staging.pending(), 100u);
    EXPECT_EQ(staging.wire_bytes(), 100u * (1 + 16 + 24));
    EXPECT_EQ(producer.produce_staged(staging), 100u);
    EXPECT_TRUE(staging.empty());
    EXPECT_EQ(staging.pending_bytes(), 0u);
  }
  EXPECT_EQ(b.topic("t").stats().produced_records, 300u);
}

TEST(ReaderTest, CommittedDrainReplaysNothing) {
  Broker b;
  b.create_topic("t", TopicConfig{}.with_partitions(2));
  auto producer = b.producer("t");
  for (std::size_t i = 0; i < 10; ++i) produce_one(producer, make_record(1, "k" + std::to_string(i)));

  GroupMember member(b, "g", "t");
  EXPECT_EQ(member.lag(), 10);
  std::size_t total = 0;
  for (;;) {
    const auto polled = member.poll(4);
    if (polled.empty()) break;
    total += polled.size();
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(member.lag(), 0);
  member.commit();
  member.seek_to_committed();
  EXPECT_TRUE(member.poll(4).empty());  // committed at end: nothing replays
}

}  // namespace
}  // namespace oda::stream
