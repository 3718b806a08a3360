// Tests for consumer-group rebalancing (parallel pipeline consumption)
// and CSV export.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sql/table.hpp"
#include "stream/broker.hpp"

namespace oda {
namespace {

using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

/// One fetched record, owned, so polls can be compared after their views
/// are gone.
struct Fetched {
  std::int64_t offset = 0;
  common::TimePoint timestamp = 0;
  std::string key;
  std::string payload;
  bool operator==(const Fetched&) const = default;
};

void PrintTo(const Fetched& f, std::ostream* os) {
  *os << "{offset " << f.offset << ", ts " << f.timestamp << ", key " << f.key << ", payload "
      << f.payload << "}";
}

void append_owned(std::span<const stream::RecordView> views, std::vector<Fetched>& out) {
  for (const stream::RecordView& v : views) {
    out.push_back({v.offset, v.timestamp, std::string(v.key), std::string(v.payload)});
  }
}

std::vector<Fetched> owned(std::span<const stream::RecordView> views) {
  std::vector<Fetched> out;
  append_owned(views, out);
  return out;
}

class GroupMemberTest : public ::testing::Test {
 protected:
  GroupMemberTest() {
    broker_.create_topic("t", {4, 1 << 20, {}});
    stream::BatchBuilder staged;
    for (int i = 0; i < 100; ++i) staged.add(i, "k" + std::to_string(i), "p");
    broker_.producer("t").produce_staged(staged);
  }
  stream::Broker broker_;
};

TEST_F(GroupMemberTest, SingleMemberOwnsAllPartitions) {
  stream::GroupMember m(broker_, "g", "t");
  EXPECT_EQ(m.assigned_partitions().size(), 4u);
  std::size_t total = 0;
  for (;;) {
    const auto batch = m.poll(16);
    if (batch.empty()) break;
    total += batch.size();
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(GroupMemberTest, TwoMembersSplitPartitionsDisjointly) {
  stream::GroupMember a(broker_, "g", "t");
  stream::GroupMember b(broker_, "g", "t");
  // Poll both: assignments refresh to the 2-member generation.
  std::size_t total = 0;
  std::set<std::size_t> parts;
  for (;;) {
    const auto ba = a.poll(16);
    const auto bb = b.poll(16);
    if (ba.empty() && bb.empty()) break;
    total += ba.size() + bb.size();
  }
  for (auto p : a.assigned_partitions()) parts.insert(p);
  EXPECT_EQ(a.assigned_partitions().size(), 2u);
  EXPECT_EQ(b.assigned_partitions().size(), 2u);
  for (auto p : b.assigned_partitions()) {
    EXPECT_TRUE(parts.insert(p).second) << "partition " << p << " assigned twice";
  }
  EXPECT_EQ(total, 100u);  // every record seen exactly once across members
}

TEST_F(GroupMemberTest, LeaveTriggersRebalanceAndProgressSurvives) {
  auto a = std::make_unique<stream::GroupMember>(broker_, "g", "t");
  stream::GroupMember b(broker_, "g", "t");

  // Drain roughly half the stream through both, committing progress.
  std::size_t consumed = 0;
  while (consumed < 40) {
    consumed += a->poll(8).size();
    consumed += b.poll(8).size();
  }
  a->commit();
  b.commit();
  const std::size_t before_leave = consumed;

  a.reset();  // member leaves; b inherits its partitions at the commit
  for (;;) {
    const auto batch = b.poll(16);
    if (batch.empty()) break;
    consumed += batch.size();
  }
  EXPECT_EQ(b.assigned_partitions().size(), 4u);
  // All 100 records seen, no loss: b resumed the departed member's
  // partitions from the committed offsets. (Records between commit and
  // leave may be replayed — at-least-once — so allow >=.)
  EXPECT_GE(consumed, 100u);
  EXPECT_GE(consumed, before_leave);
}

TEST_F(GroupMemberTest, JoinBumpsGeneration) {
  EXPECT_EQ(broker_.group_generation("g", "t"), 0u);
  stream::GroupMember a(broker_, "g", "t");
  EXPECT_EQ(broker_.group_generation("g", "t"), 1u);
  {
    stream::GroupMember b(broker_, "g", "t");
    EXPECT_EQ(broker_.group_generation("g", "t"), 2u);
  }
  EXPECT_EQ(broker_.group_generation("g", "t"), 3u);  // leave bumps too
}

TEST_F(GroupMemberTest, StaleGenerationCommitIsFencedNotRegressed) {
  stream::GroupMember a(broker_, "g", "t");
  std::size_t polled = 0;
  for (;;) {
    const auto batch = a.poll(16);  // all 4 partitions, generation 1
    if (batch.empty()) break;
    polled += batch.size();
  }
  EXPECT_EQ(polled, 100u);

  // A second member joins before `a` commits: generation bumps, so the
  // commit below carries a stale generation and must be dropped — the
  // offset store stays empty rather than recording progress the new
  // owner never agreed to.
  stream::GroupMember b(broker_, "g", "t");
  a.commit();
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(broker_.committed("g", {"t", p}).has_value());
  }

  // The records are not lost: after refreshing (next poll), both members
  // re-read their halves from the last accepted commit (none — so from
  // the start) and their current-generation commits land. At-least-once
  // across the rebalance, and the group lag drains to zero.
  std::size_t redelivered = 0;
  for (;;) {
    const auto ba = a.poll(16);
    const auto bb = b.poll(16);
    if (ba.empty() && bb.empty()) break;
    redelivered += ba.size() + bb.size();
    a.commit();
    b.commit();
  }
  EXPECT_EQ(redelivered, 100u);
  EXPECT_EQ(broker_.lag("g", "t"), 0);
}

TEST_F(GroupMemberTest, MoreMembersThanPartitionsLeavesSomeIdle) {
  std::vector<std::unique_ptr<stream::GroupMember>> members;
  for (int i = 0; i < 6; ++i) members.push_back(std::make_unique<stream::GroupMember>(broker_, "g", "t"));
  std::size_t total = 0, with_assignment = 0;
  for (auto& m : members) {
    for (;;) {
      const auto batch = m->poll(16);
      if (batch.empty()) break;
      total += batch.size();
    }
    if (!m->assigned_partitions().empty()) ++with_assignment;
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(with_assignment, 4u);  // one partition each; two members idle
}

TEST_F(GroupMemberTest, PollIsThePerPartitionFetchSplicedInPartitionOrder) {
  // One budget rule: poll(k) takes up to k records from EACH assigned
  // partition — exactly what poll_by_partition(k) returns to a member of
  // another group reading from the same offsets, spliced byte for byte in
  // ascending partition order. The backlog, about 25 records on each of
  // the 4 partitions, is several times the budget.
  constexpr std::size_t kBudget = 4;
  stream::GroupMember spliced(broker_, "spliced", "t");
  stream::GroupMember by_partition(broker_, "by-partition", "t");
  std::size_t polls = 0;
  std::size_t total = 0;
  for (;; ++polls) {
    const stream::FetchView got = spliced.poll(kBudget);
    std::vector<Fetched> want;
    std::vector<std::size_t> order;
    for (const stream::PartitionBatchView& pb : by_partition.poll_by_partition(kBudget)) {
      EXPECT_LE(pb.records.size(), kBudget);
      order.push_back(pb.partition);
      append_owned(pb.records, want);
    }
    EXPECT_EQ(std::adjacent_find(order.begin(), order.end(), std::greater_equal<>()),
              order.end());  // strictly ascending partitions
    ASSERT_EQ(owned(got), want) << "poll " << polls;
    if (polls == 0) {
      EXPECT_EQ(got.size(), 4 * kBudget);  // every partition fills its budget
    }
    if (got.empty()) break;
    total += got.size();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_GT(polls, 100u / (4 * kBudget));  // the backlog took several polls

  // Replay: after a commit, seek_to_committed() and the same polls return
  // the same sequence, batch for batch, with no cursor state beyond the
  // committed offsets.
  stream::GroupMember replayer(broker_, "replay", "t");
  (void)replayer.poll(kBudget);
  replayer.commit();
  std::vector<std::vector<Fetched>> first_pass, second_pass;
  for (int i = 0; i < 3; ++i) first_pass.push_back(owned(replayer.poll(kBudget)));
  replayer.seek_to_committed();
  for (int i = 0; i < 3; ++i) second_pass.push_back(owned(replayer.poll(kBudget)));
  EXPECT_EQ(first_pass, second_pass);
  EXPECT_EQ(first_pass.back().size(), 4 * kBudget);  // still inside the backlog
}

TEST(CsvTest, HeaderRowsNullsAndQuoting) {
  Table t{Schema{{"name", DataType::kString},
                 {"value", DataType::kFloat64},
                 {"note", DataType::kString}}};
  t.append_row({Value("plain"), Value(1.5), Value("ok")});
  t.append_row({Value("has,comma"), Value::null(), Value("say \"hi\"")});
  t.append_row({Value("line\nbreak"), Value(2.0), Value::null()});
  const std::string csv = sql::to_csv(t);
  EXPECT_EQ(csv.rfind("name,value,note\n", 0), 0u);
  EXPECT_NE(csv.find("plain,1.5,ok\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\",,\"say \"\"hi\"\"\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"line\nbreak\",2,\n"), std::string::npos);
}

TEST(CsvTest, EmptyTableIsHeaderOnly) {
  Table t{Schema{{"a", DataType::kInt64}}};
  EXPECT_EQ(sql::to_csv(t), "a\n");
}

}  // namespace
}  // namespace oda
