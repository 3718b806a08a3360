// The STREAM tier: a multi-topic, multi-partition in-process broker with
// consumer groups and committed offsets. Plays the role Apache Kafka
// plays at OLCF — "FIFO buffers for in-flight data in distributed
// multi-project pipelines" (Sec V-B). Producer is the one writer and
// GroupMember the one reader; a reader that wants the whole topic is a
// member alone in its group.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "observe/metrics.hpp"
#include "stream/partition.hpp"
#include "stream/record.hpp"
#include "stream/staging.hpp"
#include "stream/view.hpp"

namespace oda::stream {

struct TopicConfig {
  std::size_t num_partitions = 4;
  std::size_t segment_bytes = 4 << 20;
  RetentionPolicy retention;

  // Fluent construction: TopicConfig{}.with_partitions(8).with_segment_bytes(1 << 20).
  TopicConfig& with_partitions(std::size_t n) {
    num_partitions = n;
    return *this;
  }
  TopicConfig& with_segment_bytes(std::size_t bytes) {
    segment_bytes = bytes;
    return *this;
  }
  TopicConfig& with_retention(RetentionPolicy policy) {
    retention = policy;
    return *this;
  }

  /// Reject nonsense at topic creation instead of failing deep in a run
  /// (a 0-partition topic cannot place records; a 0-byte segment would
  /// roll on every append). Throws std::invalid_argument.
  void validate() const;
};

struct TopicStats {
  std::uint64_t produced_records = 0;
  std::uint64_t produced_bytes = 0;
  std::uint64_t fetched_records = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t retained_records = 0;
  std::uint64_t retained_bytes = 0;
  std::uint64_t evicted_bytes = 0;
};

class Topic {
 public:
  Topic(std::string name, TopicConfig config);

  const std::string& name() const { return name_; }
  const TopicConfig& config() const { return config_; }
  std::size_t num_partitions() const { return partitions_.size(); }
  Partition& partition(std::size_t i) { return *partitions_.at(i); }
  const Partition& partition(std::size_t i) const { return *partitions_.at(i); }

  /// The broker's one write path: route a staging buffer's records to
  /// partitions — by fnv1a(key) % partitions, keyless records by the
  /// topic's shared round-robin cursor, which a flush advances by its
  /// keyless count — and group-commit each partition's share, borrowing
  /// bytes straight from the staging arena. The "stream.produce" fault
  /// seam fires once, before any append; the builder is cleared on
  /// success and left INTACT when the seam throws, so a retry re-flushes
  /// the identical batch without re-encoding or duplication. Records are
  /// stamped with the caller's current trace context at flush time.
  /// Returns the number of records appended.
  std::size_t produce_staged(BatchBuilder& staged);

  void set_retention(const RetentionPolicy& policy) { config_.retention = policy; }

  std::size_t enforce_retention(common::TimePoint now);

  TopicStats stats() const;

 private:
  /// Fetch accounting for every GroupMember fetch, one partition's
  /// batch at a time; empty fetches touch no counter.
  void count_fetched(const FetchView& out);

  std::string name_;
  TopicConfig config_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  // Produced/fetched accounting lives in the observe registry cells and
  // nowhere else: stats() snapshots the same atomics produce_staged()/poll()
  // bump, so observability adds zero marginal work to the hot path. Handles are resolved once here; registry handles are stable for
  // the process lifetime (see observe/metrics.hpp).
  observe::Counter* obs_produced_records_ = nullptr;
  observe::Counter* obs_produced_bytes_ = nullptr;
  observe::Counter* obs_fetched_records_ = nullptr;
  observe::Counter* obs_fetched_bytes_ = nullptr;
  // Registry cells are keyed by topic *name* for the process lifetime, so
  // a re-created topic (fresh Broker in the same process, e.g. across
  // test cases) resumes the shared cell. stats() subtracts the values at
  // construction to stay per-instance.
  std::uint64_t base_produced_records_ = 0;
  std::uint64_t base_produced_bytes_ = 0;
  std::uint64_t base_fetched_records_ = 0;
  std::uint64_t base_fetched_bytes_ = 0;
  std::atomic<std::uint64_t> rr_counter_{0};
  std::atomic<std::uint64_t> evicted_bytes_{0};

  friend class Broker;
  friend class GroupMember;
};

/// Cached-handle producer for one topic. Broker::producer() resolves the
/// name→topic map once; steady-state flushes then go straight to the
/// Topic, skipping the broker mutex and the string lookup entirely.
/// Handles are stable for the broker's lifetime (topics are never
/// destroyed while the broker lives), so a Producer can be kept hot for
/// the life of a collector or sink. Copyable and cheap; the caller owns
/// the BatchBuilder it stages into, one per producing thread.
class Producer {
 public:
  explicit Producer(Topic& topic) : topic_(&topic) {}

  /// Flush a caller-owned staging buffer (cleared on success, intact on a
  /// fault-seam throw — see Topic::produce_staged).
  std::size_t produce_staged(BatchBuilder& staged) { return topic_->produce_staged(staged); }

  Topic& topic() { return *topic_; }
  const Topic& topic() const { return *topic_; }
  const std::string& topic_name() const { return topic_->name(); }

 private:
  Topic* topic_;
};

struct TopicPartition {
  std::string topic;
  std::size_t partition = 0;
  auto operator<=>(const TopicPartition&) const = default;
};

/// One row of the broker's committed-offset store, as enumerated for
/// observability (observe::LagTracker sampling).
struct CommittedOffset {
  std::string group;
  TopicPartition tp;
  std::int64_t offset = 0;
};

class Broker {
 public:
  Topic& create_topic(const std::string& name, TopicConfig config = {});
  Topic& topic(const std::string& name);
  const Topic* find_topic(const std::string& name) const;
  bool has_topic(const std::string& name) const;
  std::vector<std::string> topic_names() const;

  /// Cached-handle producer for steady-state produce without the name
  /// lookup. Throws std::out_of_range for an unknown topic — create it
  /// first.
  Producer producer(const std::string& topic_name) { return Producer(topic(topic_name)); }

  /// Run retention over all topics; returns total evicted bytes.
  std::size_t enforce_retention(common::TimePoint now);

  /// Apply one retention policy to every topic (tier-level override).
  void set_retention_all(const RetentionPolicy& policy);

  /// Committed-offset store (consumer-group coordination). The one
  /// commit is generation-fenced: it stores the offset only while
  /// `generation` is still the group's current generation (check and
  /// store are one critical section). A member whose poll predates a
  /// rebalance cannot regress the committed offset past the new owner's
  /// progress; the fenced member re-delivers those records after its
  /// next refresh — at-least-once, never lost. Returns whether the commit
  /// was accepted.
  bool commit_fenced(const std::string& group, const TopicPartition& tp, std::int64_t offset,
                     std::uint64_t generation);
  std::optional<std::int64_t> committed(const std::string& group, const TopicPartition& tp) const;
  /// Every (group, partition, offset) row in the offset store, sorted by
  /// key — the monitor's raw material for per-group lag tracking.
  std::vector<CommittedOffset> committed_offsets() const;

  // --- group membership (parallel consumption with rebalancing) ---------
  /// Join a consumer group on a topic; returns a member id. Triggers a
  /// rebalance (generation bump) for the group.
  std::uint64_t join_group(const std::string& group, const std::string& topic);
  /// Leave the group; remaining members pick up the freed partitions.
  void leave_group(const std::string& group, const std::string& topic, std::uint64_t member_id);
  /// Round-robin partition assignment for one member at the current
  /// generation. Returns the generation through `generation_out`.
  std::vector<std::size_t> assignments(const std::string& group, const std::string& topic,
                                       std::uint64_t member_id, std::uint64_t* generation_out) const;
  std::uint64_t group_generation(const std::string& group, const std::string& topic) const;
  /// Shared cell mirroring the group's generation, updated (release) on
  /// every join/leave under the broker mutex. Members cache it and check
  /// their assignments with ONE relaxed atomic load per poll instead of
  /// taking the broker mutex — the broker lock leaves the engine's fetch
  /// hot path entirely; the mutex is only touched on an actual rebalance.
  /// Returns nullptr for a group nobody has joined yet.
  std::shared_ptr<const std::atomic<std::uint64_t>> generation_cell(const std::string& group,
                                                                    const std::string& topic) const;

  /// Sum over partitions of (end offset - committed offset) for a group.
  std::int64_t lag(const std::string& group, const std::string& topic) const;

  std::size_t total_bytes() const;

 private:
  struct GroupState {
    std::vector<std::uint64_t> members;  ///< join order
    std::uint64_t next_member_id = 1;
    std::uint64_t generation = 0;
    /// Lock-free mirror of `generation` for the members' per-poll
    /// rebalance check (see generation_cell()). Written under mu_.
    std::shared_ptr<std::atomic<std::uint64_t>> gen_cell =
        std::make_shared<std::atomic<std::uint64_t>>(0);
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  std::map<std::pair<std::string, TopicPartition>, std::int64_t> offsets_;
  std::map<std::pair<std::string, std::string>, GroupState> groups_;  ///< (group, topic)
};

/// One partition's slice of a poll, kept separate so the engine can merge
/// worker results deterministically by (partition, offset) regardless of
/// which worker owns which partition. Views and segment pins move into
/// the engine's per-partition lanes; no record is copied.
struct PartitionBatchView {
  std::size_t partition = 0;
  FetchView records;
};

/// The broker's reader: a consumer-group member. Partitions are split
/// round-robin across live members and reassigned when members join or
/// leave; a member alone in its group owns every partition. Poll rechecks
/// the group generation, so scaling the consumer fleet up or down
/// mid-stream is safe — progress is preserved through the shared
/// committed-offset store, and commit() persists it so a restarted member
/// resumes where the group left off (the paper's "failure and recovery
/// mechanisms that can be difficult to re-engineer from scratch").
///
/// Polling is view-based: every fetch returns pinned views into the
/// broker's refcounted segments. The budget is per partition, so what a
/// poll returns is a pure function of the committed offsets and the
/// member's assignment — a replay after seek_to_committed() returns the
/// same records in the same order.
class GroupMember {
 public:
  GroupMember(Broker& broker, std::string group, std::string topic);
  ~GroupMember();

  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  /// The one fetch loop: up to max_per_partition records from each
  /// assigned partition, each partition's records in their own
  /// PartitionBatchView, in ascending partition order. The engine's merge
  /// step orders these by partition index, making batch contents a pure
  /// function of committed offsets — independent of worker count or
  /// fetch order.
  std::vector<PartitionBatchView> poll_by_partition(std::size_t max_per_partition);
  /// poll_by_partition(max_per_partition) spliced into one FetchView, in
  /// ascending partition order.
  FetchView poll(std::size_t max_per_partition);
  /// Commit progress on the assigned partitions. Fenced by group
  /// generation: if another member joined or left since this member's
  /// last poll, the broker drops the commit and the records are
  /// re-delivered to their new owner (at-least-once across a rebalance,
  /// never a committed-offset regression).
  void commit();
  /// Drop in-memory positions back to the group's committed offsets for
  /// every assigned partition (replay after a failed batch).
  void seek_to_committed();
  /// Move every assigned partition's position to its first record with
  /// ts >= t (the end offset if there is none).
  void seek_to_time(common::TimePoint t);
  /// Sum of (end offset - position) over this member's assigned partitions.
  std::int64_t lag() const;
  /// Leave the group explicitly (also done by the destructor).
  void leave();

  const std::vector<std::size_t>& assigned_partitions() const { return assigned_; }
  std::uint64_t member_id() const { return member_id_; }

 private:
  /// Re-pull assignments if the group generation moved. Fast path is one
  /// relaxed load of the broker's shared generation cell — no broker
  /// mutex unless a rebalance actually happened, which is what keeps
  /// long-lived engine workers off any shared lock while polling.
  void refresh_assignments();

  Broker& broker_;
  std::string group_;
  std::string topic_;
  std::uint64_t member_id_ = 0;
  std::uint64_t generation_ = static_cast<std::uint64_t>(-1);
  std::shared_ptr<const std::atomic<std::uint64_t>> gen_cell_;
  std::vector<std::size_t> assigned_;
  std::map<std::size_t, std::int64_t> positions_;
  bool left_ = false;
};

}  // namespace oda::stream
