// A partition is a segmented, append-only log with offset addressing and
// time/size retention — the FIFO buffer role Kafka plays in the paper's
// multi-project pipelines (Sec V-B).
//
// Storage layout (the zero-copy read path): each segment is immutable
// once rolled and refcounted. Payload bytes live in one contiguous arena
// per segment, reserved to its full capacity up front so appends never
// reallocate (in-flight views stay valid); record metadata lives in a
// fixed-stride index (timestamp, trace ids, payload offset/length, key
// id); keys are interned in a per-partition dictionary so a host name
// repeated across millions of records is stored once. fetch_view() hands
// out string_views into that storage plus a shared_ptr pin per touched
// segment — retention can pop a segment from the deque while readers
// holding a FetchView keep it (and the dictionary) alive.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "stream/record.hpp"
#include "stream/view.hpp"

namespace oda::stream {

struct RetentionPolicy {
  common::Duration max_age = 7 * common::kDay;  ///< <=0 disables time retention.
  std::int64_t max_bytes = -1;                  ///< <0 disables size retention.
};

class Partition {
 public:
  explicit Partition(std::size_t segment_bytes = 4 << 20) : segment_bytes_(segment_bytes) {}

  /// The one write path: append records whose bytes live in caller-owned
  /// storage (a producer's staging arena). One lock acquisition, one
  /// index reservation sized from the summed wire sizes, and a
  /// group-committed publish — next_offset_ is stored ONCE after the
  /// whole batch is in the arena, so concurrent readers see either none
  /// or all of the batch (visibility ordering and committed_offsets
  /// semantics unchanged). A segment rolls at the first record that would
  /// push it past segment_bytes, however the records are split into
  /// batches. Records get consecutive offsets; returns the first.
  std::int64_t append_encoded_batch(std::span<const EncodedRecord> batch);

  /// Zero-copy fetch: append RecordViews starting at `offset` into `out`
  /// until out.size() reaches `max_records`, pinning each touched
  /// segment so the views outlive retention. Returns the next offset to
  /// poll from. Offsets below the log start (evicted by retention) snap
  /// forward to the log start. No locks are held after it returns. Empty
  /// fetches (max_records already satisfied, or offset at/past the end)
  /// return without the fault seam or the partition lock.
  std::int64_t fetch_view(std::int64_t offset, std::size_t max_records, FetchView& out) const;

  /// Earliest offset whose record timestamp is >= t (or end offset).
  std::int64_t offset_for_time(common::TimePoint t) const;

  /// Hard cap on distinct interned keys per partition. Keys past the cap
  /// are stored inline in the segment arena instead (still zero-copy on
  /// read, just not deduplicated), so a high-cardinality key stream
  /// degrades to per-record key storage rather than leaking dictionary
  /// memory for the partition's lifetime.
  static constexpr std::size_t kMaxDictKeys = 1 << 16;

  /// Distinct keys currently interned (<= kMaxDictKeys). Surfaced through
  /// TopicStats::key_dict_entries so a key stream approaching the cap is
  /// observable.
  std::size_t key_dict_size() const;

  /// Drop whole segments that violate the policy given the current time.
  /// Returns bytes evicted. Evicted segments stay alive while any
  /// FetchView still pins them.
  std::size_t enforce_retention(const RetentionPolicy& policy, common::TimePoint now);

  std::int64_t start_offset() const;
  std::int64_t end_offset() const;
  std::size_t size_bytes() const;
  std::size_t record_count() const;

 private:
  /// Interned key storage shared by every segment of this partition.
  /// Entries live in a deque (stable addresses, never erased) and are
  /// immutable once published under mu_; segments hold a shared_ptr so
  /// pinned views keep the dictionary alive after the partition dies.
  /// Sized for low-cardinality partitioning keys (host/job names); growth
  /// is bounded by kMaxDictKeys — intern() declines past the cap and the
  /// caller falls back to inlining the key in the segment arena.
  struct KeyDict {
    std::deque<std::string> entries;
    /// Open-addressing id index over `entries` (linear probing, <=75%
    /// load, slot value = id + 1 so 0 marks empty). The lookup is on the
    /// per-record produce hot path, where an unordered_map's node chase
    /// costs more than the whole arena memcpy for small records.
    std::vector<std::uint32_t> slots = std::vector<std::uint32_t>(1024, 0);

    /// Returns the key's id, interning a copy if new and the dictionary
    /// has room; returns kNoKey once kMaxDictKeys distinct entries exist
    /// (the caller then inlines the key in the segment arena).
    std::uint32_t intern_view(std::string_view key);
  };

  static constexpr std::uint32_t kNoKey = 0xffffffffu;

  /// Fixed-stride per-record metadata; payload bytes are arena slices.
  /// Keys are either interned (key_id != kNoKey) or inlined in the arena
  /// immediately before the payload (key_id == kNoKey, key_len > 0 —
  /// the dictionary-cap overflow path).
  struct IndexEntry {
    common::TimePoint timestamp = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t payload_off = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t key_id = kNoKey;
    std::uint32_t key_len = 0;  ///< inline-key bytes at payload_off - key_len
  };

  struct Segment {
    std::int64_t base_offset = 0;
    /// Reserved once at creation; never reallocates. A vector (not a
    /// string) because the standard only guarantees no-reallocation-
    /// below-capacity for vector — in-flight views alias data().
    std::vector<char> arena;
    std::vector<IndexEntry> index;
    std::size_t bytes = 0;          ///< wire-size accounting (matches pre-arena layout)
    common::TimePoint max_ts = 0;
    std::shared_ptr<KeyDict> dict;  ///< keeps key bytes alive while pinned
  };

  // Unlocked internals (callers hold mu_). `off` is the record's offset —
  // passed in (not read from next_offset_) because batch appends only
  // publish next_offset_ once at the end, yet a segment rolled mid-batch
  // needs the RUNNING offset as its base_offset. index_hint pre-sizes a
  // freshly rolled segment's index (the caller passes the records left in
  // its batch). Does NOT advance next_offset_; the caller group-commits.
  void append_one_unlocked(const EncodedRecord& r, std::int64_t off, std::size_t index_hint);

  // Arena bytes + index entry for one record whose segment and key id are
  // already decided; skips roll checks and byte accounting (the caller
  // owns both). The hot inner loop of the batch fast path.
  void write_record_unlocked(Segment& seg, const EncodedRecord& r, std::uint32_t key_id);

  mutable std::mutex mu_;
  std::deque<std::shared_ptr<Segment>> segments_;
  std::shared_ptr<KeyDict> dict_ = std::make_shared<KeyDict>();
  std::size_t segment_bytes_;
  /// Written under mu_; read locklessly (relaxed) by the empty-fetch fast
  /// path and end_offset(). A stale read only makes a poll report "caught
  /// up" one round early, never yields wrong data.
  std::atomic<std::int64_t> next_offset_{0};
  std::size_t total_bytes_ = 0;
};

}  // namespace oda::stream
