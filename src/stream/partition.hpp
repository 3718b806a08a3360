// A partition is a segmented, append-only log with offset addressing and
// time/size retention — the FIFO buffer role Kafka plays in the paper's
// multi-project pipelines (Sec V-B).
//
// Storage layout (the zero-copy read path): each segment is immutable
// once rolled, refcounted and self-contained. Key and payload bytes live
// in one contiguous arena per segment, each record's key immediately
// before its payload, reserved to its full capacity up front so appends
// never reallocate (in-flight views stay valid); record metadata lives in
// a fixed-stride index (timestamp, trace ids, payload offset/length, key
// length). fetch_view() hands out string_views into that storage plus a
// shared_ptr pin per touched segment — retention can pop a segment from
// the deque while readers holding a FetchView keep it alive.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

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
  /// storage (a producer's staging arena). One lock acquisition, one loop
  /// copying each record's key and payload into the active segment's
  /// arena, and a group-committed publish — next_offset_ is stored ONCE
  /// after the whole batch is in the arena, so concurrent readers see
  /// either none or all of the batch. A segment rolls at the first record
  /// that would push it past segment_bytes, however the records are split
  /// into batches. Records get consecutive offsets; returns the first.
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

  /// Drop whole segments that violate the policy given the current time.
  /// Returns bytes evicted. Evicted segments stay alive while any
  /// FetchView still pins them.
  std::size_t enforce_retention(const RetentionPolicy& policy, common::TimePoint now);

  std::int64_t start_offset() const;
  std::int64_t end_offset() const;
  std::size_t size_bytes() const;
  std::size_t record_count() const;

 private:
  /// Fixed-stride per-record metadata; key and payload bytes are arena
  /// slices, the key's key_len bytes at payload_off - key_len.
  struct IndexEntry {
    common::TimePoint timestamp = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t payload_off = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t key_len = 0;
  };

  struct Segment {
    std::int64_t base_offset = 0;
    /// Reserved once at creation; never reallocates. A vector (not a
    /// string) because the standard only guarantees no-reallocation-
    /// below-capacity for vector — in-flight views alias data().
    std::vector<char> arena;
    std::vector<IndexEntry> index;
    std::size_t bytes = 0;  ///< wire-size accounting (key + payload + 24 per record)
    common::TimePoint max_ts = 0;
  };

  mutable std::mutex mu_;
  std::deque<std::shared_ptr<Segment>> segments_;
  std::size_t segment_bytes_;
  /// Written under mu_; read locklessly (relaxed) by the empty-fetch fast
  /// path and end_offset(). A stale read only makes a poll report "caught
  /// up" one round early, never yields wrong data.
  std::atomic<std::int64_t> next_offset_{0};
  std::size_t total_bytes_ = 0;
};

}  // namespace oda::stream
