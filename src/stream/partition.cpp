#include "stream/partition.hpp"

#include <algorithm>

#include "common/faults.hpp"
#include "observe/metrics.hpp"

namespace oda::stream {

namespace {
// Aggregate (un-labelled) counter: partitions don't know their topic,
// and per-partition labels would be needless cardinality. Appends are
// deliberately NOT counted per record — stream.produced.records already
// covers them; segment rolls are the per-partition event worth keeping.
observe::Counter* segments_rolled_counter() {
  static observe::Counter* segments =
      observe::default_registry().counter("stream.partition.segments.rolled");
  return segments;
}
}  // namespace

std::int64_t Partition::append_encoded_batch(std::span<const EncodedRecord> batch) {
  std::lock_guard lk(mu_);
  const std::int64_t first = next_offset_.load(std::memory_order_relaxed);
  Segment* seg = segments_.empty() ? nullptr : segments_.back().get();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const EncodedRecord& r = batch[i];
    const std::size_t sz = r.wire_size();
    const std::size_t arena_need = r.key.size() + r.payload.size();
    // Roll on the wire-size rule, plus a defensive arena-capacity check:
    // the wire rule already guarantees arena bytes (key + payload <= wire
    // size) fit the reservation, so the second clause can only fire if
    // that invariant is ever broken — never silently reallocate an arena
    // that in-flight views point into.
    if (seg == nullptr || seg->bytes + sz > segment_bytes_ ||
        seg->arena.size() + arena_need > seg->arena.capacity()) {
      auto s = std::make_shared<Segment>();
      // The running offset: next_offset_ is only published after the loop.
      s->base_offset = first + static_cast<std::int64_t>(i);
      // Full-capacity reservation up front: the arena must never
      // reallocate while readers hold views into it. Arena bytes per
      // segment are bounded by the wire-size roll rule (the first record
      // may exceed it).
      s->arena.reserve(std::max(segment_bytes_, arena_need));
      s->index.reserve(std::min(batch.size() - i, segment_bytes_ / 24 + 1));
      seg = s.get();
      segments_.push_back(std::move(s));
      segments_rolled_counter()->inc();
    }
    // The key sits immediately before its payload in the arena.
    seg->arena.insert(seg->arena.end(), r.key.begin(), r.key.end());
    IndexEntry e;
    e.timestamp = r.timestamp;
    e.trace_id = r.trace_id;
    e.span_id = r.span_id;
    e.payload_off = seg->arena.size();
    e.payload_len = static_cast<std::uint32_t>(r.payload.size());
    e.key_len = static_cast<std::uint32_t>(r.key.size());
    seg->arena.insert(seg->arena.end(), r.payload.begin(), r.payload.end());
    seg->index.push_back(e);
    if (r.timestamp > seg->max_ts) seg->max_ts = r.timestamp;
    seg->bytes += sz;
    total_bytes_ += sz;
  }
  // Group commit: readers (fetch_view's lockless end check, end_offset())
  // see the whole batch become visible at once.
  next_offset_.store(first + static_cast<std::int64_t>(batch.size()),
                     std::memory_order_relaxed);
  return first;
}

std::int64_t Partition::fetch_view(std::int64_t offset, std::size_t max_records,
                                   FetchView& out) const {
  // Empty-fetch fast paths: a zero budget or an offset at/past the end
  // returns without the fault seam, the partition lock, or any counter
  // work (a caught-up consumer polls this case every round). The relaxed
  // end read can be stale; that only defers the fetch one poll.
  if (out.size() >= max_records) {
    return std::min(offset, next_offset_.load(std::memory_order_relaxed));
  }
  // Single load for both the check and the return value: callers store
  // the result as their next position, so returning a *re-loaded* end
  // (which a concurrent append may have advanced) would skip the records
  // appended between the two loads — silent loss that commit() then
  // persists. min() keeps the returned position <= the snapshot end.
  const std::int64_t at_end = next_offset_.load(std::memory_order_relaxed);
  if (offset >= at_end) return std::min(offset, at_end);
  // Fault seam: fails before handing out anything. A consumer whose poll
  // faulted mid-way must restore its positions before retrying (the
  // engine.pull retry in engine::Query does this via seek_to_committed).
  chaos::fault_point("stream.fetch");
  std::lock_guard lk(mu_);
  const std::int64_t end = next_offset_.load(std::memory_order_relaxed);
  if (segments_.empty()) return end;
  const std::int64_t start = segments_.front()->base_offset;
  if (offset < start) offset = start;  // evicted range: snap forward
  if (offset > end) offset = end;      // past end: clamp back
  // Every record in [offset, end) is still held, so this is exactly what
  // the loop below appends: one allocation instead of one per doubling.
  out.reserve(out.size() +
              std::min(max_records - out.size(), static_cast<std::size_t>(end - offset)));
  std::int64_t cur = offset;
  for (const auto& seg_ptr : segments_) {
    const Segment& seg = *seg_ptr;
    const std::int64_t seg_end = seg.base_offset + static_cast<std::int64_t>(seg.index.size());
    if (cur >= seg_end) continue;
    if (cur < seg.base_offset) cur = seg.base_offset;
    // Pin the segment once per fetch: the shared_ptr keeps its arena and
    // index alive after retention pops the segment — and after this
    // partition is destroyed.
    bool pinned = false;
    for (std::size_t i = static_cast<std::size_t>(cur - seg.base_offset); i < seg.index.size();
         ++i) {
      if (out.size() >= max_records) return cur;
      if (!pinned) {
        out.pin(seg_ptr);
        pinned = true;
      }
      const IndexEntry& e = seg.index[i];
      RecordView v;
      v.offset = cur;
      v.timestamp = e.timestamp;
      v.trace_id = e.trace_id;
      v.span_id = e.span_id;
      v.key = std::string_view(seg.arena.data() + e.payload_off - e.key_len, e.key_len);
      v.payload = std::string_view(seg.arena.data() + e.payload_off, e.payload_len);
      out.push_back(v);
      ++cur;
    }
  }
  return cur;
}

std::int64_t Partition::offset_for_time(common::TimePoint t) const {
  std::lock_guard lk(mu_);
  for (const auto& seg : segments_) {
    if (seg->max_ts < t) continue;
    for (std::size_t i = 0; i < seg->index.size(); ++i) {
      if (seg->index[i].timestamp >= t) return seg->base_offset + static_cast<std::int64_t>(i);
    }
  }
  return next_offset_.load(std::memory_order_relaxed);
}

std::size_t Partition::enforce_retention(const RetentionPolicy& policy, common::TimePoint now) {
  std::lock_guard lk(mu_);
  std::size_t evicted = 0;
  // Never evict the active (last) segment. Popping only drops the
  // partition's reference — readers holding a FetchView pin keep the
  // segment's bytes alive until they are done.
  while (segments_.size() > 1) {
    const Segment& head = *segments_.front();
    const bool too_old = policy.max_age > 0 && head.max_ts < now - policy.max_age;
    const bool too_big = policy.max_bytes >= 0 && static_cast<std::int64_t>(total_bytes_) > policy.max_bytes;
    if (!too_old && !too_big) break;
    evicted += head.bytes;
    total_bytes_ -= head.bytes;
    segments_.pop_front();
  }
  return evicted;
}

std::int64_t Partition::start_offset() const {
  std::lock_guard lk(mu_);
  return segments_.empty() ? next_offset_.load(std::memory_order_relaxed)
                           : segments_.front()->base_offset;
}

std::int64_t Partition::end_offset() const {
  return next_offset_.load(std::memory_order_relaxed);
}

std::size_t Partition::size_bytes() const {
  std::lock_guard lk(mu_);
  return total_bytes_;
}

std::size_t Partition::record_count() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& s : segments_) n += s->index.size();
  return n;
}

}  // namespace oda::stream
