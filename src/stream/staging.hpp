// Zero-copy write path: the per-producer staging buffer. Encoders
// serialize records straight into one reusable contiguous arena (key
// bytes then payload bytes per record, plus a fixed-stride entry table)
// instead of materializing a std::string pair per record. A flush hands
// the whole batch to Topic::produce_staged, which routes records to
// partitions and appends each partition's share under ONE lock
// acquisition with a group-committed index publish — the write-side dual
// of the read path's segment/arena/view design (DESIGN.md §11).
//
// Header-only on purpose: layers that may not link oda_stream (the
// observe scraper) can still stage records; only the flush entry points
// (Topic/Producer) live in the stream library.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "stream/record.hpp"

namespace oda::stream {

/// Reusable staging buffer for one producer. Not thread-safe; one
/// builder per producing thread. Capacity is retained across flushes, so
/// a steady-state stage/flush loop allocates nothing per record.
///
/// Two ways to stage a record:
///   add(ts, key, payload)            — copy pre-encoded bytes in;
///   begin_record(ts) → writer (key bytes)
///   begin_payload()  → writer (payload bytes)
///   end_record()                     — encode in place, no intermediate.
class BatchBuilder {
 public:
  explicit BatchBuilder(std::size_t reserve_bytes = 64 << 10) {
    buf_.reserve(reserve_bytes);
    entries_.reserve(reserve_bytes / 256);
  }

  // The bound writer aliases buf_; a moved/copied builder's writer would
  // keep appending into the old arena.
  BatchBuilder(const BatchBuilder&) = delete;
  BatchBuilder& operator=(const BatchBuilder&) = delete;

  /// Start a record: bytes written through the returned writer become the
  /// KEY (leave untouched for a keyless record).
  common::ByteWriter& begin_record(common::TimePoint ts) {
    cur_.ts = ts;
    cur_.key_off = buf_.size();
    return writer_;
  }

  /// Key done; bytes written from here on become the PAYLOAD.
  common::ByteWriter& begin_payload() {
    cur_.key_len = static_cast<std::uint32_t>(buf_.size() - cur_.key_off);
    cur_.pay_off = buf_.size();
    return writer_;
  }

  /// Seal the record begun by begin_record().
  void end_record() {
    cur_.pay_len = static_cast<std::uint32_t>(buf_.size() - cur_.pay_off);
    entries_.push_back(cur_);
  }

  /// Stage a pre-encoded record (copies key+payload into the arena).
  void add(common::TimePoint ts, std::string_view key, std::string_view payload) {
    begin_record(ts);
    writer_.raw(key.data(), key.size());
    begin_payload();
    writer_.raw(payload.data(), payload.size());
    end_record();
  }

  std::size_t pending() const { return entries_.size(); }
  std::size_t pending_bytes() const { return buf_.size(); }
  /// Summed EncodedRecord::wire_size() of the staged records: what their
  /// flush adds to the topic's produced bytes.
  std::size_t wire_bytes() const { return buf_.size() + 24 * entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Drop staged records; capacity (arena, entry table, route scratch) is
  /// kept for the next batch.
  void clear() {
    buf_.clear();
    entries_.clear();
  }

  /// Borrowed EncodedRecord views of the staged records, appended to
  /// `out`. Valid until the next clear()/begin_record()/add() (the arena
  /// may then reallocate).
  void snapshot(std::vector<EncodedRecord>& out) const {
    out.reserve(out.size() + entries_.size());
    for (const Entry& e : entries_) out.push_back(view(e));
  }

 private:
  friend class Topic;

  struct Entry {
    common::TimePoint ts = 0;
    std::size_t key_off = 0;
    std::size_t pay_off = 0;
    std::uint32_t key_len = 0;
    std::uint32_t pay_len = 0;
  };

  EncodedRecord view(const Entry& e) const {
    const char* base = reinterpret_cast<const char*>(buf_.data());
    EncodedRecord r;
    r.timestamp = e.ts;
    r.key = std::string_view(base + e.key_off, e.key_len);
    r.payload = std::string_view(base + e.pay_off, e.pay_len);
    return r;
  }

  std::vector<std::uint8_t> buf_;          ///< [key bytes][payload bytes] per record
  common::ByteWriter writer_{buf_};        ///< encode-into-arena sink
  std::vector<Entry> entries_;
  Entry cur_{};
  /// Partition-routing scratch used by Topic::produce_staged — lives here
  /// so per-partition capacity survives across flushes and a steady-state
  /// flush allocates nothing.
  std::vector<std::vector<EncodedRecord>> route_;
};

}  // namespace oda::stream
