// Zero-copy read path: views into the broker's immutable, refcounted log
// segments. A fetch hands out RecordViews (string_views into a segment's
// arena, which holds each record's key and payload) bundled in a
// FetchView that pins the backing segments alive — retention can drop a
// segment from the partition while in-flight readers keep reading it,
// with no locks held after the fetch returns (the ALICE Run-3 pattern:
// analysis reads views into refcounted buffers instead of owned copies).
// This is the only read path; code that keeps bytes past a view's life
// copies the fields it needs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "stream/record.hpp"

namespace oda::stream {

/// One record as seen through the log, without owning its bytes. Valid
/// for as long as the FetchView that produced it is alive (the view pins
/// the backing segment). Cheap to copy — two string_views and five ints.
struct RecordView {
  std::int64_t offset = 0;
  common::TimePoint timestamp = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::string_view key;
  std::string_view payload;

  /// Same accounting as EncodedRecord::wire_size().
  std::size_t wire_size() const { return key.size() + payload.size() + 24; }
};

/// The result of a view fetch: a flat run of RecordViews plus the
/// refcounted owners (segments) that keep their bytes alive. Move-only
/// in spirit but copyable (copies share the pins); destroying the last
/// FetchView referencing an evicted segment frees it.
class FetchView {
 public:
  FetchView() = default;

  std::span<const RecordView> records() const { return {views_.data(), views_.size()}; }
  operator std::span<const RecordView>() const { return records(); }

  std::size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }
  const RecordView& operator[](std::size_t i) const { return views_[i]; }
  const RecordView& front() const { return views_.front(); }
  auto begin() const { return views_.begin(); }
  auto end() const { return views_.end(); }

  void reserve(std::size_t n) { views_.reserve(n); }
  void push_back(const RecordView& v) { views_.push_back(v); }

  /// Keep `owner` alive for the lifetime of this view set. Fetchers pin
  /// each backing segment once per fetch, not once per record.
  void pin(std::shared_ptr<const void> owner) { pins_.push_back(std::move(owner)); }
  std::size_t pin_count() const { return pins_.size(); }

  /// Splice another fetch's views and pins onto this one (how
  /// GroupMember::poll joins its per-partition fetches).
  void append(FetchView&& other) {
    views_.insert(views_.end(), other.views_.begin(), other.views_.end());
    pins_.insert(pins_.end(), std::make_move_iterator(other.pins_.begin()),
                 std::make_move_iterator(other.pins_.end()));
    other.views_.clear();
    other.pins_.clear();
  }

  void clear() {
    views_.clear();
    pins_.clear();
  }

 private:
  std::vector<RecordView> views_;
  std::vector<std::shared_ptr<const void>> pins_;
};

}  // namespace oda::stream
