// HistoryStore — retained self-telemetry. The registry answers "what is
// the value now"; this answers "since when, and how fast is it moving":
// fixed-capacity per-series rings of raw samples plus multi-resolution
// rollups (1-minute and 10-minute min/max/avg/count buckets), the same
// raw→downsample ladder the facility's LAKE applies to sensor data
// (DESIGN.md §9). Populated by the `_oda.history` engine::Query over
// `_oda.metrics` (engine::make_history_query), queried by oda_monitor
// (--watch sparklines, --history range dumps).
//
// All timestamps are virtual facility time, so a store fed by a
// deterministic run has byte-identical query results across reruns and
// engine worker counts. Appends must arrive in committed-batch order;
// a late sample whose rollup bucket has already been evicted is dropped
// (and counted) rather than resurrecting the bucket out of order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace oda::observe {

enum class Resolution : std::uint8_t { kRaw = 0, kOneMinute = 1, kTenMinute = 2 };
const char* resolution_name(Resolution r);
/// Bucket width in virtual time (0 for raw samples).
common::Duration resolution_width(Resolution r);
/// The rollup ring whose bucket width is `step`: kOneMinute for 1 m,
/// kTenMinute for 10 m, kRaw (no ring) for any other step.
Resolution rollup_resolution(common::Duration step);

/// One retained point: a raw sample (count == 1, min == max == last) or a
/// rollup bucket stamped with its start time (common::window_start of its
/// samples' times).
struct HistoryPoint {
  common::TimePoint t = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
  double last = 0.0;

  double avg() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Fold one more sample into the bucket.
  void fold(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
    last = v;
  }
};

struct HistoryConfig {
  std::size_t raw_capacity = 512;     ///< raw samples retained per series
  std::size_t rollup_capacity = 256;  ///< buckets retained per series per resolution

  // Fluent construction: HistoryConfig{}.with_raw_capacity(1024).
  HistoryConfig& with_raw_capacity(std::size_t n) {
    raw_capacity = n;
    return *this;
  }
  HistoryConfig& with_rollup_capacity(std::size_t n) {
    rollup_capacity = n;
    return *this;
  }

  /// Throws std::invalid_argument on nonsense (zero-capacity rings).
  void validate() const;
};

/// Thread-safe: a reader-writer lock — appends (one scraper) take it
/// exclusive, queries take it shared, so the serving layer's rollup
/// reads fan out without serializing against each other. Series appear
/// on first append; eviction is per-series ring overwrite, oldest first.
class HistoryStore {
 public:
  explicit HistoryStore(HistoryConfig config = {});

  /// Append one sample at virtual time `t`. Samples for one series must
  /// arrive in non-decreasing bucket order (committed-batch order does
  /// this); a sample older than the oldest retained rollup bucket is
  /// counted in late_dropped() and skipped from rollups (still rawed).
  void append(const std::string& series, common::TimePoint t, double value);

  /// Points with t in [t0, t1], oldest first (only those are copied).
  /// Empty for unknown series.
  std::vector<HistoryPoint> query(const std::string& series, common::TimePoint t0,
                                  common::TimePoint t1, Resolution res = Resolution::kRaw) const;

  /// Last `n` raw values, oldest first (sparkline feed).
  std::vector<double> recent_values(const std::string& series, std::size_t n) const;

  /// Most recent raw sample, if any.
  std::optional<HistoryPoint> latest(const std::string& series) const;

  /// Sorted series names (the registry snapshot's (name, labels) order).
  std::vector<std::string> series_names() const;

  std::size_t num_series() const;
  std::uint64_t total_samples() const;
  std::uint64_t evicted_samples() const;  ///< raw ring overwrites
  std::uint64_t late_dropped() const;     ///< rollup-late samples skipped

  const HistoryConfig& config() const { return config_; }

  void clear();

 private:
  // Fixed-capacity ring in append order: the oldest point is overwritten
  // once the ring is full.
  struct Ring {
    std::vector<HistoryPoint> buf;
    std::size_t next = 0;
    bool full = false;

    std::size_t size() const { return buf.size(); }
    /// The i-th oldest point.
    const HistoryPoint& at(std::size_t i) const { return buf[((full ? next : 0) + i) % buf.size()]; }
    HistoryPoint* back();
    // Push returns true when an old point was overwritten.
    bool push(std::size_t capacity, const HistoryPoint& p);
  };
  struct Series {
    Ring raw;
    Ring one_minute;
    Ring ten_minute;
  };

  void roll_into(Ring& ring, common::TimePoint bucket, double value);
  const Ring* ring_for(const Series& s, Resolution res) const;

  HistoryConfig config_;
  mutable std::shared_mutex mu_;  ///< writers: append/clear; readers: all queries
  std::map<std::string, Series> series_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t late_dropped_ = 0;
};

}  // namespace oda::observe
