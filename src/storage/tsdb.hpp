// LAKE: the online, real-time diagnostics database (the Druid /
// ElasticSearch role in Sec V-B). An in-memory time-series store with
// per-series sorted segments, tag filtering, range queries with
// step-aligned downsampling, and time-based retention.
//
// Reads (DESIGN.md §14): query() is the one executor of LAKE reads. It
// plans once, then fills one typed (time, metric, tags, value) result
// from one of two sources: each matched series' points (the raw plan,
// with the step fold), or each series' 1 m / 10 m observe::HistoryStore
// ring (the rollup plans serve::select_plan picks). A step bucket is an
// observe::HistoryPoint either way, so both plans read an aggregate from
// a bucket by one rule.
//
// Concurrency: the store is built for many concurrent dashboard readers
// racing a scraper's appends. A shared_mutex guards only the series
// *catalog* (key → id, plus an inverted index: metric → series ids and
// tag "k=v" → series ids postings, intersected at plan time); each
// series carries its own shared_mutex, so a query plans under a brief
// shared catalog lock, then scans each matched series under that
// series' reader lock while appends to *other* series proceed
// untouched. A rollup plan takes no series lock: it loads the series'
// epoch, then reads its ring under the HistoryStore's own lock, so no
// lock of one store is held while the other's is taken. Series objects
// are shared_ptr-owned: retention can prune a series from the catalog
// while an in-flight reader finishes its scan on the pinned object.
//
// Query semantics (regression-locked in storage_tiers_test):
//   - The time range is inclusive-exclusive: points with t in [t0, t1).
//   - Downsample buckets are epoch-aligned [k*step, (k+1)*step), NOT
//     aligned to t0: a query with unaligned t0 can emit a first bucket
//     stamped before t0, aggregating only the points >= t0. Bucket
//     arithmetic saturates at the INT64 timeline edges instead of
//     wrapping (see common::window_start), so t1 = INT64_MAX with a
//     nonzero step is well-defined.
//
// Epochs (the serve-layer cache contract): every append or retention
// trim bumps the touched series' epoch, and series creation/removal
// bumps the metric's membership epoch. A QueryFingerprint captured
// during query() is fresh iff both still match — per-series
// invalidation-on-append without any global flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sql/agg.hpp"
#include "sql/table.hpp"

namespace oda::observe {
class HistoryStore;
}  // namespace oda::observe

namespace oda::storage {

struct SeriesKey {
  std::string metric;
  std::map<std::string, std::string> tags;  ///< e.g. {host, component}

  bool operator<(const SeriesKey& o) const {
    if (metric != o.metric) return metric < o.metric;
    return tags < o.tags;
  }
  bool operator==(const SeriesKey& o) const { return metric == o.metric && tags == o.tags; }
};

/// The HistoryStore series name for a LAKE series: "metric{k=v,...}",
/// the same encoding observe::series_key uses for scraped self-metrics.
/// A rollup plan reads the ring of this name.
std::string history_series_name(const SeriesKey& key);

struct TsQuery {
  std::string metric;
  std::map<std::string, std::string> tag_filter;  ///< exact-match subset
  common::TimePoint t0 = 0;                       ///< inclusive
  common::TimePoint t1 = INT64_MAX;               ///< exclusive
  common::Duration step = 0;  ///< 0 = raw points; buckets are epoch-aligned
  sql::AggKind agg = sql::AggKind::kMean;
};

/// Version stamp of a query's matched-series set: the metric's
/// membership epoch plus each matched series' (id, epoch). Captured by
/// query(), checked by fingerprint_fresh() — the serve-layer cache's
/// invalidation-on-append primitive.
struct QueryFingerprint {
  std::uint64_t metric_epoch = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> series;  ///< (series id, epoch)
};

class TimeSeriesDb {
 public:
  void append(const SeriesKey& key, common::TimePoint t, double value);

  /// Result schema: (time:int64, metric:string, <tag columns>, value:float64).
  /// Tag columns are the sorted union of tags across matched series (null
  /// where a series lacks one); series are emitted in SeriesKey order.
  /// When `fp` is non-null it receives the matched-series fingerprint as
  /// of this read.
  ///
  /// `rollups` picks where step buckets come from. Null: each matched
  /// series' points (the raw plan). Non-null: the caller has picked a
  /// rollup plan (serve::select_plan: q.step is a ring width, the range
  /// is bucket-aligned, q.agg is one a bucket carries), and each series'
  /// buckets come from its ring in `rollups`, named by
  /// history_series_name. A step that is no ring's width reads points.
  sql::Table query(const TsQuery& q, QueryFingerprint* fp = nullptr,
                   const observe::HistoryStore* rollups = nullptr) const;

  /// Latest value per matched series (dashboard "current state" panels),
  /// in query()'s schema.
  sql::Table latest(const std::string& metric,
                    const std::map<std::string, std::string>& tag_filter = {}) const;

  /// True iff no append/trim/create/remove has touched the fingerprinted
  /// set since it was captured. One shared catalog lock + relaxed epoch
  /// loads — the cache-hit fast path.
  bool fingerprint_fresh(const std::string& metric, const QueryFingerprint& fp) const;

  std::size_t series_count() const;
  std::size_t point_count() const;
  std::size_t memory_bytes() const;

  /// Drop points older than max_age; prunes empty series. Returns points dropped.
  std::size_t evict_older_than(common::Duration max_age, common::TimePoint now);

 private:
  struct Series {
    SeriesKey key;
    mutable std::shared_mutex mu;          ///< guards times/values
    std::vector<common::TimePoint> times;  ///< non-decreasing (enforced on append)
    std::vector<double> values;
    std::atomic<std::uint64_t> epoch{0};  ///< bumped on append and trim
  };
  /// Per-metric slice of the inverted index. Entries persist even when
  /// their posting empties so membership epochs never restart.
  struct MetricIndex {
    std::vector<std::uint32_t> ids;     ///< sorted ascending
    std::uint64_t membership_epoch = 0; ///< bumped on series create/remove
  };

  /// One planned (pinned) series and the catalog id it was planned
  /// under. Carrying the id out of the plan keeps the scan free of
  /// catalog lookups: re-taking index_mu_ while holding a series lock
  /// would invert the index → series lock order.
  struct Planned {
    std::uint32_t id = 0;
    std::shared_ptr<Series> series;
  };

  /// The typed result of every read (tsdb.cpp).
  class ResultBuilder;

  /// Plan: intersect the metric posting with every tag posting; returns
  /// pinned series sorted by key. Caller must hold index_mu_ (shared).
  std::vector<Planned> plan_locked(
      const std::string& metric, const std::map<std::string, std::string>& tag_filter) const;
  const MetricIndex* metric_index_locked(const std::string& metric) const;

  mutable std::shared_mutex index_mu_;  ///< guards the catalog below
  std::vector<std::shared_ptr<Series>> series_;  ///< id → series; removed = nullptr
  std::map<SeriesKey, std::uint32_t> by_key_;
  std::unordered_map<std::string, MetricIndex> metric_index_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> tag_index_;  ///< "k=v" → ids
};

}  // namespace oda::storage
