// oda::observe — self-observability for the ODA framework itself.
//
// The paper's central discipline is knowing, per stage, how much data
// flows where and how fast (Fig 4-a ingest rates, Fig 4-b pipeline
// anatomy, Fig 5 tier footprints). This module turns that discipline
// inward: a low-overhead metrics registry the framework's own hot paths
// (broker produce/fetch, pipeline batches, tier migrations, collection
// delivery, chaos retries) report into, snapshot-on-demand.
//
// Design rules:
//   - Handles are stable for the life of the process. Call sites resolve
//     a Counter*/Gauge*/Histogram* once (constructor or function-local
//     static) and hit a relaxed atomic afterwards. reset_values() zeroes
//     values but never invalidates handles.
//   - Registration is lock-sharded by metric-key hash; the data plane
//     (inc/set/add) never takes a lock and tests no flag: metrics are
//     always on.
//   - Virtual-clock aware: set_virtual_now() mirrors the facility's
//     virtual time so snapshots and spans can be stamped with
//     deterministic timestamps; nothing here reads the wall clock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace oda::observe {

/// Sorted (key, value) pairs; low cardinality by convention (topic names,
/// query names, chaos sites — never node ids or record keys).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
extern std::atomic<std::int64_t> g_virtual_now;
}  // namespace detail

/// The observability view of the facility's virtual clock. The framework
/// (and tests) mirror virtual-time advances here; spans and SLO
/// evaluations stamp from it so chaos/determinism runs stay reproducible.
inline common::TimePoint virtual_now() {
  return detail::g_virtual_now.load(std::memory_order_relaxed);
}
inline void set_virtual_now(common::TimePoint t) {
  detail::g_virtual_now.store(t, std::memory_order_relaxed);
}

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* metric_kind_name(MetricKind k);

/// One metric in a snapshot. For histograms, `buckets` maps each upper
/// bound to its cumulative-free (per-bucket) count and value/`sum` carry
/// the observation sum; `count` the observation count.
struct MetricValue {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter total or gauge level (histogram: sum)
  std::uint64_t count = 0;
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

using MetricsSnapshot = std::vector<MetricValue>;

/// Monotonic event count. Data plane: one relaxed fetch_add. A cell may
/// double as product accounting (e.g. TopicStats reads the broker's
/// produced/fetched cells): the registry snapshots what the owner counts.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written level (lag, watermark, backlog bytes).
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bounds are upper bounds in ascending order,
/// with an implicit +inf overflow bucket. Data plane: one branchless-ish
/// scan over ~a dozen bounds plus two relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void add(double x) {
    counts_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
    }
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return total_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Interpolated quantile in [0,1] from the bucket counts.
  double quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::pair<double, std::uint64_t>> bucket_counts() const;
  void reset();

 private:
  std::size_t bucket_of(double x) const {
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    return i;  // == bounds_.size() → overflow bucket
  }

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> total_{0};
};

/// Interpolated quantile over (upper_bound, per-bucket count) pairs — the
/// exact interpolation Histogram::quantile applies, shared with exporters
/// that only hold a snapshot's buckets. `total` is the observation count;
/// the final +inf bucket interpolates within [lo, 2·lo + 1).
double quantile_from_buckets(const std::vector<std::pair<double, std::uint64_t>>& buckets,
                             std::uint64_t total, double q);

/// Default bounds for second-valued latency histograms: 1µs .. ~100s.
std::vector<double> default_latency_bounds_seconds();
/// Default bounds for record/row-count distributions: 1 .. ~1M.
std::vector<double> default_count_bounds();

/// Lock-sharded name→metric registry. Registration (counter()/gauge()/
/// histogram()) takes the shard mutex; the returned handle is lock-free
/// and lives as long as the registry. Re-registering the same
/// (name, labels) returns the existing cell — safe to call from many
/// sites.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  Histogram* histogram(const std::string& name, Labels labels = {},
                       std::vector<double> bounds = default_latency_bounds_seconds());

  /// Point-in-time copy of every registered metric, sorted by (name,
  /// labels) so snapshots diff cleanly across runs.
  MetricsSnapshot snapshot() const;

  /// Zero every value. Handles stay valid — instrumented call sites keep
  /// their cached pointers across test-case boundaries.
  void reset_values();

  std::size_t metric_count() const;

 private:
  struct AnyMetric {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, AnyMetric> metrics;  ///< encoded key → cell
  };

  AnyMetric& cell_for(const std::string& name, const Labels& labels, MetricKind kind,
                      std::vector<double>* bounds);

  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
};

/// The process-wide registry every built-in instrumentation site reports
/// into. Leaky singleton: handles resolved from it never dangle.
MetricsRegistry& default_registry();

}  // namespace oda::observe
