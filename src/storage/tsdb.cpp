#include "storage/tsdb.hpp"

#include <algorithm>
#include <set>

#include "observe/history.hpp"
#include "observe/metrics.hpp"

namespace oda::storage {

using common::Duration;
using common::TimePoint;
using sql::AggKind;
using sql::DataType;
using sql::Schema;
using sql::Table;

namespace {

// Posting key for one tag pair. 0x1f cannot appear in well-formed tag
// text, so "k=v" pairs never collide across the separator.
std::string tag_posting_key(const std::string& k, const std::string& v) {
  std::string out;
  out.reserve(k.size() + v.size() + 1);
  out += k;
  out += '\x1f';
  out += v;
  return out;
}

void erase_id(std::vector<std::uint32_t>& ids, std::uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

// The one bucket rule: an aggregate read from the fields a step bucket
// carries, whether the raw step fold or a rollup ring filled it. An
// aggregate no bucket carries (p99, stddev, ...) reads as the mean:
// serve::select_plan never sends one to a ring, and the raw plan has
// always answered it so.
double bucket_value(const observe::HistoryPoint& b, AggKind agg) {
  switch (agg) {
    case AggKind::kSum: return b.sum;
    case AggKind::kMin: return b.min;
    case AggKind::kMax: return b.max;
    case AggKind::kCount: return static_cast<double>(b.count);
    case AggKind::kLast: return b.last;
    default: return b.avg();
  }
}

}  // namespace

std::string history_series_name(const SeriesKey& key) {
  std::string name = key.metric;
  if (!key.tags.empty()) {
    name += '{';
    bool first = true;
    for (const auto& [k, v] : key.tags) {
      if (!first) name += ',';
      first = false;
      name += k;
      name += '=';
      name += v;
    }
    name += '}';
  }
  return name;
}

// The result of every read: the schema (time:int64, metric:string,
// <sorted union of the planned series' tag keys>:string, value:float64)
// is fixed once from the plan, and rows go straight into typed columns.
class TimeSeriesDb::ResultBuilder {
 public:
  explicit ResultBuilder(const std::vector<Planned>& planned) {
    for (const auto& p : planned) {
      for (const auto& [k, _] : p.series->key.tags) tag_keys_.insert(k);
    }
    schema_ = Schema{{"time", DataType::kInt64}, {"metric", DataType::kString}};
    for (const auto& k : tag_keys_) schema_.add({k, DataType::kString});
    schema_.add({"value", DataType::kFloat64});
    for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
  }

  /// The rows added next belong to `key`: resolve its tag cells once.
  void begin_series(const SeriesKey& key) {
    key_ = &key;
    tags_.clear();
    for (const auto& k : tag_keys_) {
      const auto it = key.tags.find(k);
      tags_.push_back(it == key.tags.end() ? nullptr : &it->second);
    }
  }

  void add(TimePoint t, double v) {
    columns_[0].append_int(t);
    columns_[1].append_string(key_->metric);
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] == nullptr) {
        columns_[2 + i].append_null();
      } else {
        columns_[2 + i].append_string(*tags_[i]);
      }
    }
    columns_.back().append_double(v);
  }

  Table finish() && { return Table(std::move(schema_), std::move(columns_)); }

 private:
  std::set<std::string> tag_keys_;  ///< sorted union of the planned series' tag keys
  Schema schema_;
  std::vector<sql::Column> columns_;
  const SeriesKey* key_ = nullptr;
  std::vector<const std::string*> tags_;  ///< key_'s value per tag key; null if absent
};

void TimeSeriesDb::append(const SeriesKey& key, TimePoint t, double value) {
  static observe::Counter* appends = observe::default_registry().counter("lake.points.appended");
  appends->inc();

  // Fast path: the series exists — find it under the shared catalog lock,
  // then take only its own writer lock. Appends to distinct series never
  // contend, and readers of other series are untouched.
  {
    std::shared_lock idx(index_mu_);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      Series& s = *series_[it->second];
      std::unique_lock lk(s.mu);
      if (!s.times.empty() && t < s.times.back()) {
        // Out-of-order point: insert in place (rare; telemetry is mostly ordered).
        const auto pos = std::upper_bound(s.times.begin(), s.times.end(), t);
        const auto i = static_cast<std::size_t>(pos - s.times.begin());
        s.times.insert(pos, t);
        s.values.insert(s.values.begin() + static_cast<std::ptrdiff_t>(i), value);
      } else {
        s.times.push_back(t);
        s.values.push_back(value);
      }
      s.epoch.fetch_add(1, std::memory_order_release);
      return;
    }
  }

  // Slow path: first point of a new series — exclusive catalog lock to
  // create it and splice its id into the inverted index.
  std::unique_lock idx(index_mu_);
  const auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Lost the creation race; the series exists now.
    Series& s = *series_[it->second];
    std::unique_lock lk(s.mu);
    const auto pos = std::upper_bound(s.times.begin(), s.times.end(), t);
    const auto i = static_cast<std::size_t>(pos - s.times.begin());
    s.times.insert(pos, t);
    s.values.insert(s.values.begin() + static_cast<std::ptrdiff_t>(i), value);
    s.epoch.fetch_add(1, std::memory_order_release);
    return;
  }
  const auto id = static_cast<std::uint32_t>(series_.size());
  auto s = std::make_shared<Series>();
  s->key = key;
  s->times.push_back(t);
  s->values.push_back(value);
  s->epoch.store(1, std::memory_order_release);
  series_.push_back(std::move(s));
  by_key_.emplace(key, id);
  MetricIndex& mi = metric_index_[key.metric];
  mi.ids.push_back(id);  // new id is the max so far — stays sorted
  ++mi.membership_epoch;
  for (const auto& [k, v] : key.tags) tag_index_[tag_posting_key(k, v)].push_back(id);
}

const TimeSeriesDb::MetricIndex* TimeSeriesDb::metric_index_locked(
    const std::string& metric) const {
  const auto it = metric_index_.find(metric);
  return it == metric_index_.end() ? nullptr : &it->second;
}

std::vector<TimeSeriesDb::Planned> TimeSeriesDb::plan_locked(
    const std::string& metric, const std::map<std::string, std::string>& tag_filter) const {
  const MetricIndex* mi = metric_index_locked(metric);
  if (mi == nullptr || mi->ids.empty()) return {};
  // Intersect the metric posting with each tag posting. Tag postings are
  // exact "k=v" matches, so the intersection IS the subset-match answer.
  std::vector<std::uint32_t> ids = mi->ids;
  std::vector<std::uint32_t> next;
  for (const auto& [k, v] : tag_filter) {
    const auto it = tag_index_.find(tag_posting_key(k, v));
    if (it == tag_index_.end()) return {};
    next.clear();
    std::set_intersection(ids.begin(), ids.end(), it->second.begin(), it->second.end(),
                          std::back_inserter(next));
    ids.swap(next);
    if (ids.empty()) return {};
  }
  std::vector<Planned> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back({id, series_[id]});
  std::sort(out.begin(), out.end(),
            [](const Planned& a, const Planned& b) { return a.series->key < b.series->key; });
  return out;
}

Table TimeSeriesDb::query(const TsQuery& q, QueryFingerprint* fp,
                          const observe::HistoryStore* rollups) const {
  // Plan once, under the shared catalog lock, then release it: the reads
  // below run against pinned series objects, so appends to unrelated
  // series (and even catalog growth) proceed.
  std::vector<Planned> matched;
  std::uint64_t membership = 0;
  {
    std::shared_lock idx(index_mu_);
    matched = plan_locked(q.metric, q.tag_filter);
    if (const MetricIndex* mi = metric_index_locked(q.metric)) {
      membership = mi->membership_epoch;
    }
  }
  if (fp != nullptr) {
    fp->metric_epoch = membership;
    fp->series.clear();
    fp->series.reserve(matched.size());
  }
  const observe::Resolution ring =
      rollups == nullptr ? observe::Resolution::kRaw : observe::rollup_resolution(q.step);

  ResultBuilder out(matched);
  for (const auto& p : matched) {
    const Series& s = *p.series;
    out.begin_series(s.key);
    if (ring != observe::Resolution::kRaw) {
      // Rollup plan: no series lock. The epoch is loaded BEFORE the ring
      // read, so an append that lands mid-read bumps it past this capture
      // and a cached result can only be invalidated early, never served
      // stale.
      if (fp != nullptr) fp->series.emplace_back(p.id, s.epoch.load(std::memory_order_acquire));
      if (q.t0 >= q.t1) continue;
      // The ring query is inclusive on both ends; the range is [t0, t1)
      // over bucket start times (t1 > t0, so t1 - 1 cannot overflow).
      const TimePoint last = q.t1 == INT64_MAX ? INT64_MAX : q.t1 - 1;
      for (const auto& b : rollups->query(history_series_name(s.key), q.t0, last, ring)) {
        out.add(b.t, bucket_value(b, q.agg));
      }
      continue;
    }
    std::shared_lock lk(s.mu);
    if (fp != nullptr) {
      // The reader lock excludes writers, so the epoch read here is the
      // version of exactly the points this scan sees. The id came out of
      // the plan — re-resolving it through the catalog here would take
      // index_mu_ inside the series lock, inverting the lock order.
      fp->series.emplace_back(p.id, s.epoch.load(std::memory_order_acquire));
    }
    // Range is inclusive-exclusive: [t0, t1).
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(s.times.begin(), s.times.end(), q.t0) - s.times.begin());
    const auto hi = static_cast<std::size_t>(
        std::lower_bound(s.times.begin(), s.times.end(), q.t1) - s.times.begin());
    if (q.step <= 0) {
      for (auto i = lo; i < hi; ++i) out.add(s.times[i], s.values[i]);
      continue;
    }
    // Step fold: buckets are epoch-aligned [k*step, (k+1)*step), each
    // accumulated into the fields a ring bucket carries. window_start
    // saturates at the INT64 timeline edges, so extreme timestamps
    // cannot wrap (UB).
    auto i = lo;
    while (i < hi) {
      observe::HistoryPoint b;
      b.t = common::window_start(s.times[i], q.step);
      b.min = b.max = s.values[i];
      while (i < hi && common::window_start(s.times[i], q.step) == b.t) b.fold(s.values[i++]);
      out.add(b.t, bucket_value(b, q.agg));
    }
  }
  return std::move(out).finish();
}

Table TimeSeriesDb::latest(const std::string& metric,
                           const std::map<std::string, std::string>& tag_filter) const {
  std::vector<Planned> matched;
  {
    std::shared_lock idx(index_mu_);
    matched = plan_locked(metric, tag_filter);
  }
  // Read each series' last point under its reader lock; a series emptied
  // by a racing retention pass simply drops out.
  ResultBuilder out(matched);
  for (const auto& p : matched) {
    const Series& s = *p.series;
    std::shared_lock lk(s.mu);
    if (s.times.empty()) continue;
    out.begin_series(s.key);
    out.add(s.times.back(), s.values.back());
  }
  return std::move(out).finish();
}

bool TimeSeriesDb::fingerprint_fresh(const std::string& metric,
                                     const QueryFingerprint& fp) const {
  std::shared_lock idx(index_mu_);
  const MetricIndex* mi = metric_index_locked(metric);
  const std::uint64_t membership = mi == nullptr ? 0 : mi->membership_epoch;
  if (membership != fp.metric_epoch) return false;
  for (const auto& [id, epoch] : fp.series) {
    if (id >= series_.size() || series_[id] == nullptr) return false;
    if (series_[id]->epoch.load(std::memory_order_acquire) != epoch) return false;
  }
  return true;
}

std::size_t TimeSeriesDb::series_count() const {
  std::shared_lock idx(index_mu_);
  return by_key_.size();
}

std::size_t TimeSeriesDb::point_count() const {
  std::shared_lock idx(index_mu_);
  std::size_t n = 0;
  for (const auto& sp : series_) {
    if (sp == nullptr) continue;
    std::shared_lock lk(sp->mu);
    n += sp->times.size();
  }
  return n;
}

std::size_t TimeSeriesDb::memory_bytes() const {
  std::shared_lock idx(index_mu_);
  std::size_t b = 0;
  for (const auto& sp : series_) {
    if (sp == nullptr) continue;
    std::shared_lock lk(sp->mu);
    b += sp->key.metric.size() + 64;
    for (const auto& [tk, tv] : sp->key.tags) b += tk.size() + tv.size() + 32;
    b += sp->times.capacity() * sizeof(TimePoint) + sp->values.capacity() * sizeof(double);
  }
  return b;
}

std::size_t TimeSeriesDb::evict_older_than(Duration max_age, TimePoint now) {
  // Maintenance path: exclusive catalog lock for the whole pass. In-flight
  // readers that already planned keep their shared_ptr pins and finish
  // against whatever trim state each series lock hands them.
  std::unique_lock idx(index_mu_);
  // Saturate instead of wrapping when the age window covers the whole
  // timeline (now - max_age < INT64_MIN is UB on the naive subtraction).
  const TimePoint cutoff =
      (max_age >= 0 && now < INT64_MIN + max_age) ? INT64_MIN : now - max_age;
  std::size_t dropped = 0;
  for (std::uint32_t id = 0; id < series_.size(); ++id) {
    const std::shared_ptr<Series>& sp = series_[id];
    if (sp == nullptr) continue;
    bool now_empty = false;
    {
      std::unique_lock lk(sp->mu);
      Series& s = *sp;
      const auto keep_from = static_cast<std::size_t>(
          std::lower_bound(s.times.begin(), s.times.end(), cutoff) - s.times.begin());
      if (keep_from > 0) {
        dropped += keep_from;
        s.times.erase(s.times.begin(), s.times.begin() + static_cast<std::ptrdiff_t>(keep_from));
        s.values.erase(s.values.begin(), s.values.begin() + static_cast<std::ptrdiff_t>(keep_from));
        s.epoch.fetch_add(1, std::memory_order_release);
      }
      now_empty = s.times.empty();
    }
    if (now_empty) {
      const SeriesKey key = sp->key;
      by_key_.erase(key);
      MetricIndex& mi = metric_index_[key.metric];
      erase_id(mi.ids, id);
      ++mi.membership_epoch;
      for (const auto& [k, v] : key.tags) {
        const auto it = tag_index_.find(tag_posting_key(k, v));
        if (it != tag_index_.end()) erase_id(it->second, id);
      }
      series_[id] = nullptr;  // id slot stays; pinned readers keep the object
    }
  }
  return dropped;
}

}  // namespace oda::storage
