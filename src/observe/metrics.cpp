#include "observe/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bytes.hpp"

namespace oda::observe {

namespace detail {
std::atomic<std::int64_t> g_virtual_now{0};
}  // namespace detail

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

double Histogram::quantile(double q) const { return quantile_from_buckets(bucket_counts(), count(), q); }

double quantile_from_buckets(const std::vector<std::pair<double, std::uint64_t>>& buckets,
                             std::uint64_t total, double q) {
  if (total == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  double lo = 0.0;
  for (const auto& [bound, c] : buckets) {
    if (cum + static_cast<double>(c) >= target) {
      // Interpolate within [lo, hi) of this bucket; the +inf overflow
      // bucket interpolates within [lo, 2·lo + 1).
      const double hi = std::isinf(bound) ? lo * 2.0 + 1.0 : bound;
      const double frac = c ? (target - cum) / static_cast<double>(c) : 0.0;
      return lo + (hi - lo) * frac;
    }
    cum += static_cast<double>(c);
    if (!std::isinf(bound)) lo = bound;
  }
  return lo;
}

std::vector<std::pair<double, std::uint64_t>> Histogram::bucket_counts() const {
  std::vector<std::pair<double, std::uint64_t>> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double ub = i < bounds_.size() ? bounds_[i] : std::numeric_limits<double>::infinity();
    out.emplace_back(ub, counts_[i].load(std::memory_order_relaxed));
  }
  return out;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
}

std::vector<double> default_latency_bounds_seconds() {
  return {1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 100.0};
}

std::vector<double> default_count_bounds() {
  return {1, 10, 100, 1e3, 1e4, 1e5, 1e6};
}

namespace {

std::string encode_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

MetricsRegistry::AnyMetric& MetricsRegistry::cell_for(const std::string& name, const Labels& labels,
                                                      MetricKind kind,
                                                      std::vector<double>* bounds) {
  const std::string key = encode_key(name, labels);
  Shard& shard = shards_[common::fnv1a(key) % kShards];
  std::lock_guard lk(shard.mu);
  auto it = shard.metrics.find(key);
  if (it == shard.metrics.end()) {
    AnyMetric m;
    m.kind = kind;
    m.name = name;
    m.labels = labels;
    switch (kind) {
      case MetricKind::kCounter: m.counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: m.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        m.histogram = std::make_unique<Histogram>(bounds ? std::move(*bounds)
                                                         : default_latency_bounds_seconds());
        break;
    }
    it = shard.metrics.emplace(key, std::move(m)).first;
  }
  return it->second;
}

Counter* MetricsRegistry::counter(const std::string& name, Labels labels) {
  return cell_for(name, sorted(std::move(labels)), MetricKind::kCounter, nullptr).counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return cell_for(name, sorted(std::move(labels)), MetricKind::kGauge, nullptr).gauge.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      std::vector<double> bounds) {
  return cell_for(name, sorted(std::move(labels)), MetricKind::kHistogram, &bounds)
      .histogram.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard.mu);
    for (const auto& [_, m] : shard.metrics) {
      MetricValue v;
      v.name = m.name;
      v.labels = m.labels;
      v.kind = m.kind;
      switch (m.kind) {
        case MetricKind::kCounter:
          v.count = m.counter->value();
          v.value = static_cast<double>(v.count);
          break;
        case MetricKind::kGauge:
          v.value = m.gauge->value();
          break;
        case MetricKind::kHistogram:
          v.value = m.histogram->sum();
          v.count = m.histogram->count();
          v.buckets = m.histogram->bucket_counts();
          break;
      }
      out.push_back(std::move(v));
    }
  }
  std::sort(out.begin(), out.end(), [](const MetricValue& a, const MetricValue& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

void MetricsRegistry::reset_values() {
  for (auto& shard : shards_) {
    std::lock_guard lk(shard.mu);
    for (auto& [_, m] : shard.metrics) {
      switch (m.kind) {
        case MetricKind::kCounter: m.counter->reset(); break;
        case MetricKind::kGauge: m.gauge->reset(); break;
        case MetricKind::kHistogram: m.histogram->reset(); break;
      }
    }
  }
}

std::size_t MetricsRegistry::metric_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lk(shard.mu);
    n += shard.metrics.size();
  }
  return n;
}

MetricsRegistry& default_registry() {
  static MetricsRegistry* reg = new MetricsRegistry();  // leaky: handles never dangle
  return *reg;
}

}  // namespace oda::observe
