// Streaming statistics used throughout the framework: pipeline metrics,
// tier accounting, bench reporting, and model evaluation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace oda::common {

/// Welford online mean/variance with min/max. O(1) memory.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_), m = static_cast<double>(o.n_);
    m2_ += o.m2_ + delta * delta * n * m / (n + m);
    mean_ = (n * mean_ + m * o.mean_) / (n + m);
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact quantile over a retained sample (for small n, e.g. bench series).
inline double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// Mean absolute percentage error; used by the digital twin V&V (Fig 11).
inline double mape(const std::vector<double>& truth, const std::vector<double>& pred) {
  const std::size_t n = std::min(truth.size(), pred.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(truth[i]) < 1e-12) continue;
    acc += std::abs((truth[i] - pred[i]) / truth[i]);
    ++used;
  }
  return used ? 100.0 * acc / static_cast<double>(used) : 0.0;
}

/// Root-mean-square error.
inline double rmse(const std::vector<double>& truth, const std::vector<double>& pred) {
  const std::size_t n = std::min(truth.size(), pred.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = truth[i] - pred[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

/// Human-readable byte count, e.g. "4.2 TB".
std::string format_bytes(double bytes);
/// Human-readable count, e.g. "1.3M".
std::string format_count(double n);

}  // namespace oda::common
