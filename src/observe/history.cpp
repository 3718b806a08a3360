#include "observe/history.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace oda::observe {

const char* resolution_name(Resolution r) {
  switch (r) {
    case Resolution::kRaw: return "raw";
    case Resolution::kOneMinute: return "1m";
    case Resolution::kTenMinute: return "10m";
  }
  return "?";
}

common::Duration resolution_width(Resolution r) {
  switch (r) {
    case Resolution::kRaw: return 0;
    case Resolution::kOneMinute: return common::kMinute;
    case Resolution::kTenMinute: return 10 * common::kMinute;
  }
  return 0;
}

Resolution rollup_resolution(common::Duration step) {
  for (const Resolution r : {Resolution::kOneMinute, Resolution::kTenMinute}) {
    if (step == resolution_width(r)) return r;
  }
  return Resolution::kRaw;
}

void HistoryConfig::validate() const {
  if (raw_capacity == 0) throw std::invalid_argument("HistoryConfig: raw_capacity == 0");
  if (rollup_capacity == 0) throw std::invalid_argument("HistoryConfig: rollup_capacity == 0");
}

HistoryStore::HistoryStore(HistoryConfig config) : config_(config) { config_.validate(); }

HistoryPoint* HistoryStore::Ring::back() {
  if (buf.empty()) return nullptr;
  if (!full) return &buf.back();
  return &buf[(next + buf.size() - 1) % buf.size()];
}

bool HistoryStore::Ring::push(std::size_t capacity, const HistoryPoint& p) {
  if (!full) {
    if (buf.capacity() < capacity) buf.reserve(capacity);
    buf.push_back(p);
    if (buf.size() == capacity) {
      full = true;
      next = 0;
    }
    return false;
  }
  buf[next] = p;
  next = (next + 1) % buf.size();
  return true;
}

void HistoryStore::roll_into(Ring& ring, common::TimePoint bucket, double value) {
  if (HistoryPoint* last = ring.back(); last != nullptr) {
    if (last->t == bucket) {
      last->fold(value);
      return;
    }
    if (bucket < last->t) {
      // Late for a closed bucket: fold into it if still retained, else drop.
      // A linear scan is fine — rings hold a few hundred buckets at most,
      // each with a distinct start time.
      for (HistoryPoint& p : ring.buf) {
        if (p.t != bucket) continue;
        p.fold(value);
        return;
      }
      ++late_dropped_;
      return;
    }
  }
  ring.push(config_.rollup_capacity, {bucket, value, value, value, 1, value});
}

void HistoryStore::append(const std::string& series, common::TimePoint t, double value) {
  std::unique_lock lk(mu_);
  Series& s = series_[series];
  ++total_samples_;
  if (s.raw.push(config_.raw_capacity, {t, value, value, value, 1, value})) ++evicted_;
  roll_into(s.one_minute, common::window_start(t, common::kMinute), value);
  roll_into(s.ten_minute, common::window_start(t, 10 * common::kMinute), value);
}

const HistoryStore::Ring* HistoryStore::ring_for(const Series& s, Resolution res) const {
  switch (res) {
    case Resolution::kRaw: return &s.raw;
    case Resolution::kOneMinute: return &s.one_minute;
    case Resolution::kTenMinute: return &s.ten_minute;
  }
  return nullptr;
}

std::vector<HistoryPoint> HistoryStore::query(const std::string& series, common::TimePoint t0,
                                              common::TimePoint t1, Resolution res) const {
  std::shared_lock lk(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  const Ring* ring = ring_for(it->second, res);
  std::vector<HistoryPoint> out;
  for (std::size_t i = 0; i < ring->size(); ++i) {
    const HistoryPoint& p = ring->at(i);
    if (p.t >= t0 && p.t <= t1) out.push_back(p);
  }
  return out;
}

std::vector<double> HistoryStore::recent_values(const std::string& series, std::size_t n) const {
  std::shared_lock lk(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  const Ring& raw = it->second.raw;
  const std::size_t start = raw.size() > n ? raw.size() - n : 0;
  std::vector<double> out;
  out.reserve(raw.size() - start);
  for (std::size_t i = start; i < raw.size(); ++i) out.push_back(raw.at(i).last);
  return out;
}

std::optional<HistoryPoint> HistoryStore::latest(const std::string& series) const {
  std::shared_lock lk(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return std::nullopt;
  const Ring& raw = it->second.raw;
  if (raw.size() == 0) return std::nullopt;
  return raw.at(raw.size() - 1);
}

std::vector<std::string> HistoryStore::series_names() const {
  std::shared_lock lk(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, _] : series_) out.push_back(name);
  return out;
}

std::size_t HistoryStore::num_series() const {
  std::shared_lock lk(mu_);
  return series_.size();
}

std::uint64_t HistoryStore::total_samples() const {
  std::shared_lock lk(mu_);
  return total_samples_;
}

std::uint64_t HistoryStore::evicted_samples() const {
  std::shared_lock lk(mu_);
  return evicted_;
}

std::uint64_t HistoryStore::late_dropped() const {
  std::shared_lock lk(mu_);
  return late_dropped_;
}

void HistoryStore::clear() {
  std::unique_lock lk(mu_);
  series_.clear();
  total_samples_ = 0;
  evicted_ = 0;
  late_dropped_ = 0;
}

}  // namespace oda::observe
