#include "observe/scraper.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace oda::observe {

namespace {

constexpr char kSep = '\x1f';
constexpr const char* kMetricVersion = "m1";
constexpr const char* kAlertVersion = "a1";

char kind_char(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return 'c';
    case MetricKind::kGauge: return 'g';
    case MetricKind::kHistogram: return 'h';
  }
  return '?';
}

bool kind_from_char(char c, MetricKind* out) {
  switch (c) {
    case 'c': *out = MetricKind::kCounter; return true;
    case 'g': *out = MetricKind::kGauge; return true;
    case 'h': *out = MetricKind::kHistogram; return true;
  }
  return false;
}

bool state_from_name(const std::string& s, SloState* out) {
  if (s == slo_state_name(SloState::kHealthy)) { *out = SloState::kHealthy; return true; }
  if (s == slo_state_name(SloState::kDegraded)) { *out = SloState::kDegraded; return true; }
  if (s == slo_state_name(SloState::kBreached)) { *out = SloState::kBreached; return true; }
  return false;
}

// %.17g round-trips every double exactly and prints deterministically —
// encoded payloads are compared byte-for-byte in golden runs. snprintf,
// not std::to_chars: the two print some doubles differently, and the
// recorded wire digests pin snprintf's bytes.
void write_exact(common::ByteWriter& w, double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  w.raw(buf, static_cast<std::size_t>(n));
}

void write_u64(common::ByteWriter& w, std::uint64_t v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  w.raw(buf, static_cast<std::size_t>(n));
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

std::vector<std::string> split_fields(std::string_view payload) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = payload.find(kSep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(payload.substr(start));
      return out;
    }
    out.emplace_back(payload.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) key += ',';
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

void encode_metric_sample_into(const MetricSample& s, common::TimePoint t,
                               stream::BatchBuilder& staged) {
  common::ByteWriter& w = staged.begin_record(t);
  w.raw(s.series.data(), s.series.size());
  staged.begin_payload();
  w.raw(kMetricVersion, 2);
  w.u8(static_cast<std::uint8_t>(kSep));
  w.u8(static_cast<std::uint8_t>(kind_char(s.kind)));
  w.u8(static_cast<std::uint8_t>(kSep));
  w.raw(s.series.data(), s.series.size());
  w.u8(static_cast<std::uint8_t>(kSep));
  write_exact(w, s.value);
  w.u8(static_cast<std::uint8_t>(kSep));
  write_exact(w, s.delta);
  w.u8(static_cast<std::uint8_t>(kSep));
  write_u64(w, s.count);
  staged.end_record();
}

bool decode_metric_sample(std::string_view payload, MetricSample* out) {
  const auto f = split_fields(payload);
  if (f.size() != 6 || f[0] != kMetricVersion) return false;
  MetricSample s;
  if (f[1].size() != 1 || !kind_from_char(f[1][0], &s.kind)) return false;
  if (f[2].empty()) return false;
  s.series = f[2];
  if (!parse_double(f[3], &s.value)) return false;
  if (!parse_double(f[4], &s.delta)) return false;
  if (!parse_u64(f[5], &s.count)) return false;
  *out = std::move(s);
  return true;
}

void encode_alert_event_into(const AlertEvent& e, common::TimePoint t,
                             stream::BatchBuilder& staged) {
  common::ByteWriter& w = staged.begin_record(t);
  w.raw(e.slo.data(), e.slo.size());
  staged.begin_payload();
  w.raw(kAlertVersion, 2);
  w.u8(static_cast<std::uint8_t>(kSep));
  w.raw(e.slo.data(), e.slo.size());
  w.u8(static_cast<std::uint8_t>(kSep));
  const std::string_view from = slo_state_name(e.from);
  w.raw(from.data(), from.size());
  w.u8(static_cast<std::uint8_t>(kSep));
  const std::string_view to = slo_state_name(e.to);
  w.raw(to.data(), to.size());
  w.u8(static_cast<std::uint8_t>(kSep));
  write_exact(w, e.value);
  staged.end_record();
}

bool decode_alert_event(std::string_view payload, AlertEvent* out) {
  const auto f = split_fields(payload);
  if (f.size() != 5 || f[0] != kAlertVersion) return false;
  AlertEvent e;
  if (f[1].empty()) return false;
  e.slo = f[1];
  if (!state_from_name(f[2], &e.from)) return false;
  if (!state_from_name(f[3], &e.to)) return false;
  if (!parse_double(f[4], &e.value)) return false;
  *out = std::move(e);
  return true;
}

void ScraperConfig::validate() const {
  if (cadence <= 0) throw std::invalid_argument("ScraperConfig: cadence must be positive");
}

Scraper::Scraper(MetricsRegistry& registry, StagedProduceFn metrics_out,
                 StagedProduceFn alerts_out, ScraperConfig config)
    : registry_(registry),
      metrics_out_(std::move(metrics_out)),
      alerts_out_(std::move(alerts_out)),
      config_(config) {
  config_.validate();
}

void Scraper::watch_slos(const SloBook& book) { books_.push_back({&book, {}}); }

std::size_t Scraper::poll(common::TimePoint now) {
  if (scraped_once_ && now < last_scrape_ + config_.cadence) return 0;
  return scrape(now);
}

std::size_t Scraper::scrape(common::TimePoint now) {
  scraped_once_ = true;
  last_scrape_ = now;
  ++stats_.scrapes;

  // Each sample is encoded straight into the reusable staging arena.
  metrics_staging_.clear();
  for (const auto& m : registry_.snapshot()) {
    // Self-exclusion: series labelled with an `_oda.*` topic never feed
    // the loop that carries them.
    const bool internal = std::any_of(m.labels.begin(), m.labels.end(), [](const auto& l) {
      return stream::is_internal_topic(l.second);
    });
    if (internal) {
      ++stats_.series_excluded;
      continue;
    }
    const std::string key = series_key(m.name, m.labels);
    const auto it = last_.find(key);
    const bool is_new = it == last_.end();
    if (!is_new && it->second.first == m.value && it->second.second == m.count) {
      ++stats_.samples_suppressed;
      continue;
    }
    MetricSample s;
    s.series = key;
    s.kind = m.kind;
    s.value = m.value;
    s.delta = is_new ? 0.0 : m.value - it->second.first;
    s.count = m.count;
    encode_metric_sample_into(s, now, metrics_staging_);
    last_[key] = {m.value, m.count};
  }

  std::size_t emitted = 0;
  if (!metrics_staging_.empty() && metrics_out_) {
    emitted = metrics_out_(metrics_staging_);
    stats_.samples_emitted += emitted;
  }
  emit_alerts();
  return emitted;
}

std::size_t Scraper::emit_alerts() {
  if (!alerts_out_) return 0;
  alerts_staging_.clear();
  for (auto& watched : books_) {
    for (const auto& slo : watched.book->all()) {
      const auto& transitions = slo->transitions();
      std::size_t& sent = watched.emitted[slo->spec().name];
      for (std::size_t i = sent; i < transitions.size(); ++i) {
        const auto& tr = transitions[i];
        encode_alert_event_into({slo->spec().name, tr.from, tr.to, tr.value}, tr.at,
                                alerts_staging_);
      }
      sent = transitions.size();
    }
  }
  if (alerts_staging_.empty()) return 0;
  const std::size_t n = alerts_out_(alerts_staging_);
  stats_.alerts_emitted += n;
  return n;
}

}  // namespace oda::observe
