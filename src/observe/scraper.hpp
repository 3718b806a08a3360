// The self-telemetry loop's front half: a virtual-clock Scraper that
// periodically snapshots a MetricsRegistry, delta-encodes the series that
// changed since the previous scrape into a staging buffer, and hands it
// to a produce callback — in practice stream::Producer::produce_staged
// onto the reserved `_oda.metrics` topic (pipeline::make_scraper binds
// them; this layer cannot link oda_stream, so it only sees the
// header-only BatchBuilder and a std::function seam). SLO state
// transitions ride the same path onto `_oda.alerts` via watch_slos().
//
// Everything is driven by virtual facility time: poll(now) scrapes only
// when a full cadence has elapsed, so a deterministic run scrapes at
// deterministic instants and the records' timestamps, order and payloads
// are byte-identical across reruns (the engine_test golden-run proof
// extends over this path).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "observe/metrics.hpp"
#include "observe/slo.hpp"
#include "stream/record.hpp"
#include "stream/staging.hpp"

namespace oda::observe {

/// One scraped series sample as carried by an `_oda.metrics` record.
struct MetricSample {
  std::string series;  ///< canonical `name{k=v,...}` key
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;        ///< cumulative: counter total / gauge level / histogram sum
  double delta = 0.0;        ///< change since the previously emitted sample (0 on first)
  std::uint64_t count = 0;   ///< counter total / histogram observation count
};

/// One SLO transition as carried by an `_oda.alerts` record.
struct AlertEvent {
  std::string slo;
  SloState from = SloState::kHealthy;
  SloState to = SloState::kHealthy;
  double value = 0.0;
};

/// Canonical series key, matching the exporters' `name{k=v,...}` format.
std::string series_key(const std::string& name, const Labels& labels);

/// Serialize straight into a staging buffer, keyed by the series / SLO
/// name; nothing is materialized outside the staging arena. Payloads are
/// text fields, doubles printed with %.17g so they round-trip exactly.
void encode_metric_sample_into(const MetricSample& s, common::TimePoint t,
                               stream::BatchBuilder& staged);
void encode_alert_event_into(const AlertEvent& e, common::TimePoint t,
                             stream::BatchBuilder& staged);
/// Strict decoders: false on truncated/corrupt/forged payloads (the
/// history pipeline skips and counts such records instead of crashing).
bool decode_metric_sample(std::string_view payload, MetricSample* out);
bool decode_alert_event(std::string_view payload, AlertEvent* out);

/// Produce seam: one scrape's whole batch is handed over as a staging
/// buffer (maps onto Producer::produce_staged — bytes flow from the
/// staging arena straight into segment arenas, no owned record exists),
/// returns records actually produced. May throw; the callback must leave
/// the builder intact when it throws (produce_staged does), so the
/// caller's retry (pipeline::make_scraper, under the chaos policy)
/// re-flushes the identical batch.
using StagedProduceFn = std::function<std::size_t(stream::BatchBuilder&)>;

struct ScraperConfig {
  /// Virtual time between scrapes (the paper's 15 s collection interval).
  common::Duration cadence = 15 * common::kSecond;

  // Fluent construction: ScraperConfig{}.with_cadence(30 * common::kSecond).
  ScraperConfig& with_cadence(common::Duration d) {
    cadence = d;
    return *this;
  }

  /// Throws std::invalid_argument on a non-positive cadence.
  void validate() const;
};

struct ScraperStats {
  std::uint64_t scrapes = 0;
  std::uint64_t samples_emitted = 0;
  std::uint64_t samples_suppressed = 0;  ///< unchanged series skipped
  std::uint64_t series_excluded = 0;     ///< internal-label series skipped
  std::uint64_t alerts_emitted = 0;
};

/// Not thread-safe: poll/scrape from one driver (the framework's advance
/// loop). The registry it snapshots may be written concurrently — the
/// snapshot itself is the synchronization point.
class Scraper {
 public:
  /// Scrapes encode into internal staging buffers and flush through the
  /// StagedProduceFn seams — the zero-copy write path. Record bytes are
  /// those of encode_metric_sample_into / encode_alert_event_into.
  Scraper(MetricsRegistry& registry, StagedProduceFn metrics_out, StagedProduceFn alerts_out = {},
          ScraperConfig config = {});

  /// Watch a SloBook (non-owning; must outlive the scraper's use): each
  /// scrape emits any transitions recorded since the previous scrape to
  /// the alerts callback, stamped with the transition's own virtual time.
  void watch_slos(const SloBook& book);

  /// Scrape if at least one cadence has elapsed since the last scrape
  /// (first poll always scrapes). Returns samples emitted, 0 when not due.
  std::size_t poll(common::TimePoint now);

  /// Unconditional scrape stamped at `now`; resets the cadence phase.
  std::size_t scrape(common::TimePoint now);

  const ScraperStats& stats() const { return stats_; }
  const ScraperConfig& config() const { return config_; }

 private:
  std::size_t emit_alerts();

  MetricsRegistry& registry_;
  StagedProduceFn metrics_out_;
  StagedProduceFn alerts_out_;
  // Reusable staging buffers, cleared at the start of each scrape so
  // records orphaned by an exhausted-retry flush cannot leak into the
  // next batch.
  stream::BatchBuilder metrics_staging_;
  stream::BatchBuilder alerts_staging_;
  ScraperConfig config_;
  ScraperStats stats_;
  bool scraped_once_ = false;
  common::TimePoint last_scrape_ = 0;
  /// Per-series (value, count) at last emission — the delta baseline.
  /// std::map: deterministic iteration is part of the golden-run proof.
  std::map<std::string, std::pair<double, std::uint64_t>> last_;
  struct WatchedBook {
    const SloBook* book;
    std::map<std::string, std::size_t> emitted;  ///< per-slo transitions already sent
  };
  std::vector<WatchedBook> books_;
};

}  // namespace oda::observe
