// The monitor-of-the-monitor: an operator app over the oda::observe
// subsystem. Where HealthDashboard watches the *facility* (power, temps,
// fabric), OdaMonitor watches the *ODA framework itself* — consumer-group
// lag against broker offsets, pipeline watermark freshness, storage tier
// backlogs, collection drops — and rolls them into SLO states. This is
// the paper's "insight" discipline applied inward: an ODA deployment
// whose own pipelines silently fall behind is inundation with extra
// steps.
#pragma once

#include <string>
#include <vector>

#include "core/allocations.hpp"
#include "engine/engine.hpp"
#include "observe/flight.hpp"
#include "observe/lag.hpp"
#include "observe/slo.hpp"
#include "serve/server.hpp"
#include "storage/tiers.hpp"
#include "stream/broker.hpp"

namespace oda::apps {

/// SLO thresholds for the framework's own health. Values are deliberately
/// loose defaults; deployments tune them per system scale.
struct MonitorThresholds {
  std::int64_t lag_warn = 50000;          ///< records behind, per fleet
  std::int64_t lag_crit = 200000;         ///< records behind, per fleet
  common::Duration freshness_warn = 5 * common::kMinute;
  common::Duration freshness_crit = 30 * common::kMinute;
  double drop_warn = 1.0;                 ///< dropped collection records
  double drop_crit = 100.0;
  /// Virtual time lag must stay critical before Breached.
  common::Duration breach_hold = common::kMinute;
  std::size_t clear_after = 2;            ///< healthy ticks to clear
};

/// Samples broker offsets, watched queries and tier reports into a
/// LagTracker + SloBook on each tick(). Rendering is text (console) or
/// JSON (tooling); `overall()` is the one light operators page on.
class OdaMonitor {
 public:
  OdaMonitor(stream::Broker& broker, storage::TierManager& tiers,
             MonitorThresholds thresholds = {});

  /// Watch a query's watermark freshness (non-owning; caller keeps it alive).
  void watch_query(const engine::Query& query);

  /// Watch an execution engine (non-owning): scheduling totals plus the
  /// per-worker ownership view (owned partitions, handoff counts) from
  /// Engine::worker_info(). Its queries still need watch_query()
  /// individually for freshness SLOs.
  void watch_engine(const engine::Engine& engine);

  /// Sample everything at facility time `now` and evaluate SLOs.
  void tick(common::TimePoint now);

  observe::SloState overall() const { return slos_.worst(); }
  const observe::LagTracker& lag() const { return lag_; }
  const observe::SloBook& slos() const { return slos_; }

  /// Fixed-width console report: SLO table, per-group lag, watermarks,
  /// tier backlogs.
  std::string render() const;
  std::string to_json() const;
  /// Single-line digest of the process-wide metrics registry (the tier-1
  /// build-log summary).
  static std::string one_line();

 private:
  stream::Broker& broker_;
  storage::TierManager& tiers_;
  MonitorThresholds thresholds_;
  std::vector<const engine::Query*> watched_;
  std::vector<const engine::Engine*> engines_;
  observe::LagTracker lag_;
  observe::SloBook slos_;
  common::TimePoint last_tick_ = 0;
};

/// Parse a dump written by observe::flight_to_json back into a
/// FlightDump. Line-based: the exporter emits one event object per line
/// with a fixed key order, so this is a scanner, not a general JSON
/// parser. Event label strings are re-interned into the dump's label
/// table. Throws std::runtime_error on input that is not a flight dump.
observe::FlightDump parse_flight_json(const std::string& text);

/// The `--flight` console view: one aligned row per ring (wall ms per
/// phase, with the barrier stall column bracketed so it jumps out),
/// fault/retry/rebalance counts, then the newest `tail` events of the
/// merged timeline.
std::string render_flight(const observe::FlightDump& d, std::size_t tail = 12);

/// The `--serve` console view: scheduler depth and admission outcomes,
/// result-cache hit/miss/evict/stale counters, plan mix, shed-SLO state,
/// and per-project quota consumption from the AllocationManager.
std::string render_serve(const serve::LakeServer& server, const core::AllocationManager& quotas);
/// Machine-readable flavor (strict JSON; tests/json_check.hpp-clean).
std::string serve_report_json(const serve::LakeServer& server,
                              const core::AllocationManager& quotas);

}  // namespace oda::apps
