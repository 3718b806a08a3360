// Facility monitoring scenario (Sec VII-B): the User Assistance
// dashboard diagnosing a user ticket, and Copacetic watching the
// real-time event feed for security-relevant patterns.
//
//   ./facility_monitoring
#include <cstdio>

#include "apps/copacetic.hpp"
#include "apps/health_dashboard.hpp"
#include "sql/ops.hpp"
#include "apps/ua_dashboard.hpp"
#include "core/framework.hpp"
#include "stream/broker.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/spec.hpp"

int main() {
  using namespace oda;

  core::OdaFramework fw;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 200.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  cfg.events.error_rate_per_node_hour = 0.4;  // noisy day
  auto& sys = fw.add_system(telemetry::mountain_spec(0.008), cfg);  // 2 cabinets

  fw.register_query(fw.make_bronze_to_silver_power("Mountain"));
  fw.register_query(fw.make_silver_to_lake("Mountain", "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max("Mountain", "gpu", ".temp_c", "gpu_temp_c"));
  fw.register_query(fw.make_ost_to_lake("Mountain"));
  fw.register_query(fw.make_fabric_to_lake("Mountain"));

  // Copacetic subscribes to the raw syslog feed as the one member of its
  // own consumer group — the "reliable feed of real-time events" the
  // paper says batch SIEM tools can't give.
  apps::Copacetic copacetic;
  copacetic.add_rule({"gpu-xid-storm", telemetry::Severity::kError, "gpu-xid", 4,
                      10 * common::kMinute, /*require_active_job=*/true});
  copacetic.add_rule({"node-error-burst", telemetry::Severity::kError, "", 12, 5 * common::kMinute,
                      false});
  stream::GroupMember syslog_feed(fw.broker(), "copacetic", sys.topics().syslog);

  std::printf("=== running 45 facility-minutes ===\n");
  std::size_t total_alerts = 0;
  for (int step = 0; step < 45; ++step) {
    fw.advance(common::kMinute);
    const auto records = syslog_feed.poll(100000);
    std::vector<telemetry::LogEvent> events;
    events.reserve(records.size());
    for (const auto& r : records) events.push_back(telemetry::decode_log_event(r.payload));
    for (const auto& alert : copacetic.process(events, &sys.scheduler())) {
      std::printf("[ALERT] t=%s rule=%s node=%u count=%zu job=%lld\n",
                  common::format_time(alert.time).c_str(), alert.rule.c_str(), alert.node_id,
                  alert.count, static_cast<long long>(alert.job_id));
      ++total_alerts;
    }
    syslog_feed.commit();
  }
  std::printf("copacetic: %llu events scanned, %zu alerts\n",
              static_cast<unsigned long long>(copacetic.events_seen()), total_alerts);

  // The system-management console view (Table I, row 1).
  apps::HealthDashboard health(fw.lake());
  std::printf("\n%s", health.render().c_str());

  // A user files a ticket about a finished job: diagnose it from the
  // integrated dashboard view.
  std::int64_t ticket_job = -1;
  for (const auto& j : sys.scheduler().jobs()) {
    if (j.released && j.num_nodes >= 2) ticket_job = j.job_id;
  }
  if (ticket_job < 0) {
    std::printf("no finished multi-node job to diagnose\n");
    return 0;
  }

  // Gather the log events from the broker for the dashboard's context.
  stream::GroupMember log_reader(fw.broker(), "ua-dashboard", sys.topics().syslog);
  log_reader.seek_to_time(0);
  const auto log_records = log_reader.poll(1000000);
  const auto log_table = telemetry::log_events_to_table(log_records);

  apps::UaDashboard dashboard(fw.lake(), sys.scheduler().allocation_log(),
                              sys.scheduler().node_allocation_log(), log_table);
  const auto diag = dashboard.diagnose(ticket_job);
  std::printf("\n=== ticket diagnosis ===\n%s\n", diag.summary.c_str());
  std::printf("power series points: %zu, events in window: %zu\n", diag.node_power.num_rows(),
              diag.recent_events.num_rows());
  if (diag.recent_events.num_rows() > 0) {
    std::printf("most recent events:\n%s", sql::limit(diag.recent_events, 5).to_string().c_str());
  }
  return 0;
}
