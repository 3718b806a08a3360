// Tests for the well-packaged data applications: UA dashboard, RATS
// report, LVA, Copacetic.
#include <gtest/gtest.h>

#include "apps/copacetic.hpp"
#include "apps/lva.hpp"
#include "apps/rats_report.hpp"
#include "apps/ua_dashboard.hpp"
#include "core/framework.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"
#include "telemetry/spec.hpp"

namespace oda::apps {
namespace {

using common::kHour;
using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// ---- RATS -------------------------------------------------------------

Table alloc_log() {
  Table t{Schema{{"job_id", DataType::kInt64},   {"project", DataType::kString},
                 {"user", DataType::kString},    {"archetype", DataType::kString},
                 {"submit_time", DataType::kInt64}, {"start_time", DataType::kInt64},
                 {"end_time", DataType::kInt64}, {"num_nodes", DataType::kInt64},
                 {"uses_gpu", DataType::kBool}}};
  // Job 1: P1/alice, GPU, 10 nodes, 1 h.
  t.append_row({Value(std::int64_t{1}), Value("P1"), Value("alice"), Value("constant"),
                Value(std::int64_t{0}), Value(std::int64_t{0}), Value(kHour),
                Value(std::int64_t{10}), Value(true)});
  // Job 2: P2/bob, CPU, 4 nodes, 2 h starting at 1 h.
  t.append_row({Value(std::int64_t{2}), Value("P2"), Value("bob"), Value("ramp"), Value(kHour / 2),
                Value(kHour), Value(3 * kHour), Value(std::int64_t{4}), Value(false)});
  // Job 3: queued forever (never started).
  t.append_row({Value(std::int64_t{3}), Value("P1"), Value("carol"), Value("spiky"),
                Value(std::int64_t{0}), Value::null(), Value::null(), Value(std::int64_t{2}),
                Value(true)});
  return t;
}

TEST(RatsTest, ProjectUsageComputesNodeHours) {
  RatsReport rats(alloc_log());
  const auto usage = rats.project_usage(0, 3 * kHour);
  ASSERT_EQ(usage.num_rows(), 2u);
  // P1: 10 nodes x 1h = 10 nh (all GPU). Sorted desc: P1 first? P2 = 4x2=8.
  EXPECT_EQ(usage.column("project").str_at(0), "P1");
  EXPECT_DOUBLE_EQ(usage.column("node_hours").double_at(0), 10.0);
  EXPECT_DOUBLE_EQ(usage.column("gpu_node_hours").double_at(0), 10.0);
  EXPECT_DOUBLE_EQ(usage.column("cpu_node_hours").double_at(1), 8.0);
}

TEST(RatsTest, WindowClippingProRates) {
  RatsReport rats(alloc_log());
  // Window covering only the first half of job 1.
  const auto usage = rats.project_usage(0, kHour / 2);
  ASSERT_EQ(usage.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(usage.column("node_hours").double_at(0), 5.0);
}

TEST(RatsTest, BurnRateAndProjection) {
  RatsReport rats(alloc_log());
  const auto burn = rats.burn_rate({{"P1", 100.0}, {"P9", 50.0}}, 3 * kHour);
  ASSERT_EQ(burn.num_rows(), 2u);
  // P1 used 10 of 100 -> 10%.
  EXPECT_EQ(burn.column("project").str_at(0), "P1");
  EXPECT_NEAR(burn.column("burn_pct").double_at(0), 10.0, 1e-9);
  // P9 never ran: 0 burn, effectively infinite runway.
  EXPECT_DOUBLE_EQ(burn.column("burn_pct").double_at(1), 0.0);
  EXPECT_GT(burn.column("projected_exhaustion_day").double_at(1), 1e8);
}

TEST(RatsTest, UserActivityAndQueueStats) {
  RatsReport rats(alloc_log());
  const auto users = rats.user_activity();
  EXPECT_EQ(users.num_rows(), 2u);  // carol never started
  const auto q = rats.queue_stats();
  // Job2 waited 30 min.
  for (std::size_t r = 0; r < q.num_rows(); ++r) {
    if (q.column("archetype").str_at(r) == "ramp") {
      EXPECT_NEAR(q.column("mean_wait_s").double_at(r), 1800.0, 1.0);
    }
  }
}

// ---- Copacetic ---------------------------------------------------------

telemetry::LogEvent ev(common::TimePoint t, std::uint32_t node, telemetry::Severity sev,
                       const std::string& subsystem = "gpu-xid") {
  telemetry::LogEvent e;
  e.timestamp = t;
  e.node_id = node;
  e.severity = sev;
  e.subsystem = subsystem;
  e.message = "msg";
  return e;
}

TEST(CopaceticTest, ThresholdWithinWindowFires) {
  Copacetic cop;
  cop.add_rule({"r", telemetry::Severity::kError, "", 3, kMinute, false});
  std::vector<telemetry::LogEvent> events;
  for (int i = 0; i < 3; ++i) events.push_back(ev(i * 10 * kSecond, 7, telemetry::Severity::kError));
  const auto alerts = cop.process(events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].node_id, 7u);
  EXPECT_EQ(alerts[0].count, 3u);
}

TEST(CopaceticTest, EventsOutsideWindowDoNotAccumulate) {
  Copacetic cop;
  cop.add_rule({"r", telemetry::Severity::kError, "", 3, kMinute, false});
  std::vector<telemetry::LogEvent> events;
  for (int i = 0; i < 5; ++i) events.push_back(ev(i * 2 * kMinute, 7, telemetry::Severity::kError));
  EXPECT_TRUE(cop.process(events).empty());
}

TEST(CopaceticTest, SeverityAndSubsystemFilters) {
  Copacetic cop;
  cop.add_rule({"gpu-only", telemetry::Severity::kError, "gpu-xid", 2, kMinute, false});
  std::vector<telemetry::LogEvent> events{
      ev(0, 1, telemetry::Severity::kWarning, "gpu-xid"),   // below severity
      ev(1 * kSecond, 1, telemetry::Severity::kError, "lustre"),  // wrong subsystem
      ev(2 * kSecond, 1, telemetry::Severity::kError, "gpu-xid"),
      ev(3 * kSecond, 1, telemetry::Severity::kCritical, "gpu-xid"),
  };
  const auto alerts = cop.process(events);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].count, 2u);
}

TEST(CopaceticTest, CooldownSuppressesAlertStorm) {
  Copacetic cop;
  cop.add_rule({"r", telemetry::Severity::kError, "", 2, 10 * kMinute, false});
  std::vector<telemetry::LogEvent> storm;
  for (int i = 0; i < 100; ++i) storm.push_back(ev(i * kSecond, 3, telemetry::Severity::kError));
  const auto alerts = cop.process(storm);
  EXPECT_EQ(alerts.size(), 1u);  // suppressed for the window after firing
  EXPECT_EQ(cop.events_seen(), 100u);
}

TEST(CopaceticTest, NodesTrackedIndependently) {
  Copacetic cop;
  cop.add_rule({"r", telemetry::Severity::kError, "", 2, kMinute, false});
  std::vector<telemetry::LogEvent> events{
      ev(0, 1, telemetry::Severity::kError), ev(1 * kSecond, 2, telemetry::Severity::kError),
      ev(2 * kSecond, 1, telemetry::Severity::kError), ev(3 * kSecond, 2, telemetry::Severity::kError)};
  EXPECT_EQ(cop.process(events).size(), 2u);  // one alert per node
}

TEST(CopaceticTest, JobContextRuleRequiresActiveJob) {
  // Build a tiny facility so a job is really running on node 0.
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 30.0;
  cfg.scheduler.mean_duration_hours = 5.0;
  cfg.scheduler.full_system_job_prob = 0.0;  // keep some nodes free
  telemetry::FacilitySimulator sim(telemetry::mountain_spec(0.004), broker, cfg);
  sim.run_until(10 * kMinute);
  const auto& sched = sim.scheduler();

  // Find an occupied and a free node.
  std::int64_t busy_node = -1, free_node = -1;
  for (std::uint32_t n = 0; n < sim.spec().total_nodes(); ++n) {
    if (sched.job_on_node(n, 10 * kMinute)) {
      busy_node = n;
    } else {
      free_node = n;
    }
  }
  ASSERT_GE(busy_node, 0);
  ASSERT_GE(free_node, 0);

  Copacetic cop;
  cop.add_rule({"job-rule", telemetry::Severity::kError, "", 1, kMinute, true});
  const auto on_busy = cop.process(
      {ev(10 * kMinute, static_cast<std::uint32_t>(busy_node), telemetry::Severity::kError)},
      &sched);
  ASSERT_EQ(on_busy.size(), 1u);
  EXPECT_GT(on_busy[0].job_id, 0);
  const auto on_free = cop.process(
      {ev(10 * kMinute, static_cast<std::uint32_t>(free_node), telemetry::Severity::kError)},
      &sched);
  EXPECT_TRUE(on_free.empty());
}

TEST(CopaceticTest, ProcessTableEquivalentToStructs) {
  Copacetic a, b;
  const SecurityRule rule{"r", telemetry::Severity::kError, "", 2, kMinute, false};
  a.add_rule(rule);
  b.add_rule(rule);
  std::vector<telemetry::LogEvent> events{ev(0, 1, telemetry::Severity::kError),
                                          ev(kSecond, 1, telemetry::Severity::kError)};
  stream::BatchBuilder staged;
  for (const auto& e : events) telemetry::encode_log_event_into(e, staged);
  std::vector<stream::EncodedRecord> encoded;
  staged.snapshot(encoded);
  std::vector<stream::RecordView> records;
  for (const auto& r : encoded) records.push_back({0, r.timestamp, 0, 0, r.key, r.payload});
  const auto table = telemetry::log_events_to_table(records);
  EXPECT_EQ(a.process(events).size(), b.process_table(table).size());
}

// ---- LVA + UA dashboard against a real framework run --------------------

class AppsIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SimulatorConfig cfg;
    cfg.scheduler.arrival_rate_per_hour = 300.0;
    cfg.scheduler.mean_duration_hours = 0.15;
    sys_ = &fw_.add_system(telemetry::compass_spec(0.005), cfg);
    fw_.register_query(fw_.make_bronze_to_silver_power("Compass"));
    fw_.register_query(fw_.make_silver_to_lake("Compass", "node.power_w", "node_power_w"));
    fw_.register_query(fw_.make_bronze_archiver("Compass"));
    fw_.advance(20 * kMinute);
    for (auto& q : fw_.queries()) q->finalize();
  }
  core::OdaFramework fw_;
  telemetry::FacilitySimulator* sys_ = nullptr;
};

TEST_F(AppsIntegration, LvaSilverAndBronzeAgree) {
  Lva lva(fw_.ocean(), "silver/power/Compass", "bronze/power/Compass");
  LvaQuery q{2 * kMinute, 18 * kMinute, 2 * kMinute};
  const auto silver = lva.query_silver(q);
  const auto bronze = lva.query_bronze(q);
  ASSERT_GT(silver.series.num_rows(), 0u);
  ASSERT_EQ(silver.series.num_rows(), bronze.series.num_rows());
  for (std::size_t r = 0; r < silver.series.num_rows(); ++r) {
    EXPECT_EQ(silver.series.column("bucket").int_at(r), bronze.series.column("bucket").int_at(r));
    // Mean of 15s-window means == mean of raw samples only approximately
    // (uneven window populations after sample loss); they track closely.
    EXPECT_NEAR(silver.series.column("mean_power_w").double_at(r),
                bronze.series.column("mean_power_w").double_at(r),
                0.02 * bronze.series.column("mean_power_w").double_at(r));
  }
}

TEST_F(AppsIntegration, LvaPushdownSkipsObjects) {
  Lva lva(fw_.ocean(), "silver/power/Compass", "bronze/power/Compass");
  // A narrow window should prune most Silver objects via row-group stats.
  LvaQuery narrow{15 * kMinute, 16 * kMinute, kMinute};
  const auto res = lva.query_silver(narrow);
  EXPECT_GT(res.objects_skipped + res.objects_read, 0u);
  EXPECT_GT(res.objects_skipped, 0u);
}

TEST_F(AppsIntegration, DashboardDiagnosisMatchesManual) {
  // Materialize context tables.
  stream::GroupMember log_reader(fw_.broker(), "t", sys_->topics().syslog);
  const auto logs = telemetry::log_events_to_table(log_reader.poll(100000));
  UaDashboard dash(fw_.lake(), sys_->scheduler().allocation_log(),
                   sys_->scheduler().node_allocation_log(), logs);

  stream::GroupMember bronze_reader(fw_.broker(), "t2", sys_->topics().power);
  Table bronze;
  for (;;) {
    const auto recs = bronze_reader.poll(65536);
    if (recs.empty()) break;
    Table part = telemetry::packets_to_bronze(recs);
    if (bronze.num_columns() == 0) bronze = Table(part.schema());
    bronze.append_table(part);
  }

  std::int64_t job_id = -1;
  for (const auto& j : sys_->scheduler().jobs()) {
    if (j.released) job_id = j.job_id;
  }
  ASSERT_GT(job_id, 0);
  const auto fast = dash.diagnose(job_id);
  const auto slow = dash.diagnose_manually(job_id, bronze);
  EXPECT_EQ(fast.error_events, slow.error_events);
  EXPECT_GT(fast.node_power.num_rows(), 0u);
  EXPECT_FALSE(fast.summary.empty());
}

TEST_F(AppsIntegration, DashboardUnknownJob) {
  UaDashboard dash(fw_.lake(), sys_->scheduler().allocation_log(),
                   sys_->scheduler().node_allocation_log(),
                   sql::Table(telemetry::log_event_schema()));
  const auto d = dash.diagnose(999999);
  EXPECT_NE(d.summary.find("not found"), std::string::npos);
}

}  // namespace
}  // namespace oda::apps
