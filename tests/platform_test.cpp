// Tests for platform features added on top of the core reproduction:
// interconnect telemetry, durable query checkpoints, the Constellation
// public repository, and the system-health dashboard.
#include <gtest/gtest.h>

#include "apps/health_dashboard.hpp"
#include "core/framework.hpp"
#include "governance/constellation.hpp"
#include "engine/engine.hpp"
#include "storage/columnar.hpp"
#include "telemetry/interconnect.hpp"

namespace oda {
namespace {

using common::kHour;
using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// ---- interconnect ---------------------------------------------------------

class InterconnectTest : public ::testing::Test {
 protected:
  telemetry::JobScheduler make_sched(double rate = 1200.0) {
    telemetry::SchedulerConfig cfg;
    cfg.arrival_rate_per_hour = rate;
    cfg.mean_duration_hours = 0.5;
    telemetry::JobScheduler sched(64, cfg, common::Rng(3));
    sched.advance_to(20 * kMinute);
    return sched;
  }
};

TEST_F(InterconnectTest, NicSamplesForBusyNodesOnly) {
  auto sched = make_sched();
  telemetry::InterconnectModel model({}, common::Rng(1));
  std::vector<telemetry::NicSample> nics;
  std::vector<telemetry::SwitchSample> switches;
  model.sample(20 * kMinute, 10 * kSecond, sched, nics, switches);
  EXPECT_EQ(nics.size(), sched.busy_nodes(20 * kMinute));
  EXPECT_EQ(switches.size(), telemetry::FabricConfig{}.switches);
  for (const auto& n : nics) {
    EXPECT_GE(n.tx_bytes_s, 0.0);
    EXPECT_LE(n.tx_bytes_s, telemetry::FabricConfig{}.link_bandwidth_bytes_s);
  }
}

TEST_F(InterconnectTest, CongestionSuperLinearInUtilization) {
  for (const auto& s : [&] {
         auto sched = make_sched();
         telemetry::InterconnectModel model({}, common::Rng(1));
         std::vector<telemetry::NicSample> nics;
         std::vector<telemetry::SwitchSample> switches;
         model.sample(20 * kMinute, 10 * kSecond, sched, nics, switches);
         return switches;
       }()) {
    EXPECT_NEAR(s.congestion_stall_pct, 100.0 * s.utilization * s.utilization * s.utilization,
                1e-6);
  }
}

TEST_F(InterconnectTest, MultiNodeJobsDriveFabricHarder) {
  // comm profile fabric_factor: single-node jobs ~5% of injection.
  const auto profile = telemetry::comm_profile_for(telemetry::JobArchetype::kPeriodic);
  EXPECT_TRUE(profile.allreduce_heavy);
  EXPECT_GT(profile.inject_rate, telemetry::comm_profile_for(telemetry::JobArchetype::kPhased).inject_rate);
}

TEST_F(InterconnectTest, CodecsRoundTrip) {
  telemetry::NicSample n;
  n.time = kMinute;
  n.node_id = 9;
  n.tx_bytes_s = 1.25e10;
  n.rx_bytes_s = 1.5e10;
  n.messages_s = 2e5;
  n.link_errors = 3;
  stream::BatchBuilder staged;
  telemetry::encode_nic_sample_into(n, staged);
  std::vector<stream::EncodedRecord> recs;
  staged.snapshot(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "n9");
  EXPECT_EQ(recs[0].timestamp, kMinute);
  const auto nb = telemetry::decode_nic_sample(recs[0].payload);
  EXPECT_EQ(nb.node_id, 9u);
  EXPECT_DOUBLE_EQ(nb.tx_bytes_s, 1.25e10);
  EXPECT_EQ(nb.link_errors, 3u);

  telemetry::SwitchSample s;
  s.time = kMinute;
  s.switch_id = 2;
  s.throughput_bytes_s = 4e11;
  s.utilization = 0.5;
  s.congestion_stall_pct = 12.5;
  staged.clear();
  telemetry::encode_switch_sample_into(s, staged);
  recs.clear();
  staged.snapshot(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "sw2");
  const auto sb = telemetry::decode_switch_sample(recs[0].payload);
  EXPECT_EQ(sb.switch_id, 2u);
  EXPECT_DOUBLE_EQ(sb.congestion_stall_pct, 12.5);
}

// ---- durable checkpoints -----------------------------------------------

TEST(DurableCheckpointTest, RestartResumesWindowState) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  stream::BatchBuilder staged;
  auto produce = [&, producer = broker.producer("in")](common::TimePoint t, double v) mutable {
    Table row{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
    row.append_row({Value(t), Value(v)});
    const auto blob = storage::write_columnar(row);
    staged.add(t, "", std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
    producer.produce_staged(staged);
  };
  auto make_query = [&] {
    pipeline::QueryConfig qc;
    qc.name = "ckpt-query";
    auto q = std::make_unique<engine::Query>(
        qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
        /*workers=*/1);
    q->add_operator([] {
      return std::make_unique<pipeline::WindowAggOp>(
          "w", "time", 10 * kSecond, std::vector<std::string>{},
          std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
    });
    return q;
  };

  storage::ObjectStore checkpoints;
  // First incarnation: consume a partial window, checkpoint, "crash".
  for (int i = 0; i < 5; ++i) produce(i * kSecond, 1.0);
  {
    auto q1 = make_query();
    auto sink = std::make_unique<pipeline::TableSink>();
    q1->add_sink(std::move(sink));
    q1->run_until_caught_up();
    q1->checkpoint_to(checkpoints, "ckpt/q1", 0);
  }  // q1 destroyed: process gone

  // Second incarnation restores and finishes the window.
  for (int i = 5; i < 10; ++i) produce(i * kSecond, 1.0);
  produce(20 * kSecond, 0.0);  // watermark pusher
  auto q2 = make_query();
  auto sink2 = std::make_unique<pipeline::TableSink>();
  auto* out = sink2.get();
  q2->add_sink(std::move(sink2));
  ASSERT_TRUE(q2->restore_from(checkpoints, "ckpt/q1"));
  q2->run_until_caught_up();
  q2->finalize();

  // The [0,10s) window must contain all ten 1.0 rows exactly once.
  double window0 = -1.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    if (out->table().column("window_start").int_at(r) == 0) {
      window0 = out->table().column("s").double_at(r);
    }
  }
  EXPECT_DOUBLE_EQ(window0, 10.0);
}

TEST(DurableCheckpointTest, MissingAndMismatchedCheckpoints) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  storage::ObjectStore store;

  pipeline::QueryConfig qc;
  qc.name = "a";
  engine::Query qa(qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
                   /*workers=*/1);
  EXPECT_FALSE(qa.restore_from(store, "nope"));

  qa.checkpoint_to(store, "ckpt/a", 0);
  pipeline::QueryConfig qc2;
  qc2.name = "b";
  engine::Query qb(qc2, engine::SourceSpec{&broker, "in", "g2", pipeline::decode_columnar_records},
                   /*workers=*/1);
  EXPECT_THROW(qb.restore_from(store, "ckpt/a"), std::runtime_error);

  // Same name over a topic with another partition count: the lanes'
  // operator state would not line up, so the restore is rejected too.
  broker.create_topic("in4", {4, 1 << 20, {}});
  engine::Query qa4(qc, engine::SourceSpec{&broker, "in4", "g4", pipeline::decode_columnar_records},
                    /*workers=*/1);
  EXPECT_THROW(qa4.restore_from(store, "ckpt/a"), std::runtime_error);
}

// ---- Constellation ------------------------------------------------------

Table usage_artifact() {
  Table t{Schema{{"project", DataType::kString},
                 {"user", DataType::kString},
                 {"node_hours", DataType::kFloat64}}};
  t.append_row({Value("P1"), Value("alice"), Value(10.0)});
  t.append_row({Value("P1"), Value("bob"), Value(20.0)});
  t.append_row({Value("P2"), Value("carol"), Value(30.0)});
  t.append_row({Value("P2"), Value("dan"), Value(40.0)});
  return t;
}

governance::ReleaseRequest standard_request() {
  governance::ReleaseRequest req;
  req.title = "per-project usage";
  req.description = "curated usage rollup";
  req.creators = {"energy-team"};
  req.requester = "energy-team";
  req.sanitize_policy.hash_columns = {"user"};
  req.sanitize_policy.drop_columns = {};
  req.quasi_identifiers = {"project"};
  req.min_k = 2;
  return req;
}

TEST(ConstellationTest, PublishLandingDownload) {
  governance::Constellation repo;
  const auto doi = repo.publish("t", "d", {"a"}, {1, 2, 3}, 7, 100);
  EXPECT_EQ(doi.rfind("10.13139/SIM/", 0), 0u);
  const auto landing = repo.landing(doi);
  ASSERT_TRUE(landing.has_value());
  EXPECT_EQ(landing->size_bytes, 3u);
  EXPECT_EQ(landing->downloads, 0u);
  EXPECT_EQ(repo.download(doi)->size(), 3u);
  EXPECT_EQ(repo.landing(doi)->downloads, 1u);
  EXPECT_FALSE(repo.download("10.13139/SIM/9999999").has_value());
  EXPECT_EQ(repo.catalog().size(), 1u);
}

TEST(ConstellationTest, ReleasePathEndToEnd) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(1));
  governance::Constellation repo;
  // Artifact with the marker column dropped post-sanitization.
  auto req = standard_request();
  req.sanitize_policy.drop_columns = {"user"};
  req.sanitize_policy.hash_columns = {};
  std::string why;
  const auto doi = governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why);
  ASSERT_TRUE(doi.has_value()) << why;
  // Downloaded dataset decodes and is sanitized.
  const auto blob = repo.download(*doi);
  const Table back = storage::read_columnar(*blob);
  EXPECT_FALSE(back.schema().contains("user"));
  EXPECT_EQ(back.num_rows(), 4u);
}

TEST(ConstellationTest, KAnonymityGateBlocks) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(2));
  governance::Constellation repo;
  Table tiny{Schema{{"project", DataType::kString}, {"node_hours", DataType::kFloat64}}};
  tiny.append_row({Value("P1"), Value(1.0)});  // singleton group: k=1
  auto req = standard_request();
  req.sanitize_policy.hash_columns = {};
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, tiny, req, 0, &why).has_value());
  EXPECT_NE(why.find("k-anonymity"), std::string::npos);
  EXPECT_TRUE(repo.catalog().empty());
}

TEST(ConstellationTest, PiiGateBlocksResidualMarkers) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(3));
  governance::Constellation repo;
  auto req = standard_request();  // hashes 'user' values but keeps the column name
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why).has_value());
  EXPECT_NE(why.find("PII"), std::string::npos);
}

TEST(ConstellationTest, AdvisoryRejectionStopsRelease) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  cfg.reject_prob[static_cast<int>(governance::Consideration::kLegal)] = 1.0;
  governance::DataRuc ruc(cfg, common::Rng(4));
  governance::Constellation repo;
  auto req = standard_request();
  req.sanitize_policy.drop_columns = {"user"};
  req.sanitize_policy.hash_columns = {};
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why).has_value());
  EXPECT_NE(why.find("advisory"), std::string::npos);
}

// ---- health dashboard ------------------------------------------------------

class HealthDashboardTest : public ::testing::Test {
 protected:
  storage::TimeSeriesDb lake_;
  void add(const std::string& metric, const std::string& tag_key, const std::string& tag,
           double v) {
    lake_.append({metric, {{tag_key, tag}}}, kMinute, v);
  }
};

TEST_F(HealthDashboardTest, AllGreenWhenWithinThresholds) {
  add("node_power_w", "node_id", "0", 2000.0);
  add("gpu_temp_c", "node_id", "0", 55.0);
  add("ost_latency_ms", "ost", "0", 3.0);
  add("switch_stall_pct", "switch_id", "0", 5.0);
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kOk);
}

TEST_F(HealthDashboardTest, WorstSeriesDrivesStatus) {
  add("gpu_temp_c", "node_id", "0", 50.0);
  add("gpu_temp_c", "node_id", "1", 92.0);  // critical hotspot
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kCritical);
  bool found = false;
  for (const auto& p : dash.evaluate()) {
    if (p.name == "GPU thermals") {
      found = true;
      EXPECT_EQ(p.status, apps::HealthStatus::kCritical);
      EXPECT_DOUBLE_EQ(p.value, 92.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HealthDashboardTest, WarningBetweenThresholds) {
  add("ost_latency_ms", "ost", "3", 30.0);
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kWarning);
}

TEST_F(HealthDashboardTest, EmptyLakeRendersNoData) {
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kOk);
  const std::string view = dash.render();
  EXPECT_NE(view.find("no data"), std::string::npos);
  EXPECT_NE(view.find("SYSTEM HEALTH [OK]"), std::string::npos);
}

TEST(HealthIntegrationTest, LiveFrameworkFeedsDashboard) {
  core::OdaFramework fw;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 300.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  fw.add_system(telemetry::compass_spec(0.005), cfg);
  fw.register_query(fw.make_bronze_to_silver_power("Compass"));
  fw.register_query(fw.make_silver_to_lake("Compass", "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max("Compass", "gpu", ".temp_c", "gpu_temp_c"));
  fw.register_query(fw.make_ost_to_lake("Compass"));
  fw.register_query(fw.make_fabric_to_lake("Compass"));
  fw.advance(6 * kMinute);

  apps::HealthDashboard dash(fw.lake());
  const auto panels = dash.evaluate();
  // Every panel has data in a live run.
  for (const auto& p : panels) {
    EXPECT_EQ(p.detail.find("no data"), std::string::npos) << p.name;
  }
  EXPECT_NE(dash.render().find("fleet IT power"), std::string::npos);
}

}  // namespace
}  // namespace oda
