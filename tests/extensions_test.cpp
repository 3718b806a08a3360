// Tests for the extension subsystems: I/O telemetry (Darshan/Lustre),
// failure injection, anomaly detection, forecasting, reliability
// analytics and the twin's resource-allocator module.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/reliability.hpp"
#include "ml/anomaly.hpp"
#include "ml/forecast.hpp"
#include "telemetry/failures.hpp"
#include "telemetry/io_telemetry.hpp"
#include "telemetry/simulator.hpp"
#include "twin/allocator.hpp"

namespace oda {
namespace {

using common::kHour;
using common::kMinute;
using common::kSecond;

// ---- I/O telemetry ------------------------------------------------------

class IoTelemetryTest : public ::testing::Test {
 protected:
  telemetry::JobScheduler make_busy_scheduler(std::uint64_t seed = 3) {
    telemetry::SchedulerConfig cfg;
    cfg.arrival_rate_per_hour = 1200.0;
    cfg.mean_duration_hours = 0.5;
    telemetry::JobScheduler sched(64, cfg, common::Rng(seed));
    sched.advance_to(20 * kMinute);
    return sched;
  }
};

TEST_F(IoTelemetryTest, RunningJobsEmitCounters) {
  auto sched = make_busy_scheduler();
  telemetry::IoTelemetryModel model({}, common::Rng(1));
  std::vector<telemetry::IoCounters> jobs;
  std::vector<telemetry::OstSample> osts;
  model.sample(20 * kMinute, 10 * kSecond, sched, jobs, osts);
  EXPECT_EQ(jobs.size(), sched.running_count(20 * kMinute));
  EXPECT_EQ(osts.size(), telemetry::LustreConfig{}.num_osts);
  for (const auto& c : jobs) {
    EXPECT_GE(c.bytes_read, 0.0);
    EXPECT_GE(c.bytes_written, 0.0);
    EXPECT_GT(c.bytes_read + c.bytes_written, 0.0);
  }
}

TEST_F(IoTelemetryTest, OstLoadReflectsJobTraffic) {
  auto sched = make_busy_scheduler();
  telemetry::IoTelemetryModel model({}, common::Rng(1));
  std::vector<telemetry::IoCounters> jobs;
  std::vector<telemetry::OstSample> osts;
  model.sample(20 * kMinute, 10 * kSecond, sched, jobs, osts);
  double total_job_rate = 0.0;
  for (const auto& c : jobs) total_job_rate += (c.bytes_read + c.bytes_written) / 10.0;
  double total_ost_rate = 0.0;
  for (const auto& o : osts) total_ost_rate += o.bytes_s;
  // OST load = job traffic + background.
  EXPECT_GE(total_ost_rate, total_job_rate * 0.99);
  for (const auto& o : osts) {
    EXPECT_GE(o.utilization, 0.0);
    EXPECT_LE(o.utilization, 1.0);
    EXPECT_GT(o.latency_ms, 0.0);
  }
}

TEST_F(IoTelemetryTest, LatencyRisesWithUtilization) {
  telemetry::LustreConfig small;
  small.ost_bandwidth_bytes_s = 1e8;  // tiny OSTs saturate
  telemetry::LustreConfig big;
  big.ost_bandwidth_bytes_s = 1e12;
  auto sched = make_busy_scheduler();
  telemetry::IoTelemetryModel hot(small, common::Rng(1)), cold(big, common::Rng(1));
  std::vector<telemetry::IoCounters> j1, j2;
  std::vector<telemetry::OstSample> o_hot, o_cold;
  hot.sample(20 * kMinute, 10 * kSecond, sched, j1, o_hot);
  cold.sample(20 * kMinute, 10 * kSecond, sched, j2, o_cold);
  double hot_lat = 0, cold_lat = 0;
  for (const auto& o : o_hot) hot_lat += o.latency_ms;
  for (const auto& o : o_cold) cold_lat += o.latency_ms;
  EXPECT_GT(hot_lat, cold_lat);
}

TEST_F(IoTelemetryTest, ProfilesDifferByArchetype) {
  // Spiky (analytics) reads far more than periodic (tightly coupled).
  const auto spiky = telemetry::io_profile_for(telemetry::JobArchetype::kSpiky);
  const auto periodic = telemetry::io_profile_for(telemetry::JobArchetype::kPeriodic);
  EXPECT_GT(spiky.read_rate, 10 * periodic.read_rate);
  const auto phased = telemetry::io_profile_for(telemetry::JobArchetype::kPhased);
  EXPECT_GT(phased.checkpoint_multiplier, 5.0);
}

TEST_F(IoTelemetryTest, CodecsRoundTrip) {
  telemetry::IoCounters c;
  c.job_id = 42;
  c.interval_start = kMinute;
  c.interval = 10 * kSecond;
  c.bytes_read = 1.5e9;
  c.bytes_written = 2.5e8;
  c.opens = 7;
  c.metadata_ops = 29;
  c.checkpoint_phase = 1;
  stream::BatchBuilder staged;
  telemetry::encode_io_counters_into(c, staged);
  std::vector<stream::EncodedRecord> recs;
  staged.snapshot(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "j42");
  EXPECT_EQ(recs[0].timestamp, kMinute);
  const auto back = telemetry::decode_io_counters(recs[0].payload);
  EXPECT_EQ(back.job_id, 42);
  EXPECT_DOUBLE_EQ(back.bytes_read, 1.5e9);
  EXPECT_EQ(back.checkpoint_phase, 1);

  telemetry::OstSample s;
  s.time = kMinute;
  s.ost = 3;
  s.bytes_s = 4e9;
  s.utilization = 0.8;
  s.latency_ms = 16.5;
  staged.clear();
  telemetry::encode_ost_sample_into(s, staged);
  recs.clear();
  staged.snapshot(recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "ost3");
  const auto sback = telemetry::decode_ost_sample(recs[0].payload);
  EXPECT_EQ(sback.ost, 3u);
  EXPECT_DOUBLE_EQ(sback.latency_ms, 16.5);
}

// ---- failure injection --------------------------------------------------

TEST(FailureInjectorTest, SchedulesAtConfiguredRate) {
  telemetry::FailureConfig cfg;
  cfg.system_mtbf_hours = 1.0;  // aggressive for testing
  telemetry::FailureInjector inj(100, 8, cfg, common::Rng(5));
  inj.schedule_until(100 * kHour);
  // ~100 failures expected; allow broad slack.
  EXPECT_GT(inj.failures().size(), 60u);
  EXPECT_LT(inj.failures().size(), 150u);
  for (const auto& f : inj.failures()) {
    EXPECT_LT(f.node_id, 100u);
    EXPECT_LT(f.gpu_index, 8u);
    EXPECT_LT(f.onset, f.failure);
    EXPECT_LT(f.failure, f.recovered);
  }
}

TEST(FailureInjectorTest, PrecursorBiasRampsAndStops) {
  telemetry::FailureConfig cfg;
  cfg.system_mtbf_hours = 0.05;
  // A huge slot pool isolates the failure: a second event on the same
  // (node, gpu) would otherwise stack bias/downtime and break the checks.
  telemetry::FailureInjector inj(10000, 8, cfg, common::Rng(6));
  common::TimePoint horizon = 10 * kMinute;
  while (inj.failures().empty()) {
    inj.schedule_until(horizon);
    horizon += 10 * kMinute;
  }
  const auto& f = inj.failures().front();
  EXPECT_DOUBLE_EQ(inj.temp_bias(f.node_id, f.gpu_index, f.onset - kSecond), 0.0);
  const double mid = inj.temp_bias(f.node_id, f.gpu_index, (f.onset + f.failure) / 2);
  EXPECT_NEAR(mid, cfg.precursor_temp_rise_c / 2, 1.0);
  EXPECT_DOUBLE_EQ(inj.temp_bias(f.node_id, f.gpu_index, f.recovered + kSecond), 0.0);
  // Down exactly during the drain window.
  EXPECT_FALSE(inj.gpu_down(f.node_id, f.gpu_index, f.failure - kSecond));
  EXPECT_TRUE(inj.gpu_down(f.node_id, f.gpu_index, f.failure + kSecond));
  EXPECT_FALSE(inj.gpu_down(f.node_id, f.gpu_index, f.recovered + kSecond));
  // Other GPUs unaffected.
  EXPECT_FALSE(inj.gpu_down(f.node_id, static_cast<std::uint8_t>(1 - f.gpu_index), f.failure + 1));
}

TEST(FailureInjectorTest, XidStormEmitted) {
  telemetry::FailureConfig cfg;
  cfg.system_mtbf_hours = 0.05;
  telemetry::FailureInjector inj(10000, 8, cfg, common::Rng(7));
  common::TimePoint horizon = kMinute;
  while (inj.failures().empty()) {
    inj.schedule_until(horizon);
    horizon += kMinute;
  }
  ASSERT_GE(inj.failures().size(), 1u);
  const auto& f = inj.failures().front();
  const auto events = inj.events_in(f.failure - kSecond, f.failure + kMinute);
  EXPECT_EQ(events.size(), cfg.xid_burst_events);
  EXPECT_EQ(events.front().severity, telemetry::Severity::kCritical);
  EXPECT_EQ(events.front().subsystem, "gpu-xid");
  for (const auto& ev : events) EXPECT_EQ(ev.node_id, f.node_id);
  EXPECT_TRUE(inj.events_in(f.failure + kMinute, f.failure + 2 * kMinute).empty());
}

TEST(FailureInjectorTest, ZeroRateNeverFails) {
  telemetry::FailureConfig cfg;
  cfg.system_mtbf_hours = 0.0;
  telemetry::FailureInjector inj(4, 2, cfg, common::Rng(8));
  inj.schedule_until(1000 * kHour);
  EXPECT_TRUE(inj.failures().empty());
}

// ---- anomaly detection ---------------------------------------------------

ml::FeatureMatrix healthy_samples(std::size_t n, common::Rng& rng) {
  // 3 features: power, gpu temp, inlet temp with correlated structure.
  ml::FeatureMatrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    const double load = rng.uniform(0.2, 1.0);
    x.at(i, 0) = 1500 + 1500 * load + rng.normal(0, 30);
    x.at(i, 1) = 35 + 30 * load + rng.normal(0, 1);
    x.at(i, 2) = 24 + rng.normal(0, 0.5);
  }
  return x;
}

TEST(AnomalyDetectorTest, FlagsThermalRunawayNotHealthyData) {
  common::Rng rng(9);
  ml::AnomalyDetector det;
  det.fit(healthy_samples(600, rng), 42);

  // Held-out healthy data: low false-positive rate.
  const auto holdout = healthy_samples(200, rng);
  std::size_t fp = 0;
  for (std::size_t r = 0; r < holdout.rows(); ++r) {
    if (det.is_anomalous(holdout.row(r))) ++fp;
  }
  EXPECT_LT(fp, 10u);

  // Thermal precursor signature: temp high while power normal.
  std::size_t caught = 0;
  for (int i = 0; i < 50; ++i) {
    const double load = rng.uniform(0.2, 0.5);
    const std::vector<double> anomaly{1500 + 1500 * load, 35 + 30 * load + 14.0, 24.0};
    if (det.is_anomalous(anomaly)) ++caught;
  }
  EXPECT_GT(caught, 40u);
}

TEST(AnomalyDetectorTest, SerializeRoundTripSameVerdicts) {
  common::Rng rng(10);
  ml::AnomalyDetector det;
  det.fit(healthy_samples(300, rng), 7);
  const auto restored = ml::AnomalyDetector::deserialize(det.serialize());
  EXPECT_DOUBLE_EQ(restored.threshold(), det.threshold());
  const auto probe = healthy_samples(50, rng);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    EXPECT_NEAR(restored.score(probe.row(r)), det.score(probe.row(r)), 1e-9);
  }
}

TEST(AnomalyDetectorTest, EvaluateMetrics) {
  common::Rng rng(11);
  ml::AnomalyDetector det;
  det.fit(healthy_samples(400, rng), 3);
  ml::FeatureMatrix eval(20, 3);
  std::vector<char> label_bytes(20);
  for (std::size_t i = 0; i < 20; ++i) {
    const bool anom = i % 2 == 0;
    const double load = 0.4;
    eval.at(i, 0) = 1500 + 1500 * load;
    eval.at(i, 1) = 35 + 30 * load + (anom ? 15.0 : 0.0);
    eval.at(i, 2) = 24.0;
    label_bytes[i] = anom ? 1 : 0;
  }
  std::vector<bool> labels(label_bytes.begin(), label_bytes.end());
  // span<const bool> cannot view vector<bool>; use a plain bool buffer.
  std::unique_ptr<bool[]> buf(new bool[labels.size()]);
  for (std::size_t i = 0; i < labels.size(); ++i) buf[i] = labels[i];
  const auto m = ml::evaluate_detector(det, eval, std::span<const bool>(buf.get(), labels.size()));
  EXPECT_EQ(m.true_positives + m.false_negatives, 10u);
  EXPECT_GT(m.recall(), 0.8);
  EXPECT_GT(m.f1(), 0.7);
}

TEST(AnomalyDetectorTest, Guards) {
  ml::AnomalyDetector det;
  EXPECT_THROW(det.score(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(det.fit(ml::FeatureMatrix(2, 2), 1), std::invalid_argument);
}

// ---- forecasting --------------------------------------------------------

std::vector<double> diurnal_series(std::size_t n, common::Rng& rng) {
  std::vector<double> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    s.push_back(20.0 + 6.0 * std::sin(2 * 3.14159 * x / 48.0) + rng.normal(0, 0.25));
  }
  return s;
}

TEST(ForecasterTest, BeatsPersistenceOnPeriodicSeries) {
  common::Rng rng(12);
  const auto series = diurnal_series(600, rng);
  ml::ForecasterConfig cfg;
  cfg.horizon = 8;  // far enough that persistence is visibly wrong
  const auto ev = ml::evaluate_forecaster(cfg, series, 0.7, 21);
  ASSERT_GT(ev.samples, 50u);
  EXPECT_LT(ev.model_mape, ev.persistence_mape);
  EXPECT_GT(ev.improvement(), 0.2);  // >20% better than the baseline
}

TEST(ForecasterTest, PredictTracksSeries) {
  common::Rng rng(13);
  const auto series = diurnal_series(400, rng);
  ml::PowerForecaster model;
  model.fit(series, 5);
  // One-step-ish sanity: prediction near the truth at a known point.
  const std::size_t t = 350;
  const auto window = std::span<const double>(series).subspan(t - 24, 24);
  const double pred = model.predict(window);
  const double truth = series[t + 4 - 1];
  EXPECT_NEAR(pred, truth, 2.5);
}

TEST(ForecasterTest, Guards) {
  ml::PowerForecaster model;
  EXPECT_THROW(model.predict(std::vector<double>(30, 1.0)), std::logic_error);
  EXPECT_THROW(model.fit(std::vector<double>(5, 1.0), 1), std::invalid_argument);
}

// ---- reliability analytics ------------------------------------------------

TEST(ReliabilityTest, EndToEndWithInjectedFailures) {
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 200.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  cfg.failures.system_mtbf_hours = 0.5;  // force several failures
  telemetry::FacilitySimulator sim(telemetry::compass_spec(0.005), broker, cfg);
  sim.run_until(2 * kHour);

  stream::GroupMember logs(broker, "rel", sim.topics().syslog);
  const auto table = telemetry::log_events_to_table(logs.poll(2000000));
  apps::ReliabilityReport report(table);

  const auto by_subsystem = report.failures_by_subsystem();
  ASSERT_GT(by_subsystem.num_rows(), 0u);
  // gpu-xid must dominate criticals (that's where failures land).
  EXPECT_EQ(by_subsystem.column("subsystem").str_at(0), "gpu-xid");

  const std::size_t incidents = report.incident_count(0, 2 * kHour);
  const std::size_t injected = sim.failures().failures().size();
  EXPECT_GE(incidents, injected / 2);  // event stream recovers most incidents
  EXPECT_GT(report.system_mtbf_hours(0, 2 * kHour), 0.0);
  EXPECT_GT(report.top_failing_nodes(5).num_rows(), 0u);
}

// ---- twin resource allocator ------------------------------------------------

TEST(AllocatorSimTest, ProducesPhysicalPowerTrace) {
  twin::AllocatorSimConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 400.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  twin::ResourceAllocatorSim sim(telemetry::compass_spec(0.01), cfg);
  const auto result = sim.simulate(2 * kHour);
  ASSERT_GT(result.power_trace.size(), 100u);
  const double idle_floor = 128 * twin::ResourceAllocatorSim::node_power_w(
                                      telemetry::compass_spec(0.01), 0.0, 0.0);
  for (const auto& s : result.power_trace) {
    EXPECT_GT(s.it_power_w, 0.3 * idle_floor);
    EXPECT_LT(s.it_power_w, 4.0 * idle_floor);
  }
  EXPECT_GT(result.jobs_completed, 0u);
  EXPECT_GT(result.total_energy_mwh, 0.0);
  EXPECT_GT(result.mean_node_utilization, 0.0);
}

TEST(AllocatorSimTest, PowerCapLowersEnergy) {
  twin::AllocatorSimConfig uncapped;
  uncapped.scheduler.arrival_rate_per_hour = 400.0;
  uncapped.scheduler.mean_duration_hours = 0.3;
  twin::AllocatorSimConfig capped = uncapped;
  capped.power_cap_util = 0.7;

  twin::ResourceAllocatorSim a(telemetry::compass_spec(0.01), uncapped);
  twin::ResourceAllocatorSim b(telemetry::compass_spec(0.01), capped);
  const auto full = a.simulate(2 * kHour);
  const auto cap = b.simulate(2 * kHour);
  EXPECT_LT(cap.total_energy_mwh, full.total_energy_mwh);
  // Same scheduler seed: identical job placement, only power differs.
  EXPECT_EQ(cap.jobs_completed, full.jobs_completed);
}

TEST(AllocatorSimTest, DeterministicPerSeed) {
  twin::AllocatorSimConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 300.0;
  twin::ResourceAllocatorSim a(telemetry::compass_spec(0.005), cfg);
  twin::ResourceAllocatorSim b(telemetry::compass_spec(0.005), cfg);
  const auto ra = a.simulate(kHour);
  const auto rb = b.simulate(kHour);
  ASSERT_EQ(ra.power_trace.size(), rb.power_trace.size());
  for (std::size_t i = 0; i < ra.power_trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.power_trace[i].it_power_w, rb.power_trace[i].it_power_w);
  }
}

TEST(AllocatorSimTest, TraceDrivesCoolingModel) {
  // The full ExaDigiT loop: workload -> power -> losses + cooling.
  twin::AllocatorSimConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 400.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  twin::ResourceAllocatorSim sim(telemetry::compass_spec(0.01), cfg);
  const auto workload = sim.simulate(kHour);
  twin::ReplayConfig rc;
  rc.losses.rated_power_w = 1e3 * 128;
  const auto replay = twin::ReplayHarness(rc).replay(workload.power_trace);
  EXPECT_GT(replay.timeline.num_rows(), 0u);
  EXPECT_GT(replay.mean_pue, 1.0);
}

}  // namespace
}  // namespace oda
