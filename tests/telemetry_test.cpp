// Tests for the facility simulator: specs, scheduler invariants, sensor
// physics, wire codecs and event generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/simulator.hpp"
#include "wire_digest.hpp"

namespace oda::telemetry {
namespace {

using common::kHour;
using common::kMinute;
using common::kSecond;

/// The records staged in `staged`, as borrowed views.
std::vector<stream::EncodedRecord> staged_records(const stream::BatchBuilder& staged) {
  std::vector<stream::EncodedRecord> out;
  staged.snapshot(out);
  return out;
}

/// The staged records as the views a fetch would hand packets_to_bronze,
/// numbered from offset 0. They borrow the builder's bytes, so `staged`
/// must outlive them.
std::vector<stream::RecordView> record_views(const stream::BatchBuilder& staged) {
  std::vector<stream::RecordView> out;
  for (const stream::EncodedRecord& r : staged_records(staged)) {
    out.push_back({static_cast<std::int64_t>(out.size()), r.timestamp, r.trace_id, r.span_id,
                   r.key, r.payload});
  }
  return out;
}

TEST(SpecTest, FullScaleSystems) {
  const auto m = mountain_spec();
  EXPECT_EQ(m.total_nodes(), 4608u);
  const auto c = compass_spec();
  EXPECT_EQ(c.total_nodes(), 9472u);
  EXPECT_GT(c.sensors_per_node(), 15u);
  EXPECT_GT(c.total_sensors(), 100000u);
}

TEST(SpecTest, ScaleShrinksButNeverZero) {
  EXPECT_GE(mountain_spec(0.0001).total_nodes(), 18u);  // >= 1 cabinet
  EXPECT_LT(mountain_spec(0.01).total_nodes(), mountain_spec(0.5).total_nodes());
}

TEST(SensorIdTest, EncodeDecodeRoundTrip) {
  for (auto kind : {ComponentKind::kCpu, ComponentKind::kGpu, ComponentKind::kNode}) {
    for (std::uint8_t idx : {0, 3, 7}) {
      for (auto sk : {SensorKind::kPowerW, SensorKind::kTempC}) {
        const SensorId id{kind, idx, sk};
        const SensorId back = SensorId::decode(id.encode());
        EXPECT_EQ(back.component, kind);
        EXPECT_EQ(back.index, idx);
        EXPECT_EQ(back.kind, sk);
      }
    }
  }
  EXPECT_EQ((SensorId{ComponentKind::kGpu, 3, SensorKind::kPowerW}).label(), "gpu3.power_w");
  EXPECT_EQ((SensorId{ComponentKind::kNode, 0, SensorKind::kTempC}).label(), "node.temp_c");
}

TEST(ArchetypeTest, UtilizationBounded) {
  common::Rng rng(1);
  for (std::size_t a = 0; a < kNumArchetypes; ++a) {
    for (double x = 0.0; x <= 1.0; x += 0.01) {
      const double u = archetype_utilization(static_cast<JobArchetype>(a), x, rng);
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
}

TEST(ArchetypeTest, ShapesAreDistinctive) {
  common::Rng rng(1);
  // Ramp starts low, ends high.
  double ramp_start = 0, ramp_end = 0, decay_start = 0, decay_end = 0;
  for (int i = 0; i < 50; ++i) {
    ramp_start += archetype_utilization(JobArchetype::kRamp, 0.01, rng);
    ramp_end += archetype_utilization(JobArchetype::kRamp, 0.9, rng);
    decay_start += archetype_utilization(JobArchetype::kDecay, 0.02, rng);
    decay_end += archetype_utilization(JobArchetype::kDecay, 0.95, rng);
  }
  EXPECT_LT(ramp_start, ramp_end * 0.6);
  EXPECT_GT(decay_start, decay_end * 1.5);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerConfig cfg() {
    SchedulerConfig c;
    c.arrival_rate_per_hour = 600.0;
    c.mean_duration_hours = 0.1;
    return c;
  }
};

TEST_F(SchedulerTest, NoNodeDoubleAllocated) {
  JobScheduler sched(64, cfg(), common::Rng(3));
  for (int step = 1; step <= 240; ++step) {
    sched.advance_to(step * 30 * kSecond);
    std::set<std::uint32_t> used;
    for (const auto& j : sched.jobs()) {
      if (j.start_time == 0 || j.released || !j.running_at(step * 30 * kSecond)) continue;
      for (std::uint32_t n : j.nodes) {
        EXPECT_TRUE(used.insert(n).second) << "node " << n << " double-allocated";
        EXPECT_LT(n, 64u);
      }
    }
  }
}

TEST_F(SchedulerTest, JobsStartAfterSubmitAndEndAfterStart) {
  JobScheduler sched(64, cfg(), common::Rng(4));
  sched.advance_to(2 * kHour);
  std::size_t started = 0;
  for (const auto& j : sched.jobs()) {
    if (j.start_time == 0) continue;
    ++started;
    EXPECT_GE(j.start_time, j.submit_time);
    EXPECT_GT(j.end_time, j.start_time);
    EXPECT_EQ(j.nodes.size(), j.num_nodes);
  }
  EXPECT_GT(started, 10u);
}

TEST_F(SchedulerTest, EventsAreOrderedAndConsistent) {
  JobScheduler sched(32, cfg(), common::Rng(5));
  std::vector<JobScheduler::Event> all;
  for (int i = 1; i <= 60; ++i) {
    auto evs = sched.advance_to(i * kMinute);
    all.insert(all.end(), evs.begin(), evs.end());
  }
  std::map<std::int64_t, int> state;  // job -> last event kind
  for (const auto& ev : all) {
    const int k = static_cast<int>(ev.kind);
    auto it = state.find(ev.job_id);
    if (it == state.end()) {
      EXPECT_EQ(ev.kind, JobScheduler::EventKind::kSubmit);
    } else {
      EXPECT_GT(k, it->second) << "event order violated for job " << ev.job_id;
    }
    state[ev.job_id] = k;
  }
}

TEST_F(SchedulerTest, DeterministicForSameSeed) {
  JobScheduler a(64, cfg(), common::Rng(7));
  JobScheduler b(64, cfg(), common::Rng(7));
  a.advance_to(kHour);
  b.advance_to(kHour);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].submit_time, b.jobs()[i].submit_time);
    EXPECT_EQ(a.jobs()[i].num_nodes, b.jobs()[i].num_nodes);
    EXPECT_EQ(a.jobs()[i].archetype, b.jobs()[i].archetype);
  }
}

TEST_F(SchedulerTest, JobOnNodeAgreesWithAllocation) {
  JobScheduler sched(64, cfg(), common::Rng(8));
  sched.advance_to(kHour);
  const common::TimePoint t = kHour;
  for (const auto& j : sched.jobs()) {
    if (j.start_time == 0 || j.released || !j.running_at(t)) continue;
    for (std::uint32_t n : j.nodes) {
      const Job* on = sched.job_on_node(n, t);
      ASSERT_NE(on, nullptr);
      EXPECT_EQ(on->job_id, j.job_id);
    }
  }
  EXPECT_EQ(sched.job_on_node(9999, t), nullptr);
}

TEST_F(SchedulerTest, AllocationLogsMatchJobs) {
  JobScheduler sched(64, cfg(), common::Rng(9));
  sched.advance_to(kHour);
  const auto log = sched.allocation_log();
  EXPECT_EQ(log.num_rows(), sched.jobs().size());
  const auto node_log = sched.node_allocation_log();
  std::size_t expected_rows = 0;
  for (const auto& j : sched.jobs()) {
    if (j.start_time > 0) expected_rows += j.nodes.size();
  }
  EXPECT_EQ(node_log.num_rows(), expected_rows);
}

TEST(SensorModelTest, PacketsCoverAllNodes) {
  const auto spec = mountain_spec(0.004);  // 18 nodes
  NodeSensorModel model(spec, common::Rng(1));
  JobScheduler sched(spec.total_nodes(), {}, common::Rng(2));
  std::vector<TelemetryPacket> packets;
  model.sample_all(kSecond, kSecond, sched, packets);
  EXPECT_EQ(packets.size(), spec.total_nodes());
  for (const auto& p : packets) {
    EXPECT_GE(p.readings.size(), spec.sensors_per_node() - 4);  // minus dropped
    EXPECT_LE(p.readings.size(), spec.sensors_per_node());
  }
}

TEST(SensorModelTest, BusyNodesDrawMorePower) {
  const auto spec = mountain_spec(0.004);
  SchedulerConfig scfg;
  scfg.arrival_rate_per_hour = 2000.0;
  scfg.mean_duration_hours = 1.0;
  NodeSensorModel busy_model(spec, common::Rng(1));
  JobScheduler busy_sched(spec.total_nodes(), scfg, common::Rng(2));
  busy_sched.advance_to(10 * kMinute);

  NodeSensorModel idle_model(spec, common::Rng(1));
  JobScheduler idle_sched(spec.total_nodes(), SchedulerConfig{0.0, 1.0, 0.0, 1, 1.0, 1, 1},
                          common::Rng(2));
  idle_sched.advance_to(10 * kMinute);

  std::vector<TelemetryPacket> p;
  busy_model.sample_all(10 * kMinute, kSecond, busy_sched, p);
  const double busy_w = busy_model.total_it_power_w();
  p.clear();
  idle_model.sample_all(10 * kMinute, kSecond, idle_sched, p);
  const double idle_w = idle_model.total_it_power_w();
  EXPECT_GT(busy_w, idle_w * 1.3);
}

TEST(SensorModelTest, TemperaturesLagPower) {
  const auto spec = compass_spec(0.002);
  SchedulerConfig scfg;
  scfg.arrival_rate_per_hour = 5000.0;
  scfg.mean_duration_hours = 2.0;
  NodeSensorModel model(spec, common::Rng(1));
  JobScheduler sched(spec.total_nodes(), scfg, common::Rng(2));

  std::vector<TelemetryPacket> packets;
  auto mean_gpu_temp = [&](common::TimePoint t) {
    packets.clear();
    sched.advance_to(t);
    model.sample_all(t, kSecond, sched, packets);
    double sum = 0;
    std::size_t n = 0;
    for (const auto& p : packets) {
      for (const auto& r : p.readings) {
        const SensorId id = SensorId::decode(r.sensor);
        if (id.component == ComponentKind::kGpu && id.kind == SensorKind::kTempC) {
          sum += r.value;
          ++n;
        }
      }
    }
    return sum / static_cast<double>(n);
  };
  const double t0 = mean_gpu_temp(kSecond);
  // Warm up under load: temperature rises over minutes, not instantly.
  double t_mid = 0.0;
  for (int i = 2; i <= 60; ++i) t_mid = mean_gpu_temp(i * kSecond);
  double t_late = 0.0;
  for (int i = 61; i <= 600; i += 5) t_late = mean_gpu_temp(i * kSecond);
  EXPECT_GT(t_mid, t0);
  EXPECT_GT(t_late, t_mid - 1.0);  // keeps rising (or saturates)
}

TEST(CodecTest, PacketRoundTrip) {
  TelemetryPacket pkt;
  pkt.timestamp = 12345 * kSecond;
  pkt.node_id = 77;
  pkt.readings = {{SensorId{ComponentKind::kGpu, 2, SensorKind::kPowerW}.encode(), 281.5},
                  {SensorId{ComponentKind::kNode, 0, SensorKind::kTempC}.encode(), 24.25}};
  stream::BatchBuilder staged;
  encode_packet_into(pkt, staged);
  const auto recs = staged_records(staged);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "n77");
  EXPECT_EQ(recs[0].timestamp, pkt.timestamp);
  const auto back = decode_packet(recs[0].payload);
  EXPECT_EQ(back.timestamp, pkt.timestamp);
  EXPECT_EQ(back.node_id, 77u);
  ASSERT_EQ(back.readings.size(), 2u);
  EXPECT_EQ(back.readings[0].value, 281.5);
}

TEST(CodecTest, PacketsToBronzeLongFormat) {
  TelemetryPacket pkt;
  pkt.timestamp = kSecond;
  pkt.node_id = 3;
  pkt.readings = {{SensorId{ComponentKind::kCpu, 0, SensorKind::kPowerW}.encode(), 150.0}};
  stream::BatchBuilder staged;
  encode_packet_into(pkt, staged);
  const auto bronze = packets_to_bronze(record_views(staged));
  ASSERT_EQ(bronze.num_rows(), 1u);
  EXPECT_EQ(bronze.column("sensor").str_at(0), "cpu0.power_w");
  EXPECT_EQ(bronze.column("node_id").int_at(0), 3);
  EXPECT_DOUBLE_EQ(bronze.column("value").double_at(0), 150.0);
}

TEST(CodecTest, BronzeBuilderSameTableFromPacketsAndPayloads) {
  // The two entry points of the one Bronze builder: packets as the
  // simulator holds them (sample_bronze) and their wire payloads
  // (packets_to_bronze) give the same table, cell for cell.
  common::Rng rng(17);
  std::vector<TelemetryPacket> packets(40);
  for (auto& pkt : packets) {
    pkt.timestamp = rng.uniform_int(0, 1000) * kSecond;
    pkt.node_id = static_cast<std::uint32_t>(rng.uniform_index(1u << 31));
    const std::size_t n = rng.uniform_index(6);  // empty packets included
    for (std::size_t i = 0; i < n; ++i) {
      const SensorId id{static_cast<ComponentKind>(rng.uniform_index(5)),
                        static_cast<std::uint8_t>(rng.uniform_index(8)),
                        rng.bernoulli(0.5) ? SensorKind::kPowerW : SensorKind::kTempC};
      pkt.readings.push_back({id.encode(), rng.normal(100.0, 50.0)});
    }
  }
  BronzeBuilder builder;
  stream::BatchBuilder staged;
  for (const auto& pkt : packets) {
    builder.add(pkt);
    encode_packet_into(pkt, staged);
  }
  const sql::Table from_packets = builder.finish();
  const sql::Table from_payloads = packets_to_bronze(record_views(staged));
  EXPECT_EQ(from_packets.schema(), bronze_schema());
  ASSERT_GT(from_packets.num_rows(), 0u);
  EXPECT_EQ(sql::to_csv(from_payloads), sql::to_csv(from_packets));
  for (std::size_t r = 0; r < from_packets.num_rows(); ++r) {
    EXPECT_EQ(from_payloads.column("value").double_at(r), from_packets.column("value").double_at(r));
  }
  EXPECT_EQ(builder.finish().num_rows(), 0u);  // finish() leaves the builder empty
}

TEST(CodecTest, LogEventRoundTrip) {
  LogEvent ev;
  ev.timestamp = 99 * kSecond;
  ev.node_id = 5;
  ev.severity = Severity::kCritical;
  ev.subsystem = "gpu-xid";
  ev.message = "xid 63";
  stream::BatchBuilder staged;
  encode_log_event_into(ev, staged);
  const auto recs = staged_records(staged);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].key, "n5");
  const LogEvent back = decode_log_event(recs[0].payload);
  EXPECT_EQ(back.timestamp, ev.timestamp);
  EXPECT_EQ(back.severity, Severity::kCritical);
  EXPECT_EQ(back.subsystem, "gpu-xid");
  EXPECT_EQ(back.message, "xid 63");
}

/// Random doubles spanning signs, magnitudes and exponents.
double random_value(common::Rng& rng) {
  const double mant = static_cast<double>(rng.uniform_int(0, 1 << 30));
  const double v = std::ldexp(mant, static_cast<int>(rng.uniform_int(-40, 40)));
  return rng.bernoulli(0.5) ? -v : v;
}

std::uint64_t digest_of(const stream::BatchBuilder& staged) {
  oda::testing::WireDigest d;
  for (const stream::EncodedRecord& r : staged_records(staged)) d.add(r.timestamp, r.key, r.payload);
  return d.value();
}

// Pins the wire format: seeded packets, scheduler events and log events,
// encoded once, must hash to the digest of every (timestamp, key, payload)
// recorded from the Record-building encoders these replaced.
TEST(CodecTest, EncodersMatchRecordedDigests) {
  common::Rng rng(0xc0dec);
  const char* subsystems[] = {"lustre", "slingshot", "gpu-xid", "kernel", ""};
  const char* projects[] = {"AST051", "CHM027", "", "FUS112"};

  stream::BatchBuilder staged;
  for (int i = 0; i < 200; ++i) {
    TelemetryPacket pkt;
    pkt.timestamp = static_cast<common::TimePoint>(rng.uniform_int(0, 1 << 30));
    pkt.node_id = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
    const std::size_t readings = rng.uniform_index(6);  // includes empty packets
    for (std::size_t s = 0; s < readings; ++s) {
      pkt.readings.push_back(
          {static_cast<std::uint16_t>(rng.uniform_index(1 << 16)), random_value(rng)});
    }
    encode_packet_into(pkt, staged);

    Job job;
    job.job_id = rng.uniform_int(0, 1 << 24);
    job.project = projects[rng.uniform_index(4)];
    job.user = "u" + std::to_string(rng.uniform_index(1000));
    job.archetype = static_cast<JobArchetype>(rng.uniform_index(kNumArchetypes));
    job.num_nodes = rng.uniform_index(4608);
    job.uses_gpu = rng.bernoulli(0.5);
    JobScheduler::Event ev;
    ev.kind = static_cast<JobScheduler::EventKind>(rng.uniform_index(3));
    ev.time = static_cast<common::TimePoint>(rng.uniform_int(0, 1 << 30));
    ev.job_id = job.job_id;
    encode_job_event_into(ev, job, staged);

    LogEvent log;
    log.timestamp = static_cast<common::TimePoint>(rng.uniform_int(0, 1 << 30));
    log.node_id = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
    log.severity = static_cast<Severity>(rng.uniform_index(4));
    log.subsystem = subsystems[rng.uniform_index(5)];
    log.message = "m" + std::to_string(rng.next());
    encode_log_event_into(log, staged);
  }
  ASSERT_EQ(staged.pending(), 600u);
  EXPECT_EQ(digest_of(staged), 0x239e4bfe4bbde437ull);
}

// The same pin for the per-job I/O, OST, NIC and switch encoders.
TEST(CodecTest, IoAndFabricEncodersMatchRecordedDigests) {
  common::Rng rng(0x10fab);
  const auto random_time = [&rng]() {
    return static_cast<common::TimePoint>(rng.uniform_int(0, 1 << 30)) * kSecond;
  };
  stream::BatchBuilder staged;
  for (int i = 0; i < 200; ++i) {
    IoCounters c;
    c.job_id = rng.uniform_int(-1000, 1 << 24);  // negative ids exercise the key's sign
    c.interval_start = random_time();
    c.interval = rng.uniform_int(1, 600) * kSecond;
    c.bytes_read = random_value(rng);
    c.bytes_written = random_value(rng);
    c.opens = static_cast<std::uint32_t>(rng.next());
    c.metadata_ops = static_cast<std::uint32_t>(rng.next());
    c.checkpoint_phase = static_cast<std::uint8_t>(rng.uniform_index(2));
    encode_io_counters_into(c, staged);

    OstSample o;
    o.time = random_time();
    o.ost = static_cast<std::uint32_t>(rng.next());
    o.bytes_s = random_value(rng);
    o.utilization = random_value(rng);
    o.latency_ms = random_value(rng);
    encode_ost_sample_into(o, staged);

    NicSample nic;
    nic.time = random_time();
    nic.node_id = static_cast<std::uint32_t>(rng.next());
    nic.tx_bytes_s = random_value(rng);
    nic.rx_bytes_s = random_value(rng);
    nic.messages_s = random_value(rng);
    nic.link_errors = static_cast<std::uint32_t>(rng.next());
    encode_nic_sample_into(nic, staged);

    SwitchSample sw;
    sw.time = random_time();
    sw.switch_id = static_cast<std::uint32_t>(rng.next());
    sw.throughput_bytes_s = random_value(rng);
    sw.utilization = random_value(rng);
    sw.congestion_stall_pct = random_value(rng);
    encode_switch_sample_into(sw, staged);
  }
  ASSERT_EQ(staged.pending(), 800u);
  EXPECT_EQ(digest_of(staged), 0x3a6c36fb4d957bb6ull);
}

TEST(EventGeneratorTest, EventsSortedAndInRange) {
  EventGenerator gen(100, {}, common::Rng(6));
  const auto events = gen.generate(kMinute, kHour);
  EXPECT_GT(events.size(), 0u);
  common::TimePoint prev = 0;
  for (const auto& ev : events) {
    EXPECT_GE(ev.timestamp, prev);
    EXPECT_GT(ev.timestamp, kMinute);
    EXPECT_LT(ev.node_id, 100u);
    prev = ev.timestamp;
  }
}

TEST(EventGeneratorTest, BurstsAreNodeCorrelated) {
  EventGenConfig cfg;
  cfg.info_rate_per_node_hour = 0.0;
  cfg.warning_rate_per_node_hour = 0.0;
  cfg.error_rate_per_node_hour = 0.0;
  cfg.burst_rate_per_hour = 50.0;  // force bursts
  EventGenerator gen(100, cfg, common::Rng(6));
  const auto events = gen.generate(0, kHour);
  ASSERT_GT(events.size(), 20u);
  // All events come from bursts; count distinct nodes — far fewer than events.
  std::set<std::uint32_t> nodes;
  for (const auto& ev : events) nodes.insert(ev.node_id);
  EXPECT_LT(nodes.size() * 5, events.size());
}

TEST(SimulatorTest, IngestStatsAccumulate) {
  stream::Broker broker;
  SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 600.0;  // ensure running jobs emit I/O
  cfg.scheduler.mean_duration_hours = 0.2;
  FacilitySimulator sim(mountain_spec(0.004), broker, cfg);
  sim.run_until(2 * kMinute);
  const auto& st = sim.ingest_stats();
  EXPECT_GT(st.power_records, 0u);
  EXPECT_GT(st.power_bytes, 0u);
  EXPECT_GT(st.facility_records, 0u);
  EXPECT_GT(st.io_records, 0u);
  EXPECT_GT(st.storage_records, 0u);
  EXPECT_GT(st.nic_records, 0u);
  EXPECT_GT(st.fabric_records, 0u);
  EXPECT_EQ(st.total_bytes(), st.power_bytes + st.scheduler_bytes + st.syslog_bytes +
                                  st.facility_bytes + st.io_bytes + st.storage_bytes +
                                  st.nic_bytes + st.fabric_bytes);
  EXPECT_EQ(sim.now(), 2 * kMinute);
}

// What the simulator commits to the broker — every topic partition's
// (offset, timestamp, key, payload) after two minutes at a fixed seed —
// hashes to the digest recorded when each sample was produced as its own
// Record. Staging per topic and flushing once per step must not move a
// record, re-order a partition or change a byte.
TEST(SimulatorTest, TopicContentsMatchRecordedDigest) {
  stream::Broker broker;
  SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 600.0;  // every topic carries records
  cfg.scheduler.mean_duration_hours = 0.2;
  cfg.seed = 2024;
  FacilitySimulator sim(mountain_spec(0.004), broker, cfg);
  sim.run_until(2 * kMinute);

  oda::testing::WireDigest d;
  std::uint64_t records = 0;
  for (const std::string& name : broker.topic_names()) {
    stream::Topic& topic = broker.topic(name);
    std::size_t in_topic = 0;
    for (std::size_t p = 0; p < topic.num_partitions(); ++p) {
      d.mark(name, p);
      stream::FetchView view;
      topic.partition(p).fetch_view(0, SIZE_MAX, view);
      for (const stream::RecordView& v : view) d.add(v.offset, v.timestamp, v.key, v.payload);
      in_topic += view.size();
    }
    EXPECT_GT(in_topic, 0u) << name;
    records += in_topic;
  }
  EXPECT_EQ(broker.topic_names().size(), 8u);
  EXPECT_EQ(records, 2619u);
  EXPECT_EQ(d.value(), 0x95d43ba06573f1b4ull) << "digest 0x" << std::hex << d.value();
  const ChannelStats& cs = sim.channel().stats();
  EXPECT_EQ(cs.delivered_records, records);
  EXPECT_EQ(cs.dropped_records, 0u);
  EXPECT_EQ(cs.delivered_bytes, sim.ingest_stats().total_bytes());
}

TEST(SimulatorTest, SampleBronzeMatchesSchema) {
  stream::Broker broker;
  FacilitySimulator sim(mountain_spec(0.004), broker, {});
  const auto bronze = sim.sample_bronze(0, 10 * kSecond);
  EXPECT_EQ(bronze.schema(), bronze_schema());
  // 18 nodes x ~20 sensors x 10 ticks, minus dropout.
  EXPECT_GT(bronze.num_rows(), 3000u);
  EXPECT_LT(bronze.num_rows(), 4000u);
}

}  // namespace
}  // namespace oda::telemetry
