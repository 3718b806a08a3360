#include "telemetry/simulator.hpp"

#include "common/bytes.hpp"

namespace oda::telemetry {

using common::Duration;
using common::TimePoint;

TopicNames TopicNames::for_system(const std::string& system_name) {
  TopicNames t;
  t.power = "telemetry.power." + system_name;
  t.scheduler = "scheduler.events." + system_name;
  t.syslog = "syslog." + system_name;
  t.facility = "facility.cooling." + system_name;
  t.io = "io.darshan." + system_name;
  t.storage = "storage.ost." + system_name;
  t.nic = "interconnect.nic." + system_name;
  t.fabric = "interconnect.fabric." + system_name;
  return t;
}

FacilitySimulator::FacilitySimulator(SystemSpec spec, stream::Broker& broker, SimulatorConfig config)
    : spec_(std::move(spec)),
      broker_(broker),
      config_(config),
      topics_(TopicNames::for_system(spec_.name)),
      rng_(config.seed),
      scheduler_(spec_.total_nodes(), config.scheduler, rng_.split(1)),
      sensors_(spec_, rng_.split(2)),
      events_(spec_.total_nodes(), config.events, rng_.split(3)),
      io_model_(config.lustre, rng_.split(4)),
      fabric_model_(config.fabric, rng_.split(6)),
      failures_(spec_.total_nodes(), gpus_per_node(spec_), config.failures, rng_.split(5)),
      channel_(broker, chaos::RetryPolicy{}, config.seed ^ 0xc011ec70ull) {
  stream::TopicConfig tc;
  tc.num_partitions = 8;
  // Small segments keep retention granularity fine at simulation scale
  // (a segment is the unit of eviction, as in any log-structured broker).
  tc.segment_bytes = 1 << 20;
  broker_.create_topic(topics_.power, tc);
  broker_.create_topic(topics_.scheduler, {2, 1 << 20, {}});
  broker_.create_topic(topics_.syslog, {4, 1 << 20, {}});
  broker_.create_topic(topics_.facility, {1, 1 << 20, {}});
  broker_.create_topic(topics_.io, {2, 1 << 20, {}});
  broker_.create_topic(topics_.storage, {2, 1 << 20, {}});
  broker_.create_topic(topics_.nic, {4, 1 << 20, {}});
  broker_.create_topic(topics_.fabric, {1, 1 << 20, {}});
}

void FacilitySimulator::step(Duration dt) {
  const TimePoint target = now_ + dt;
  failures_.schedule_until(target);

  // Scheduler events.
  const auto sched_events = scheduler_.advance_to(target);
  for (const auto& ev : sched_events) {
    const Job* job = scheduler_.find_job(ev.job_id);
    if (!job) continue;
    auto rec = encode_job_event(ev, *job);
    stats_.scheduler_bytes += rec.wire_size();
    ++stats_.scheduler_records;
    channel_.deliver(topics_.scheduler, std::move(rec));
  }

  // Sensor packets at every sample tick in (now_, target].
  std::vector<TelemetryPacket> packets;
  while (last_sample_ + spec_.sensor_period <= target) {
    last_sample_ += spec_.sensor_period;
    packets.clear();
    sensors_.sample_all(last_sample_, spec_.sensor_period, scheduler_, packets, &failures_);
    for (const auto& pkt : packets) {
      auto rec = encode_packet(pkt);
      stats_.power_bytes += rec.wire_size();
      ++stats_.power_records;
      channel_.deliver(topics_.power, std::move(rec));
    }
  }

  // Facility cooling sensors.
  while (last_facility_ + config_.facility_period <= target) {
    last_facility_ += config_.facility_period;
    emit_facility_sample(last_facility_);
  }

  // Per-job I/O counters + OST server telemetry + interconnect counters.
  std::vector<IoCounters> io_counters;
  std::vector<OstSample> ost_samples;
  std::vector<NicSample> nic_samples;
  std::vector<SwitchSample> switch_samples;
  while (last_io_ + config_.io_period <= target) {
    last_io_ += config_.io_period;
    io_counters.clear();
    ost_samples.clear();
    nic_samples.clear();
    switch_samples.clear();
    io_model_.sample(last_io_, config_.io_period, scheduler_, io_counters, ost_samples);
    fabric_model_.sample(last_io_, config_.io_period, scheduler_, nic_samples, switch_samples);
    for (const auto& c : io_counters) {
      auto rec = encode_io_counters(c);
      stats_.io_bytes += rec.wire_size();
      ++stats_.io_records;
      channel_.deliver(topics_.io, std::move(rec));
    }
    for (const auto& s : ost_samples) {
      auto rec = encode_ost_sample(s);
      stats_.storage_bytes += rec.wire_size();
      ++stats_.storage_records;
      channel_.deliver(topics_.storage, std::move(rec));
    }
    for (const auto& s : nic_samples) {
      auto rec = encode_nic_sample(s);
      stats_.nic_bytes += rec.wire_size();
      ++stats_.nic_records;
      channel_.deliver(topics_.nic, std::move(rec));
    }
    for (const auto& s : switch_samples) {
      auto rec = encode_switch_sample(s);
      stats_.fabric_bytes += rec.wire_size();
      ++stats_.fabric_records;
      channel_.deliver(topics_.fabric, std::move(rec));
    }
  }

  // Syslog events: background chatter plus failure xid storms.
  auto log_events = events_.generate(now_, target);
  auto failure_events = failures_.events_in(now_, target);
  log_events.insert(log_events.end(), failure_events.begin(), failure_events.end());
  for (auto& ev : log_events) {
    auto rec = encode_log_event(ev);
    stats_.syslog_bytes += rec.wire_size();
    ++stats_.syslog_records;
    channel_.deliver(topics_.syslog, std::move(rec));
  }

  now_ = target;
}

void FacilitySimulator::run_until(TimePoint t) {
  while (now_ < t) step(std::min(spec_.sensor_period, t - now_));
}

void FacilitySimulator::emit_facility_sample(TimePoint t) {
  // Coarse plant response: supply temperature drifts with IT load
  // (the detailed transient model lives in oda::twin).
  const double it_mw = sensors_.total_it_power_w() / 1e6;
  const double target_supply = 21.0 + 0.35 * it_mw;
  cooling_supply_temp_c_ += 0.05 * (target_supply - cooling_supply_temp_c_);
  const double return_temp = cooling_supply_temp_c_ + 8.0 + 1.8 * it_mw;
  const double flow_lps = 400.0 + 120.0 * it_mw;

  TelemetryPacket pkt;
  pkt.timestamp = t;
  pkt.node_id = 0xffffffff;  // facility pseudo-node
  pkt.readings = {
      {SensorId{ComponentKind::kNode, 1, SensorKind::kPowerW}.encode(), sensors_.total_it_power_w()},
      {SensorId{ComponentKind::kNode, 2, SensorKind::kTempC}.encode(), cooling_supply_temp_c_},
      {SensorId{ComponentKind::kNode, 3, SensorKind::kTempC}.encode(), return_temp},
      {SensorId{ComponentKind::kNode, 4, SensorKind::kUtil}.encode(), flow_lps},
  };
  auto rec = encode_packet(pkt);
  stats_.facility_bytes += rec.wire_size();
  ++stats_.facility_records;
  channel_.deliver(topics_.facility, std::move(rec));
}

sql::Table FacilitySimulator::sample_bronze(TimePoint t0, TimePoint t1) {
  BronzeBuilder bronze;
  std::vector<TelemetryPacket> packets;
  for (TimePoint t = t0; t < t1; t += spec_.sensor_period) {
    scheduler_.advance_to(t);
    packets.clear();
    sensors_.sample_all(t, spec_.sensor_period, scheduler_, packets);
    for (const auto& pkt : packets) bronze.add(pkt);
  }
  if (t1 > now_) now_ = t1;
  return bronze.finish();
}

}  // namespace oda::telemetry
