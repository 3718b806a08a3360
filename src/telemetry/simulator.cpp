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

  // Every stream encodes into its topic's staging buffer; the channel
  // flushes them all once, at the end of the step.

  // Scheduler events.
  stream::BatchBuilder& scheduler = channel_.stage(topics_.scheduler);
  for (const auto& ev : scheduler_.advance_to(target)) {
    if (const Job* job = scheduler_.find_job(ev.job_id)) encode_job_event_into(ev, *job, scheduler);
  }

  // Sensor packets at every sample tick in (now_, target].
  stream::BatchBuilder& power = channel_.stage(topics_.power);
  std::vector<TelemetryPacket> packets;
  while (last_sample_ + spec_.sensor_period <= target) {
    last_sample_ += spec_.sensor_period;
    packets.clear();
    sensors_.sample_all(last_sample_, spec_.sensor_period, scheduler_, packets, &failures_);
    for (const auto& pkt : packets) encode_packet_into(pkt, power);
  }

  // Facility cooling sensors.
  while (last_facility_ + config_.facility_period <= target) {
    last_facility_ += config_.facility_period;
    emit_facility_sample(last_facility_);
  }

  // Per-job I/O counters + OST server telemetry + interconnect counters.
  stream::BatchBuilder& io = channel_.stage(topics_.io);
  stream::BatchBuilder& storage = channel_.stage(topics_.storage);
  stream::BatchBuilder& nic = channel_.stage(topics_.nic);
  stream::BatchBuilder& fabric = channel_.stage(topics_.fabric);
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
    for (const auto& c : io_counters) encode_io_counters_into(c, io);
    for (const auto& s : ost_samples) encode_ost_sample_into(s, storage);
    for (const auto& s : nic_samples) encode_nic_sample_into(s, nic);
    for (const auto& s : switch_samples) encode_switch_sample_into(s, fabric);
  }

  // Syslog events: background chatter plus failure xid storms.
  stream::BatchBuilder& syslog = channel_.stage(topics_.syslog);
  for (const auto& ev : events_.generate(now_, target)) encode_log_event_into(ev, syslog);
  for (const auto& ev : failures_.events_in(now_, target)) encode_log_event_into(ev, syslog);

  flush_staged();
  now_ = target;
}

void FacilitySimulator::flush_staged() {
  // Everything staged counts as emitted, whether or not the channel then
  // delivers it.
  const auto emitted = [this](const std::string& topic, std::uint64_t& records,
                              std::uint64_t& bytes) {
    const stream::BatchBuilder& staged = channel_.stage(topic);
    records += staged.pending();
    bytes += staged.wire_bytes();
  };
  emitted(topics_.power, stats_.power_records, stats_.power_bytes);
  emitted(topics_.scheduler, stats_.scheduler_records, stats_.scheduler_bytes);
  emitted(topics_.syslog, stats_.syslog_records, stats_.syslog_bytes);
  emitted(topics_.facility, stats_.facility_records, stats_.facility_bytes);
  emitted(topics_.io, stats_.io_records, stats_.io_bytes);
  emitted(topics_.storage, stats_.storage_records, stats_.storage_bytes);
  emitted(topics_.nic, stats_.nic_records, stats_.nic_bytes);
  emitted(topics_.fabric, stats_.fabric_records, stats_.fabric_bytes);
  channel_.flush();
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
  encode_packet_into(pkt, channel_.stage(topics_.facility));
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
