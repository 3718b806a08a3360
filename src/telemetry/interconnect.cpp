#include "telemetry/interconnect.hpp"

#include <algorithm>
#include <cmath>

#include "common/bytes.hpp"

namespace oda::telemetry {

using common::ByteReader;
using common::ByteWriter;
using common::Duration;
using common::Rng;
using common::TimePoint;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

CommProfile comm_profile_for(JobArchetype a) {
  switch (a) {
    case JobArchetype::kConstant:  // dense LA: steady halo exchange
      return {8e9, 2e5, false};
    case JobArchetype::kRamp:  // HPL: broadcast/panel traffic, bursty
      return {12e9, 5e4, true};
    case JobArchetype::kPeriodic:  // tightly coupled: collective storms
      return {15e9, 8e5, true};
    case JobArchetype::kPhased:  // compute/IO phases, light comms
      return {3e9, 1e5, false};
    case JobArchetype::kSpiky:  // analytics: shuffle-like bursts
      return {6e9, 4e5, false};
    case JobArchetype::kDecay:  // solver: comms scale with residual work
      return {7e9, 3e5, true};
  }
  return {};
}

InterconnectModel::InterconnectModel(FabricConfig config, Rng rng) : config_(config), rng_(rng) {}

void InterconnectModel::sample(TimePoint t, Duration dt, const JobScheduler& sched,
                               std::vector<NicSample>& nics_out,
                               std::vector<SwitchSample>& switches_out) {
  std::vector<double> switch_load(config_.switches, 0.0);
  const double dt_s = common::to_seconds(dt);

  for (const auto& job : sched.jobs()) {
    if (job.start_time == 0 || job.end_time <= 0 || !job.running_at(t)) continue;
    const CommProfile profile = comm_profile_for(job.archetype);
    Rng jitter = rng_.split(static_cast<std::uint64_t>(job.job_id) ^ static_cast<std::uint64_t>(t));
    Rng shape_rng = jitter.split(1);
    const double util = job.base_util * archetype_utilization(job.archetype, job.phase_at(t), shape_rng);

    // Single-node jobs barely touch the fabric.
    const double fabric_factor = job.num_nodes > 1 ? 1.0 : 0.05;
    // Collective-heavy codes inject in synchronized bursts.
    const double burst = profile.allreduce_heavy && jitter.bernoulli(0.3) ? 1.8 : 1.0;

    for (std::uint32_t node : job.nodes) {
      NicSample s;
      s.time = t;
      s.node_id = node;
      const double rate = std::min(config_.link_bandwidth_bytes_s,
                                   profile.inject_rate * util * fabric_factor * burst *
                                       std::max(0.2, 1.0 + 0.1 * jitter.normal()));
      s.tx_bytes_s = rate;
      s.rx_bytes_s = rate * std::max(0.3, 1.0 + 0.05 * jitter.normal());
      s.messages_s = profile.message_rate * util * fabric_factor;
      const double gb = rate * dt_s / 1e9;
      s.link_errors = static_cast<std::uint32_t>(
          gb * config_.base_error_rate_per_gb + (jitter.bernoulli(0.001) ? 5 : 0));
      switch_load[node % config_.switches] += s.tx_bytes_s;
      nics_out.push_back(s);
    }
  }

  switches_out.reserve(switches_out.size() + config_.switches);
  for (std::uint32_t sw = 0; sw < config_.switches; ++sw) {
    SwitchSample s;
    s.time = t;
    s.switch_id = sw;
    s.throughput_bytes_s = std::min(switch_load[sw], config_.switch_bandwidth_bytes_s);
    s.utilization = std::min(1.0, switch_load[sw] / config_.switch_bandwidth_bytes_s);
    // Congestion stalls rise super-linearly as the switch saturates.
    s.congestion_stall_pct = 100.0 * std::pow(s.utilization, 3.0);
    switches_out.push_back(s);
  }
}

void encode_nic_sample_into(const NicSample& s, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(s.time);
  w.raw("n", 1);
  w.text_u64(s.node_id);
  staged.begin_payload();
  w.i64(s.time);
  w.u32(s.node_id);
  w.f64(s.tx_bytes_s);
  w.f64(s.rx_bytes_s);
  w.f64(s.messages_s);
  w.u32(s.link_errors);
  staged.end_record();
}

NicSample decode_nic_sample(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  NicSample s;
  s.time = br.i64();
  s.node_id = br.u32();
  s.tx_bytes_s = br.f64();
  s.rx_bytes_s = br.f64();
  s.messages_s = br.f64();
  s.link_errors = br.u32();
  return s;
}

Schema nic_schema() {
  return Schema{{"time", DataType::kInt64},        {"node_id", DataType::kInt64},
                {"tx_bytes_s", DataType::kFloat64}, {"rx_bytes_s", DataType::kFloat64},
                {"messages_s", DataType::kFloat64}, {"link_errors", DataType::kInt64}};
}

Table nic_samples_to_table(std::span<const stream::RecordView> records) {
  Table t(nic_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    const NicSample s = decode_nic_sample(v.payload);
    t.append_row({Value(s.time), Value(static_cast<std::int64_t>(s.node_id)), Value(s.tx_bytes_s),
                  Value(s.rx_bytes_s), Value(s.messages_s),
                  Value(static_cast<std::int64_t>(s.link_errors))});
  }
  return t;
}

void encode_switch_sample_into(const SwitchSample& s, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(s.time);
  w.raw("sw", 2);
  w.text_u64(s.switch_id);
  staged.begin_payload();
  w.i64(s.time);
  w.u32(s.switch_id);
  w.f64(s.throughput_bytes_s);
  w.f64(s.utilization);
  w.f64(s.congestion_stall_pct);
  staged.end_record();
}

SwitchSample decode_switch_sample(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  SwitchSample s;
  s.time = br.i64();
  s.switch_id = br.u32();
  s.throughput_bytes_s = br.f64();
  s.utilization = br.f64();
  s.congestion_stall_pct = br.f64();
  return s;
}

Schema switch_schema() {
  return Schema{{"time", DataType::kInt64},
                {"switch_id", DataType::kInt64},
                {"throughput_bytes_s", DataType::kFloat64},
                {"utilization", DataType::kFloat64},
                {"congestion_stall_pct", DataType::kFloat64}};
}

Table switch_samples_to_table(std::span<const stream::RecordView> records) {
  Table t(switch_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    const SwitchSample s = decode_switch_sample(v.payload);
    t.append_row({Value(s.time), Value(static_cast<std::int64_t>(s.switch_id)),
                  Value(s.throughput_bytes_s), Value(s.utilization),
                  Value(s.congestion_stall_pct)});
  }
  return t;
}

}  // namespace oda::telemetry
