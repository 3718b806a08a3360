#include "telemetry/io_telemetry.hpp"

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

IoProfile io_profile_for(JobArchetype a) {
  switch (a) {
    case JobArchetype::kConstant:  // steady production: modest output stream
      return {5e6, 20e6, 0.5, 1.0};
    case JobArchetype::kRamp:  // HPL-like: reads inputs, writes little
      return {30e6, 2e6, 0.2, 1.0};
    case JobArchetype::kPeriodic:  // tightly coupled: small per-iteration I/O
      return {2e6, 8e6, 0.3, 1.0};
    case JobArchetype::kPhased:  // checkpoint-heavy: big periodic write bursts
      return {10e6, 15e6, 1.0, 20.0};
    case JobArchetype::kSpiky:  // analytics: read-dominated scans
      return {120e6, 10e6, 4.0, 1.0};
    case JobArchetype::kDecay:  // solver: front-loaded reads, final result dump
      return {40e6, 5e6, 0.8, 4.0};
  }
  return {};
}

IoTelemetryModel::IoTelemetryModel(LustreConfig config, Rng rng) : config_(config), rng_(rng) {}

void IoTelemetryModel::sample(TimePoint t, Duration dt, const JobScheduler& sched,
                              std::vector<IoCounters>& jobs_out, std::vector<OstSample>& osts_out) {
  const double dt_s = common::to_seconds(dt);
  std::vector<double> ost_load(config_.num_osts,
                               config_.background_load * config_.ost_bandwidth_bytes_s);

  for (const auto& job : sched.jobs()) {
    if (job.start_time == 0 || job.end_time <= 0 || !job.running_at(t)) continue;
    const IoProfile profile = io_profile_for(job.archetype);
    const double nodes = static_cast<double>(job.num_nodes);
    Rng jitter = rng_.split(static_cast<std::uint64_t>(job.job_id) ^ static_cast<std::uint64_t>(t));

    // Checkpoint phases: phased/decay jobs burst writes during their
    // low-compute windows (I/O and compute alternate).
    bool checkpointing = false;
    if (profile.checkpoint_multiplier > 1.0) {
      const double phase = std::fmod(job.phase_at(t) * 6.0, 1.0);
      checkpointing = phase >= 0.8;  // matches the kPhased utilization dip
    }

    IoCounters c;
    c.job_id = job.job_id;
    c.interval_start = t;
    c.interval = dt;
    const double noise = std::max(0.2, 1.0 + 0.15 * jitter.normal());
    c.bytes_read = profile.read_rate * nodes * dt_s * noise;
    c.bytes_written = profile.write_rate * nodes * dt_s * noise *
                      (checkpointing ? profile.checkpoint_multiplier : 1.0);
    c.opens = static_cast<std::uint32_t>(profile.open_rate * nodes * dt_s / 60.0 + jitter.uniform());
    c.metadata_ops = c.opens * 3 + static_cast<std::uint32_t>(nodes * dt_s / 30.0);
    c.checkpoint_phase = checkpointing ? 1 : 0;

    // Stripe the job's traffic across a job-deterministic OST subset
    // (stripe count grows with job size, as real Lustre layouts do).
    const std::size_t stripe_count =
        std::clamp<std::size_t>(job.num_nodes / 2 + 1, 1, config_.num_osts);
    const double per_ost = (c.bytes_read + c.bytes_written) / dt_s / static_cast<double>(stripe_count);
    const auto base = static_cast<std::size_t>(common::fnv1a(std::to_string(job.job_id)));
    for (std::size_t s = 0; s < stripe_count; ++s) {
      ost_load[(base + s) % config_.num_osts] += per_ost;
    }
    jobs_out.push_back(c);
  }

  osts_out.reserve(osts_out.size() + config_.num_osts);
  for (std::uint32_t o = 0; o < config_.num_osts; ++o) {
    OstSample s;
    s.time = t;
    s.ost = o;
    s.bytes_s = ost_load[o];
    s.utilization = std::min(1.0, ost_load[o] / config_.ost_bandwidth_bytes_s);
    // M/M/1-flavoured queueing latency: explodes as utilization -> 1.
    const double rho = std::min(0.99, s.utilization);
    s.latency_ms = 0.5 + 4.0 * rho / (1.0 - rho);
    osts_out.push_back(s);
  }
}

void encode_io_counters_into(const IoCounters& c, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(c.interval_start);
  w.raw("j", 1);
  w.text_i64(c.job_id);
  staged.begin_payload();
  w.i64(c.interval_start);
  w.i64(c.interval);
  w.i64(c.job_id);
  w.f64(c.bytes_read);
  w.f64(c.bytes_written);
  w.u32(c.opens);
  w.u32(c.metadata_ops);
  w.u8(c.checkpoint_phase);
  staged.end_record();
}

IoCounters decode_io_counters(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  IoCounters c;
  c.interval_start = br.i64();
  c.interval = br.i64();
  c.job_id = br.i64();
  c.bytes_read = br.f64();
  c.bytes_written = br.f64();
  c.opens = br.u32();
  c.metadata_ops = br.u32();
  c.checkpoint_phase = br.u8();
  return c;
}

Schema io_counters_schema() {
  return Schema{{"time", DataType::kInt64},          {"job_id", DataType::kInt64},
                {"bytes_read", DataType::kFloat64},  {"bytes_written", DataType::kFloat64},
                {"opens", DataType::kInt64},         {"metadata_ops", DataType::kInt64},
                {"checkpointing", DataType::kBool}};
}

Table io_counters_to_table(std::span<const stream::RecordView> records) {
  Table t(io_counters_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    const IoCounters c = decode_io_counters(v.payload);
    t.append_row({Value(c.interval_start), Value(c.job_id), Value(c.bytes_read),
                  Value(c.bytes_written), Value(static_cast<std::int64_t>(c.opens)),
                  Value(static_cast<std::int64_t>(c.metadata_ops)),
                  Value(c.checkpoint_phase != 0)});
  }
  return t;
}

void encode_ost_sample_into(const OstSample& s, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(s.time);
  w.raw("ost", 3);
  w.text_u64(s.ost);
  staged.begin_payload();
  w.i64(s.time);
  w.u32(s.ost);
  w.f64(s.bytes_s);
  w.f64(s.utilization);
  w.f64(s.latency_ms);
  staged.end_record();
}

OstSample decode_ost_sample(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  OstSample s;
  s.time = br.i64();
  s.ost = br.u32();
  s.bytes_s = br.f64();
  s.utilization = br.f64();
  s.latency_ms = br.f64();
  return s;
}

Schema ost_schema() {
  return Schema{{"time", DataType::kInt64},
                {"ost", DataType::kInt64},
                {"bytes_s", DataType::kFloat64},
                {"utilization", DataType::kFloat64},
                {"latency_ms", DataType::kFloat64}};
}

Table ost_samples_to_table(std::span<const stream::RecordView> records) {
  Table t(ost_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    const OstSample s = decode_ost_sample(v.payload);
    t.append_row({Value(s.time), Value(static_cast<std::int64_t>(s.ost)), Value(s.bytes_s),
                  Value(s.utilization), Value(s.latency_ms)});
  }
  return t;
}

}  // namespace oda::telemetry
