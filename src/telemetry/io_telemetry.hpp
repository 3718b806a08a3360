// Per-job I/O instrumentation (the Darshan role, Sec IV-B) and the
// parallel-filesystem server telemetry ("Storage system" row of Fig 3).
//
// Jobs generate I/O according to their archetype — phased workloads
// checkpoint heavily, analytics workloads read-dominate — and that load
// lands on the filesystem's OSTs through striping, producing the
// server-side counters operators actually watch.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sql/table.hpp"
#include "stream/staging.hpp"
#include "stream/view.hpp"
#include "telemetry/job.hpp"

namespace oda::telemetry {

/// Darshan-style per-job I/O counters accumulated over an interval.
struct IoCounters {
  std::int64_t job_id = 0;
  common::TimePoint interval_start = 0;
  common::Duration interval = 0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  std::uint32_t opens = 0;
  std::uint32_t metadata_ops = 0;
  std::uint8_t checkpoint_phase = 0;  ///< 1 while the job is checkpointing
};

/// Per-job I/O behaviour per archetype, in bytes/s per allocated node.
struct IoProfile {
  double read_rate = 0.0;
  double write_rate = 0.0;
  double open_rate = 0.0;      ///< opens per node-minute
  double checkpoint_multiplier = 1.0;  ///< write burst factor during checkpoints
};
IoProfile io_profile_for(JobArchetype a);

struct LustreConfig {
  std::size_t num_osts = 16;
  double ost_bandwidth_bytes_s = 5e9;  ///< per OST
  double background_load = 0.05;       ///< fraction of bw consumed by purges etc.
};

/// One OST's state over an interval: load and derived latency.
struct OstSample {
  common::TimePoint time = 0;
  std::uint32_t ost = 0;
  double bytes_s = 0.0;
  double utilization = 0.0;  ///< fraction of bandwidth
  double latency_ms = 0.0;   ///< queueing-delay model
};

/// Generates per-job Darshan counters and per-OST server telemetry for
/// each sampling interval, given the jobs running on the system.
class IoTelemetryModel {
 public:
  IoTelemetryModel(LustreConfig config, common::Rng rng);

  /// Sample the interval [t, t+dt): per-running-job counters and the
  /// resulting OST load (jobs stripe across OSTs by job id).
  void sample(common::TimePoint t, common::Duration dt, const JobScheduler& sched,
              std::vector<IoCounters>& jobs_out, std::vector<OstSample>& osts_out);

  const LustreConfig& config() const { return config_; }

 private:
  LustreConfig config_;
  common::Rng rng_;
};

// --- wire codecs -------------------------------------------------------

/// Serialize one job's counters into a staging buffer (key = "j<job id>").
void encode_io_counters_into(const IoCounters& c, stream::BatchBuilder& staged);
IoCounters decode_io_counters(std::string_view payload);
/// Schema: (time, job_id, bytes_read, bytes_written, opens, metadata_ops, checkpointing).
sql::Schema io_counters_schema();
sql::Table io_counters_to_table(std::span<const stream::RecordView> records);

/// Serialize one OST sample into a staging buffer (key = "ost<index>").
void encode_ost_sample_into(const OstSample& s, stream::BatchBuilder& staged);
OstSample decode_ost_sample(std::string_view payload);
/// Schema: (time, ost, bytes_s, utilization, latency_ms).
sql::Schema ost_schema();
sql::Table ost_samples_to_table(std::span<const stream::RecordView> records);

}  // namespace oda::telemetry
