// Interconnect telemetry ("Interconnect" and "Compute: interconnect
// client" rows of Fig 3): per-node NIC counters driven by each job's
// communication intensity, plus fabric switch-level aggregates with
// congestion and link-error modelling.
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

/// Communication intensity per archetype in bytes/s per node.
struct CommProfile {
  double inject_rate = 0.0;       ///< NIC transmit bytes/s at full utilization
  double message_rate = 0.0;      ///< messages/s (drives small-message overhead)
  bool allreduce_heavy = false;   ///< synchronized collectives (bursty fabric load)
};
CommProfile comm_profile_for(JobArchetype a);

struct NicSample {
  common::TimePoint time = 0;
  std::uint32_t node_id = 0;
  double tx_bytes_s = 0.0;
  double rx_bytes_s = 0.0;
  double messages_s = 0.0;
  std::uint32_t link_errors = 0;  ///< CRC/replay errors this interval
};

struct FabricConfig {
  std::size_t switches = 8;           ///< leaf groups; nodes hash to groups
  double link_bandwidth_bytes_s = 25e9;  ///< per node injection limit
  double switch_bandwidth_bytes_s = 800e9;
  double base_error_rate_per_gb = 0.002;  ///< link errors per GB transferred
};

struct SwitchSample {
  common::TimePoint time = 0;
  std::uint32_t switch_id = 0;
  double throughput_bytes_s = 0.0;
  double utilization = 0.0;
  double congestion_stall_pct = 0.0;  ///< rises super-linearly with load
};

class InterconnectModel {
 public:
  InterconnectModel(FabricConfig config, common::Rng rng);

  /// Sample NIC counters for every node with a running job, and the
  /// per-switch aggregates, for interval [t, t+dt).
  void sample(common::TimePoint t, common::Duration dt, const JobScheduler& sched,
              std::vector<NicSample>& nics_out, std::vector<SwitchSample>& switches_out);

  const FabricConfig& config() const { return config_; }

 private:
  FabricConfig config_;
  common::Rng rng_;
};

// --- wire codecs ---------------------------------------------------------

/// Serialize one NIC sample into a staging buffer (key = "n<node id>").
void encode_nic_sample_into(const NicSample& s, stream::BatchBuilder& staged);
NicSample decode_nic_sample(std::string_view payload);
/// Schema: (time, node_id, tx_bytes_s, rx_bytes_s, messages_s, link_errors).
sql::Schema nic_schema();
sql::Table nic_samples_to_table(std::span<const stream::RecordView> records);

/// Serialize one switch sample into a staging buffer (key = "sw<id>").
void encode_switch_sample_into(const SwitchSample& s, stream::BatchBuilder& staged);
SwitchSample decode_switch_sample(std::string_view payload);
/// Schema: (time, switch_id, throughput_bytes_s, utilization, congestion_stall_pct).
sql::Schema switch_schema();
sql::Table switch_samples_to_table(std::span<const stream::RecordView> records);

}  // namespace oda::telemetry
