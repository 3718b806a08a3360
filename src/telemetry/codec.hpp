// Wire codec between the facility simulator and the broker, and the
// Bronze decode on the pipeline side: packets → long-format rows
// ("each row encapsulates an individual sensor observation", Sec V-A).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sql/table.hpp"
#include "stream/record.hpp"
#include "stream/staging.hpp"
#include "stream/view.hpp"
#include "telemetry/sensors.hpp"

namespace oda::telemetry {

/// Serialize a packet straight into a staging buffer (key = "n<node id>"
/// for stable partitioning; payload = compact binary). No owned record or
/// intermediate buffer is materialized.
void encode_packet_into(const TelemetryPacket& pkt, stream::BatchBuilder& staged);
TelemetryPacket decode_packet(std::string_view payload);

/// Schema of the Bronze long-format table:
/// (time:int64, node_id:int64, sensor:string, value:float64).
sql::Schema bronze_schema();

/// Builds a Bronze long table column by column, one row per reading.
/// Each distinct sensor code's label is resolved once per builder. This is
/// the one Bronze builder: packets_to_bronze and
/// FacilitySimulator::sample_bronze both go through it.
class BronzeBuilder {
 public:
  explicit BronzeBuilder(std::size_t expected_rows = 0);

  /// Append a packet's readings.
  void add(const TelemetryPacket& pkt);
  /// Decode an encode_packet_into payload straight into the columns.
  void add_payload(std::string_view payload);
  /// The table built so far; the builder is empty afterwards.
  sql::Table finish();

 private:
  void add_reading(std::int64_t time, std::int64_t node, std::uint16_t sensor, double value);

  sql::Column time_{sql::DataType::kInt64};
  sql::Column node_{sql::DataType::kInt64};
  sql::Column sensor_{sql::DataType::kString};
  sql::Column value_{sql::DataType::kFloat64};
  std::unordered_map<std::uint16_t, std::string> labels_;
};

/// Decode a batch of broker record views into one Bronze long table
/// (reads payload bytes in place; nothing is copied but the cells).
sql::Table packets_to_bronze(std::span<const stream::RecordView> records);

// --- scheduler events -----------------------------------------------------

/// Serialize a scheduler event referencing the job metadata (key =
/// "j<job id>").
void encode_job_event_into(const JobScheduler::Event& ev, const Job& job,
                           stream::BatchBuilder& staged);

/// Schema: (time, event, job_id, project, user, archetype, num_nodes, uses_gpu).
sql::Schema job_event_schema();
sql::Table job_events_to_table(std::span<const stream::RecordView> records);

// --- syslog events ----------------------------------------------------------

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2, kCritical = 3 };
const char* severity_name(Severity s);

struct LogEvent {
  common::TimePoint timestamp = 0;
  std::uint32_t node_id = 0;
  Severity severity = Severity::kInfo;
  std::string subsystem;  ///< e.g. "lustre", "slingshot", "gpu-xid", "kernel"
  std::string message;
};

/// Serialize a log event (key = "n<node id>").
void encode_log_event_into(const LogEvent& ev, stream::BatchBuilder& staged);
LogEvent decode_log_event(std::string_view payload);
sql::Schema log_event_schema();
sql::Table log_events_to_table(std::span<const stream::RecordView> records);

}  // namespace oda::telemetry
