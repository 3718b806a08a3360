#include "telemetry/codec.hpp"

#include <utility>

#include "common/bytes.hpp"

namespace oda::telemetry {

using common::ByteReader;
using common::ByteWriter;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

void encode_packet_into(const TelemetryPacket& pkt, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(pkt.timestamp);
  w.raw("n", 1);
  w.text_u64(pkt.node_id);
  staged.begin_payload();
  w.i64(pkt.timestamp);
  w.u32(pkt.node_id);
  w.varint(pkt.readings.size());
  for (const auto& r : pkt.readings) {
    w.u16(r.sensor);
    w.f64(r.value);
  }
  staged.end_record();
}

TelemetryPacket decode_packet(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  TelemetryPacket pkt;
  pkt.timestamp = br.i64();
  pkt.node_id = br.u32();
  const std::uint64_t n = br.varint();
  pkt.readings.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SensorReading sr;
    sr.sensor = br.u16();
    sr.value = br.f64();
    pkt.readings.push_back(sr);
  }
  return pkt;
}

Schema bronze_schema() {
  return Schema{{"time", DataType::kInt64},
                {"node_id", DataType::kInt64},
                {"sensor", DataType::kString},
                {"value", DataType::kFloat64}};
}

BronzeBuilder::BronzeBuilder(std::size_t expected_rows) {
  time_.reserve(expected_rows);
  node_.reserve(expected_rows);
  sensor_.reserve(expected_rows);
  value_.reserve(expected_rows);
}

void BronzeBuilder::add_reading(std::int64_t time, std::int64_t node, std::uint16_t sensor, double value) {
  auto it = labels_.find(sensor);
  if (it == labels_.end()) it = labels_.emplace(sensor, SensorId::decode(sensor).label()).first;
  time_.append_int(time);
  node_.append_int(node);
  sensor_.append_string(it->second);
  value_.append_double(value);
}

void BronzeBuilder::add(const TelemetryPacket& pkt) {
  for (const auto& r : pkt.readings) add_reading(pkt.timestamp, pkt.node_id, r.sensor, r.value);
}

void BronzeBuilder::add_payload(std::string_view payload) {
  // Same field order as decode_packet, without the TelemetryPacket.
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  const std::int64_t time = br.i64();
  const std::int64_t node = br.u32();
  const std::uint64_t n = br.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint16_t sensor = br.u16();
    add_reading(time, node, sensor, br.f64());
  }
}

Table BronzeBuilder::finish() {
  std::vector<sql::Column> columns;
  columns.reserve(4);
  columns.push_back(std::exchange(time_, sql::Column(DataType::kInt64)));
  columns.push_back(std::exchange(node_, sql::Column(DataType::kInt64)));
  columns.push_back(std::exchange(sensor_, sql::Column(DataType::kString)));
  columns.push_back(std::exchange(value_, sql::Column(DataType::kFloat64)));
  return Table(bronze_schema(), std::move(columns));
}

Table packets_to_bronze(std::span<const stream::RecordView> records) {
  BronzeBuilder bronze(records.size() * 20);
  for (const auto& v : records) bronze.add_payload(v.payload);
  return bronze.finish();
}

void encode_job_event_into(const JobScheduler::Event& ev, const Job& job,
                           stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(ev.time);
  w.raw("j", 1);
  w.text_i64(job.job_id);
  staged.begin_payload();
  w.i64(ev.time);
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.i64(job.job_id);
  w.str(job.project);
  w.str(job.user);
  w.u8(static_cast<std::uint8_t>(job.archetype));
  w.varint(job.num_nodes);
  w.u8(job.uses_gpu ? 1 : 0);
  staged.end_record();
}

Schema job_event_schema() {
  return Schema{{"time", DataType::kInt64},    {"event", DataType::kString},
                {"job_id", DataType::kInt64},  {"project", DataType::kString},
                {"user", DataType::kString},   {"archetype", DataType::kString},
                {"num_nodes", DataType::kInt64}, {"uses_gpu", DataType::kBool}};
}

Table job_events_to_table(std::span<const stream::RecordView> records) {
  static const char* kEventNames[] = {"submit", "start", "end"};
  Table t(job_event_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    ByteReader br(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.payload.data()), v.payload.size()));
    const std::int64_t time = br.i64();
    const std::uint8_t kind = br.u8();
    const std::int64_t job_id = br.i64();
    std::string project = br.str();
    std::string user = br.str();
    const auto archetype = static_cast<JobArchetype>(br.u8());
    const std::int64_t num_nodes = static_cast<std::int64_t>(br.varint());
    const bool uses_gpu = br.u8() != 0;
    t.append_row({Value(time), Value(kEventNames[kind]), Value(job_id), Value(std::move(project)),
                  Value(std::move(user)), Value(archetype_name(archetype)), Value(num_nodes),
                  Value(uses_gpu)});
  }
  return t;
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

void encode_log_event_into(const LogEvent& ev, stream::BatchBuilder& staged) {
  ByteWriter& w = staged.begin_record(ev.timestamp);
  w.raw("n", 1);
  w.text_u64(ev.node_id);
  staged.begin_payload();
  w.i64(ev.timestamp);
  w.u32(ev.node_id);
  w.u8(static_cast<std::uint8_t>(ev.severity));
  w.str(ev.subsystem);
  w.str(ev.message);
  staged.end_record();
}

LogEvent decode_log_event(std::string_view payload) {
  ByteReader br(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(payload.data()),
                                              payload.size()));
  LogEvent ev;
  ev.timestamp = br.i64();
  ev.node_id = br.u32();
  ev.severity = static_cast<Severity>(br.u8());
  ev.subsystem = br.str();
  ev.message = br.str();
  return ev;
}

Schema log_event_schema() {
  return Schema{{"time", DataType::kInt64},
                {"node_id", DataType::kInt64},
                {"severity", DataType::kString},
                {"subsystem", DataType::kString},
                {"message", DataType::kString}};
}

Table log_events_to_table(std::span<const stream::RecordView> records) {
  Table t(log_event_schema());
  t.reserve(records.size());
  for (const auto& v : records) {
    LogEvent ev = decode_log_event(v.payload);
    t.append_row({Value(ev.timestamp), Value(static_cast<std::int64_t>(ev.node_id)),
                  Value(severity_name(ev.severity)), Value(std::move(ev.subsystem)),
                  Value(std::move(ev.message))});
  }
  return t;
}

}  // namespace oda::telemetry
