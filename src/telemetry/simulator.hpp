// FacilitySimulator: the heavily instrumented HPC environment at the top
// of Fig 1. It owns a system spec, a job scheduler, the sensor models,
// the event generator and a facility (cooling) sensor set, and publishes
// every stream into the broker — the raw-ingest side of Fig 4-a.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "stream/broker.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/events.hpp"
#include "telemetry/failures.hpp"
#include "telemetry/interconnect.hpp"
#include "telemetry/io_telemetry.hpp"
#include "telemetry/job.hpp"
#include "telemetry/sensors.hpp"
#include "telemetry/spec.hpp"

namespace oda::telemetry {

struct TopicNames {
  std::string power;      ///< per-node power/thermal packets
  std::string scheduler;  ///< job submit/start/end events
  std::string syslog;     ///< log events
  std::string facility;   ///< cooling-plant sensors
  std::string io;         ///< per-job Darshan-style I/O counters
  std::string storage;    ///< Lustre OST server telemetry
  std::string nic;        ///< per-node interconnect client counters
  std::string fabric;     ///< switch-level fabric telemetry

  static TopicNames for_system(const std::string& system_name);
};

struct SimulatorConfig {
  SchedulerConfig scheduler;
  EventGenConfig events;
  LustreConfig lustre;
  FabricConfig fabric;
  FailureConfig failures;
  common::Duration facility_period = 5 * common::kSecond;
  common::Duration io_period = 10 * common::kSecond;
  std::uint64_t seed = 42;
};

struct IngestStats {
  std::uint64_t power_records = 0;
  std::uint64_t power_bytes = 0;
  std::uint64_t scheduler_records = 0;
  std::uint64_t scheduler_bytes = 0;
  std::uint64_t syslog_records = 0;
  std::uint64_t syslog_bytes = 0;
  std::uint64_t facility_records = 0;
  std::uint64_t facility_bytes = 0;
  std::uint64_t io_records = 0;
  std::uint64_t io_bytes = 0;
  std::uint64_t storage_records = 0;
  std::uint64_t storage_bytes = 0;
  std::uint64_t nic_records = 0;
  std::uint64_t nic_bytes = 0;
  std::uint64_t fabric_records = 0;
  std::uint64_t fabric_bytes = 0;

  std::uint64_t total_bytes() const {
    return power_bytes + scheduler_bytes + syslog_bytes + facility_bytes + io_bytes +
           storage_bytes + nic_bytes + fabric_bytes;
  }
};

class FacilitySimulator {
 public:
  FacilitySimulator(SystemSpec spec, stream::Broker& broker, SimulatorConfig config = {});

  /// Advance facility time by `dt`, emitting all due samples/events into
  /// the broker. Safe to call with any dt; sampling stays aligned to the
  /// sensor period.
  void step(common::Duration dt);

  /// Run until `t` in sensor-period increments.
  void run_until(common::TimePoint t);

  common::TimePoint now() const { return now_; }
  const SystemSpec& spec() const { return spec_; }
  const TopicNames& topics() const { return topics_; }
  JobScheduler& scheduler() { return scheduler_; }
  const JobScheduler& scheduler() const { return scheduler_; }
  const FailureInjector& failures() const { return failures_; }
  /// Records *emitted* by the models. Under fault injection some may not
  /// land in the broker — channel().stats() has the delivered/dropped split.
  const IngestStats& ingest_stats() const { return stats_; }
  const CollectionChannel& channel() const { return channel_; }
  /// Retry budget for collector->broker delivery (see oda::chaos).
  void set_collection_retry(const chaos::RetryPolicy& p) { channel_.set_retry_policy(p); }
  double total_it_power_w() const { return sensors_.total_it_power_w(); }

  /// Generate a Bronze long table directly (batch path for experiments
  /// that bypass the broker, e.g. backfills and the compression bench).
  sql::Table sample_bronze(common::TimePoint t0, common::TimePoint t1);

 private:
  void emit_facility_sample(common::TimePoint t);
  /// Count the step's staged records into IngestStats, then flush them.
  void flush_staged();

  SystemSpec spec_;
  stream::Broker& broker_;
  SimulatorConfig config_;
  TopicNames topics_;
  common::Rng rng_;
  JobScheduler scheduler_;
  NodeSensorModel sensors_;
  EventGenerator events_;
  IoTelemetryModel io_model_;
  InterconnectModel fabric_model_;
  FailureInjector failures_;
  CollectionChannel channel_;
  common::TimePoint now_ = 0;
  common::TimePoint last_sample_ = 0;
  common::TimePoint last_facility_ = 0;
  common::TimePoint last_io_ = 0;
  IngestStats stats_;
  double cooling_supply_temp_c_ = 21.0;
};

}  // namespace oda::telemetry
