// Data collection paths (Sec IV): the trade between in-band collection
// (rich and fast, but "too invasive to the system") and out-of-band
// collection over the management network / BMC ("delivery of sensor
// data is guaranteed outside of the system" at lower rates). The paper's
// lesson: plan the path per stream against its downstream use.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/time.hpp"
#include "stream/broker.hpp"
#include "stream/staging.hpp"
#include "telemetry/spec.hpp"

namespace oda::telemetry {

enum class CollectionPath : std::uint8_t {
  kInBand = 0,        ///< agent on the compute node (perf counters, /proc)
  kOutOfBand = 1,     ///< BMC / management network (power, temps)
  kPerJobInstr = 2,   ///< linked into the application (the Darshan path)
};
const char* collection_path_name(CollectionPath p);

/// What a collection path can deliver for a sensor class, and what it
/// costs the machine.
struct CollectionProperties {
  common::Duration min_period = common::kSecond;  ///< fastest sustainable cadence
  double loss_rate = 0.0;            ///< delivery loss under load
  double node_overhead_fraction = 0.0;  ///< compute stolen from jobs
  bool survives_node_crash = false;  ///< keeps reporting when the OS dies
  bool sees_app_context = false;     ///< can attribute to jobs/ranks directly
};

/// Properties of a path at a given per-node sensor count (overhead and
/// loss scale with how much is collected).
CollectionProperties collection_properties(CollectionPath path, std::size_t sensors_per_node);

/// Facility-level cost of a collection plan: total node-overhead
/// (node-hours/day lost to monitoring) and expected delivered samples.
struct CollectionPlanCost {
  double node_hours_lost_per_day = 0.0;
  double delivered_samples_per_day = 0.0;
  double delivered_fraction = 0.0;  ///< after loss
};
CollectionPlanCost plan_cost(const SystemSpec& spec, CollectionPath path,
                             common::Duration period);

/// Delivery accounting for a CollectionChannel. Dropped records are the
/// paper's "collection gaps": the push path gave up after its retry
/// budget, and the samples are lost — the facility keeps running.
struct ChannelStats {
  std::uint64_t delivered_records = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dropped_records = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t retries = 0;           ///< produce attempts beyond the first
  common::Duration backoff_total = 0;  ///< virtual backoff accumulated
};

/// The retrying conduit between collectors and the broker — the push
/// path of Sec IV made concrete. Collectors encode records into a
/// per-topic staging buffer (stage()) and the channel flushes each topic
/// once (flush()). A topic's flush passes the "telemetry.collect" fault
/// seam and the broker's own "stream.produce" seam as one retried
/// attempt: transient faults are retried with backoff, and exhaustion (or
/// a hard fault) drops exactly that flush's records as a counted
/// collection gap rather than an exception, so a broker outage can never
/// take the collector down with it.
class CollectionChannel {
 public:
  explicit CollectionChannel(stream::Broker& broker, chaos::RetryPolicy policy = {},
                             std::uint64_t seed = 0xc011ec70ull)
      : broker_(broker), retrier_(policy, seed) {}

  /// The staging buffer for `topic`; records encoded into it (the
  /// telemetry encode_*_into encoders) land at the next flush(). Throws
  /// std::out_of_range for a topic the broker does not have.
  stream::BatchBuilder& stage(const std::string& topic);

  /// Flush every topic's staged records, in topic-name order. Each
  /// topic's builder is empty afterwards, whether its records landed or
  /// were dropped. Returns the records delivered.
  std::size_t flush();

  void set_retry_policy(const chaos::RetryPolicy& p) { retrier_.set_policy(p); }
  const ChannelStats& stats() const { return stats_; }

 private:
  /// A topic's cached-handle producer and the builder staged for it: the
  /// name→topic lookup (broker mutex + map walk) happens once per topic
  /// per channel, and the builder's capacity is reused every flush.
  struct Lane {
    explicit Lane(stream::Producer p) : producer(p) {}
    stream::Producer producer;
    stream::BatchBuilder staged;
  };

  stream::Broker& broker_;
  chaos::Retrier retrier_;
  ChannelStats stats_;
  std::map<std::string, Lane> lanes_;
};

}  // namespace oda::telemetry
