#include "telemetry/collection.hpp"

#include <algorithm>
#include <cmath>

#include "observe/metrics.hpp"

namespace oda::telemetry {

const char* collection_path_name(CollectionPath p) {
  switch (p) {
    case CollectionPath::kInBand: return "in-band agent";
    case CollectionPath::kOutOfBand: return "out-of-band (BMC)";
    case CollectionPath::kPerJobInstr: return "per-job instrumentation";
  }
  return "?";
}

CollectionProperties collection_properties(CollectionPath path, std::size_t sensors_per_node) {
  CollectionProperties p;
  const double s = static_cast<double>(sensors_per_node);
  switch (path) {
    case CollectionPath::kInBand:
      // An agent can poll fast, but every poll steals cycles and its
      // delivery shares the compute fabric with the jobs (loss under load).
      p.min_period = 100 * common::kMillisecond;
      p.node_overhead_fraction = std::min(0.05, 0.0002 * s);  // ~0.4% at 20 sensors
      p.loss_rate = 0.01;
      p.survives_node_crash = false;
      p.sees_app_context = true;
      break;
    case CollectionPath::kOutOfBand:
      // The BMC path is slower and blind to application context, but
      // costs the node nothing and keeps reporting through OS crashes.
      p.min_period = common::kSecond;
      p.node_overhead_fraction = 0.0;
      p.loss_rate = 0.002;
      p.survives_node_crash = true;
      p.sees_app_context = false;
      break;
    case CollectionPath::kPerJobInstr:
      // Library-level instrumentation: perfect attribution, zero
      // steady-state cost, but only exists while an instrumented job runs.
      p.min_period = 10 * common::kSecond;
      p.node_overhead_fraction = 0.001;
      p.loss_rate = 0.0;
      p.survives_node_crash = false;
      p.sees_app_context = true;
      break;
  }
  return p;
}

CollectionPlanCost plan_cost(const SystemSpec& spec, CollectionPath path,
                             common::Duration period) {
  const auto props = collection_properties(path, spec.sensors_per_node());
  CollectionPlanCost cost;
  const auto effective_period = std::max(period, props.min_period);
  const double samples_per_node_day =
      86400.0 / common::to_seconds(effective_period) * static_cast<double>(spec.sensors_per_node());
  const double nodes = static_cast<double>(spec.total_nodes());
  // Overhead scales with polling rate relative to a 1 Hz baseline.
  const double rate_factor = common::to_seconds(common::kSecond) /
                             common::to_seconds(effective_period);
  cost.node_hours_lost_per_day = nodes * 24.0 * props.node_overhead_fraction * rate_factor;
  cost.delivered_fraction = 1.0 - props.loss_rate;
  cost.delivered_samples_per_day = nodes * samples_per_node_day * cost.delivered_fraction;
  return cost;
}

stream::BatchBuilder& CollectionChannel::stage(const std::string& topic) {
  auto it = lanes_.find(topic);
  if (it == lanes_.end()) it = lanes_.try_emplace(topic, broker_.producer(topic)).first;
  return it->second.staged;
}

std::size_t CollectionChannel::flush() {
  static observe::Counter* delivered =
      observe::default_registry().counter("telemetry.delivered.records");
  static observe::Counter* dropped = observe::default_registry().counter("telemetry.dropped.records");
  std::size_t landed = 0;
  for (auto& [topic, lane] : lanes_) {
    if (lane.staged.empty()) continue;
    const std::size_t records = lane.staged.pending();
    const std::size_t bytes = lane.staged.wire_bytes();
    try {
      // A faulted attempt leaves the builder intact (both seams fire
      // before any append), so the retry re-flushes the same bytes.
      retrier_.run("telemetry.collect", [&] {
        chaos::fault_point("telemetry.collect");
        lane.producer.produce_staged(lane.staged);
      });
    } catch (const std::exception&) {
      // Retry budget spent or a hard fault: this flush's samples become a
      // collection gap. The collector itself never goes down over a
      // delivery failure.
      lane.staged.clear();
      stats_.dropped_records += records;
      stats_.dropped_bytes += bytes;
      dropped->inc(records);
      continue;
    }
    delivered->inc(records);
    stats_.delivered_records += records;
    stats_.delivered_bytes += bytes;
    landed += records;
  }
  stats_.retries = retrier_.stats().retries;
  stats_.backoff_total = retrier_.stats().backoff_total;
  return landed;
}

}  // namespace oda::telemetry
