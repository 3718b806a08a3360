#include "telemetry/sensors.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/failures.hpp"

namespace oda::telemetry {

using common::Duration;
using common::Rng;
using common::TimePoint;

std::string SensorId::label() const {
  std::string s = component_name(component);
  if (component != ComponentKind::kNode) s += std::to_string(index);
  s += ".";
  s += sensor_name(kind);
  return s;
}

NodeSensorModel::NodeSensorModel(const SystemSpec& spec, Rng rng) : spec_(spec), rng_(rng) {
  std::size_t instances = 0;
  for (const auto& c : spec_.components) instances += c.count;
  temps_.assign(spec_.total_nodes(), {});
  for (auto& node : temps_) {
    node.resize(instances);
    std::size_t i = 0;
    for (const auto& c : spec_.components) {
      for (std::uint8_t k = 0; k < c.count; ++k) node[i++].temp_c = c.idle_temp_c;
    }
  }
}

double NodeSensorModel::component_power(const ComponentSpec& c, double util, Rng& noise) const {
  const double p = c.idle_w + util * (c.peak_w - c.idle_w);
  return std::max(0.0, p * (1.0 + 0.01 * noise.normal()));
}

void NodeSensorModel::sample_all(TimePoint now, Duration dt, const JobScheduler& sched,
                                 std::vector<TelemetryPacket>& out, const FailureInjector* failures) {
  const double dt_s = common::to_seconds(dt);
  constexpr double kThermalTau = 60.0;  // seconds
  const double alpha = std::clamp(dt_s / kThermalTau, 0.0, 1.0);
  double total_power = 0.0;

  const std::size_t n_nodes = spec_.total_nodes();
  // A packet carries at most one power and one temperature reading per
  // component instance plus the node's two, so one reservation per packet
  // covers every push_back below.
  const std::size_t max_readings = spec_.sensors_per_node();
  out.reserve(out.size() + n_nodes);
  for (std::uint32_t node = 0; node < n_nodes; ++node) {
    const Job* job = sched.job_on_node(node, now);
    Rng jitter = rng_.split((static_cast<std::uint64_t>(node) << 20) ^ static_cast<std::uint64_t>(now));

    double cpu_util = 0.03, gpu_util = 0.01, mem_util = 0.05, nic_util = 0.02;
    if (job) {
      Rng job_jitter = jitter.split(static_cast<std::uint64_t>(job->job_id));
      const double u = job->base_util * archetype_utilization(job->archetype, job->phase_at(now), job_jitter);
      cpu_util = job->uses_gpu ? 0.35 * u + 0.1 : u;
      gpu_util = job->uses_gpu ? u : 0.0;
      mem_util = 0.5 * u + 0.1;
      nic_util = 0.3 * u;
    }

    TelemetryPacket pkt;
    pkt.timestamp = now;
    pkt.node_id = node;
    pkt.readings.reserve(max_readings);

    double node_power = spec_.node_overhead_w;
    std::size_t inst = 0;
    auto& node_temps = temps_[node];
    for (const auto& c : spec_.components) {
      double util = 0.0;
      switch (c.kind) {
        case ComponentKind::kCpu: util = cpu_util; break;
        case ComponentKind::kGpu: util = gpu_util; break;
        case ComponentKind::kMemory: util = mem_util; break;
        case ComponentKind::kNic: util = nic_util; break;
        case ComponentKind::kNode: break;
      }
      for (std::uint8_t k = 0; k < c.count; ++k, ++inst) {
        double comp_util = util;
        double fault_temp_bias = 0.0;
        if (failures && c.kind == ComponentKind::kGpu) {
          if (failures->gpu_down(node, k, now)) comp_util = 0.0;  // drained
          fault_temp_bias = failures->temp_bias(node, k, now);
        }
        const double p = component_power(c, comp_util, jitter);
        node_power += p;
        // First-order lag toward the power-dependent target temperature
        // (plus any failure-precursor drift).
        ComponentState& st = node_temps[inst];
        const double target = c.idle_temp_c + c.temp_per_watt * p + fault_temp_bias;
        st.temp_c += alpha * (target - st.temp_c);

        if (!jitter.bernoulli(spec_.sample_loss_rate)) {
          pkt.readings.push_back({SensorId{c.kind, k, SensorKind::kPowerW}.encode(), p});
        }
        if (!jitter.bernoulli(spec_.sample_loss_rate)) {
          pkt.readings.push_back(
              {SensorId{c.kind, k, SensorKind::kTempC}.encode(), st.temp_c + 0.2 * jitter.normal()});
        }
      }
    }
    // Node-level input power (measured upstream of the 54V->12V stage,
    // so includes conversion loss) and inlet temperature.
    const double input_power = node_power / 0.95;
    total_power += input_power;
    if (!jitter.bernoulli(spec_.sample_loss_rate)) {
      pkt.readings.push_back({SensorId{ComponentKind::kNode, 0, SensorKind::kPowerW}.encode(), input_power});
    }
    if (!jitter.bernoulli(spec_.sample_loss_rate)) {
      pkt.readings.push_back(
          {SensorId{ComponentKind::kNode, 0, SensorKind::kTempC}.encode(), 24.0 + 0.5 * jitter.normal()});
    }
    if (!pkt.readings.empty()) out.push_back(std::move(pkt));
  }
  last_total_power_w_ = total_power;
}

}  // namespace oda::telemetry
