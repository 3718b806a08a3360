// OdaFramework: the end-to-end ODA platform of the paper — one object
// that owns the tiered data services (Fig 5), hosts simulated systems
// (the instrumented HPC environment of Fig 1), wires the canonical
// Bronze→Silver→Gold pipelines (Fig 4-b), and exposes the artifacts the
// well-packaged applications and ML pipelines consume.
//
// Quickstart:
//   oda::core::OdaFramework fw;
//   auto& sys = fw.add_system(oda::telemetry::compass_spec(0.01));
//   fw.register_query(fw.make_bronze_to_silver_power(sys.spec().name));
//   fw.register_query(fw.make_silver_to_lake(sys.spec().name, "node.power_w", "node_power_w"));
//   fw.advance(10 * oda::common::kMinute);   // stream + refine
//   auto latest = fw.lake().latest("node_power_w");
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/allocations.hpp"
#include "core/control_loop.hpp"
#include "engine/engine.hpp"
#include "governance/advisory.hpp"
#include "governance/dictionary.hpp"
#include "governance/maturity.hpp"
#include "ml/profile_classifier.hpp"
#include "ml/registry.hpp"
#include "observe/history.hpp"
#include "observe/scraper.hpp"
#include "storage/tiers.hpp"
#include "telemetry/simulator.hpp"

namespace oda::core {

struct FrameworkConfig {
  storage::TierRetention retention;
  common::Duration silver_window = 15 * common::kSecond;  ///< the paper's 15s interval
  common::Duration retention_sweep_period = common::kHour;
};

class OdaFramework {
 public:
  explicit OdaFramework(FrameworkConfig config = {});

  // --- tiered data services (Fig 5) ---------------------------------------
  stream::Broker& broker() { return broker_; }
  storage::TimeSeriesDb& lake() { return lake_; }
  storage::ObjectStore& ocean() { return ocean_; }
  storage::TapeArchive& glacier() { return glacier_; }
  storage::TierManager& tiers() { return tiers_; }

  // --- organizational services ---------------------------------------------
  governance::DataRuc& dataruc() { return dataruc_; }
  governance::DataDictionary& dictionary() { return dictionary_; }
  ml::FeatureStore& feature_store() { return feature_store_; }
  ml::ModelRegistry& model_registry() { return model_registry_; }
  ml::ExperimentTracker& experiments() { return experiments_; }
  AllocationManager& allocations() { return allocations_; }

  // --- systems ----------------------------------------------------------
  telemetry::FacilitySimulator& add_system(telemetry::SystemSpec spec,
                                           telemetry::SimulatorConfig config = {});
  telemetry::FacilitySimulator& system(const std::string& name);
  std::vector<std::string> system_names() const;

  // --- canonical pipelines (Fig 4-b anatomy) -----------------------------
  /// Bronze power packets → 15s window aggregate per (node, sensor) →
  /// Silver stream topic "silver.power.<sys>" + OCEAN dataset
  /// "silver/power/<sys>".
  std::unique_ptr<engine::Query> make_bronze_to_silver_power(const std::string& system_name);

  /// Silver stream → filter one sensor → LAKE metric (real-time
  /// diagnostics path). Each call uses its own consumer group, so many
  /// LAKE projections can fan out from one Silver stream.
  std::unique_ptr<engine::Query> make_silver_to_lake(const std::string& system_name,
                                                     const std::string& sensor_label,
                                                     const std::string& metric);

  /// Silver stream → worst reading across matching sensors per node →
  /// LAKE metric. E.g. prefix "gpu", suffix ".temp_c" yields the hottest
  /// GPU per node — what thermal dashboards and anomaly detectors watch.
  std::unique_ptr<engine::Query> make_silver_to_lake_max(const std::string& system_name,
                                                         const std::string& sensor_prefix,
                                                         const std::string& sensor_suffix,
                                                         const std::string& metric);

  /// Raw Bronze → OCEAN archive dataset "bronze/power/<sys>" (the frozen
  /// Bronze path of Sec VI-B; objects later migrate to GLACIER).
  std::unique_ptr<engine::Query> make_bronze_archiver(const std::string& system_name);

  /// OST server telemetry → LAKE metric "ost_latency_ms" (per-OST tags).
  /// Low-volume server streams skip the Silver stage and land directly.
  std::unique_ptr<engine::Query> make_ost_to_lake(const std::string& system_name);

  /// Fabric switch telemetry → LAKE metric "switch_stall_pct".
  std::unique_ptr<engine::Query> make_fabric_to_lake(const std::string& system_name);

  /// Hand a query to the framework's engine (Engine::adopt). Every
  /// canonical pipeline (and the `_oda.history` query) is an
  /// engine::Query with a team of one; advance() drains them through one
  /// Engine::run_until_caught_up() on the caller's thread, visiting them
  /// in registration order, and they record to the engine's flight
  /// recorder.
  engine::Query& register_query(std::unique_ptr<engine::Query> q);
  const std::vector<std::unique_ptr<engine::Query>>& queries() const { return engine_.queries(); }
  /// The engine that runs every registered query; its recorder is the
  /// run's flight timeline (spans included).
  engine::Engine& engine() { return engine_; }

  // --- self-telemetry loop (DESIGN.md §9) --------------------------------
  /// Turn on the loop: a Scraper snapshotting the process registry onto
  /// `_oda.metrics` at config.cadence (polled each advance step), plus a
  /// registered `_oda.history` query folding the samples into history().
  /// Idempotent; the config of the first call wins.
  void enable_self_telemetry(observe::ScraperConfig config = {});
  bool self_telemetry_enabled() const { return scraper_ != nullptr; }
  /// Scrape now and drain the history query — the final state flush
  /// callers run after their last advance/tick (also invoked once per
  /// advance step implicitly via poll + the query loop).
  void flush_self_telemetry();
  /// Persist gold rollups to OCEAN under "_oda/gold/metrics"; returns
  /// objects written (0 when the loop is off or history is empty).
  std::size_t persist_self_telemetry_gold();
  observe::Scraper* scraper() { return scraper_.get(); }
  observe::HistoryStore* history() { return history_.get(); }

  /// Advance facility time: step all systems, drain all queries, and
  /// periodically run tier retention.
  void advance(common::Duration dt, common::Duration step = 15 * common::kSecond);

  common::TimePoint now() const { return now_; }

  // --- Gold extraction -------------------------------------------------
  /// Per-job whole-job power profiles assembled from the LAKE's Silver
  /// node_power series joined with the scheduler log — the input to the
  /// Fig 10 classifier. Jobs shorter than `min_samples` buckets are
  /// skipped.
  std::vector<ml::JobProfile> extract_job_profiles(const std::string& system_name,
                                                   std::size_t min_samples = 8);

  const FrameworkConfig& config() const { return config_; }

 private:
  FrameworkConfig config_;
  stream::Broker broker_;
  storage::TimeSeriesDb lake_;
  storage::ObjectStore ocean_;
  storage::TapeArchive glacier_;
  storage::TierManager tiers_;
  governance::DataRuc dataruc_;
  governance::DataDictionary dictionary_;
  ml::FeatureStore feature_store_;
  ml::ModelRegistry model_registry_;
  ml::ExperimentTracker experiments_;
  AllocationManager allocations_;
  std::vector<std::unique_ptr<telemetry::FacilitySimulator>> systems_;
  std::unique_ptr<observe::Scraper> scraper_;
  std::unique_ptr<observe::HistoryStore> history_;
  engine::Query* history_query_ = nullptr;  ///< owned by engine_
  common::TimePoint now_ = 0;
  common::TimePoint last_retention_ = 0;
  // Declared last on purpose: the engine's queries read the broker and
  // write the stores and the history store above, so it must be
  // destroyed before them.
  engine::Engine engine_;
};

}  // namespace oda::core
