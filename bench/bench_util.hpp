// Shared helpers for the per-figure bench/report binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "alloc_tracker.hpp"
#include "core/framework.hpp"
#include "telemetry/spec.hpp"

#ifndef ODA_GIT_COMMIT
#define ODA_GIT_COMMIT "unknown"
#endif

namespace oda::bench {

inline void header(const char* experiment, const char* paper_ref, const char* claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper: %s\n", paper_ref);
  std::printf("  expected shape: %s\n", claim);
  std::printf("==============================================================================\n");
}

inline void section(const char* title) { std::printf("\n--- %s ---\n", title); }

/// Min, median and max of a ratio measured over repeated trials. A gate
/// reads the median, so neither one slow trial nor one lucky trial
/// decides it; JsonReport::spread lands all three in the JSON.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;

  explicit Spread(std::vector<double> trials) {
    std::sort(trials.begin(), trials.end());
    min = trials.front();
    median = trials[trials.size() / 2];
    max = trials.back();
  }
};

/// A small standard facility: Compass at 1%% scale with busy scheduling,
/// canonical pipelines registered. Callers advance() as needed.
struct StandardRig {
  core::OdaFramework fw;
  telemetry::FacilitySimulator* sys = nullptr;

  explicit StandardRig(double scale = 0.01, double jobs_per_hour = 240.0,
                       double mean_job_hours = 0.25) {
    telemetry::SimulatorConfig cfg;
    cfg.scheduler.arrival_rate_per_hour = jobs_per_hour;
    cfg.scheduler.mean_duration_hours = mean_job_hours;
    sys = &fw.add_system(telemetry::compass_spec(scale), cfg);
    fw.register_query(fw.make_bronze_to_silver_power("Compass"));
    fw.register_query(fw.make_silver_to_lake("Compass", "node.power_w", "node_power_w"));
  }
};

/// Machine-readable bench results: collect named metrics during the run,
/// then write() lands `BENCH_<name>.json` in the working directory so CI
/// can diff runs across commits without scraping stdout:
///
///   {"bench":"fig4a_ingest_rate","commit":"1a2b3c4","metrics":[
///     {"name":"broker.produce.rate","value":1234000,"unit":"records/s"},
///     ...]}
///
/// The commit id is baked in at configure time (ODA_GIT_COMMIT).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : name_(std::move(bench_name)) {}

  void metric(std::string metric_name, double value, std::string unit) {
    metrics_.push_back({std::move(metric_name), value, std::move(unit)});
  }

  /// A spread's median as `metric_name`, its extremes as `<metric_name>.min`
  /// and `<metric_name>.max`.
  void spread(const std::string& metric_name, const Spread& s, const std::string& unit) {
    metric(metric_name, s.median, unit);
    metric(metric_name + ".min", s.min, unit);
    metric(metric_name + ".max", s.max, unit);
  }

  /// Allocation accounting for a measured region: allocations and heap
  /// bytes per record (alloc_tracker deltas around the timed section).
  void alloc_metrics(const std::string& prefix, const AllocSnapshot& delta, double records) {
    if (records <= 0) return;
    metric(prefix + ".allocs_per_record", static_cast<double>(delta.allocs) / records,
           "allocs/record");
    metric(prefix + ".heap_bytes_per_record", static_cast<double>(delta.bytes) / records,
           "bytes/record");
  }

  /// Write BENCH_<name>.json; returns false (and warns) on I/O failure.
  /// Every report carries the process peak RSS at write time, and each
  /// write also appends a one-line record to BENCH_trajectory.jsonl — the
  /// cross-commit series the perf smoke runs grow build over build.
  bool write() const {
    const std::uint64_t rss = peak_rss_bytes();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"commit\":\"%s\",\"peak_rss_bytes\":%llu,\"metrics\":[",
                 name_.c_str(), ODA_GIT_COMMIT, static_cast<unsigned long long>(rss));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::fprintf(f, "%s\n  {\"name\":\"%s\",\"value\":%.10g,\"unit\":\"%s\"}",
                   i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);

    if (std::FILE* traj = std::fopen("BENCH_trajectory.jsonl", "a")) {
      std::fprintf(traj, "{\"bench\":\"%s\",\"commit\":\"%s\",\"peak_rss_bytes\":%llu,"
                   "\"metrics\":{", name_.c_str(), ODA_GIT_COMMIT,
                   static_cast<unsigned long long>(rss));
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::fprintf(traj, "%s\"%s\":%.10g", i == 0 ? "" : ",", metrics_[i].name.c_str(),
                     metrics_[i].value);
      }
      std::fprintf(traj, "}}\n");
      std::fclose(traj);
    }

    std::printf("\nwrote %s (%zu metrics, commit %s, peak RSS %llu MiB)\n", path.c_str(),
                metrics_.size(), ODA_GIT_COMMIT,
                static_cast<unsigned long long>(rss >> 20));
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Metric> metrics_;
};

}  // namespace oda::bench
