// Configuration and metrics of one end-to-end ODA pipeline (source →
// operators → sinks) executed in micro-batches, with per-stage metrics
// (Fig 4-b). The executor is engine::Query (engine/engine.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "storage/object_store.hpp"

namespace oda::pipeline {

struct StageMetrics {
  std::string name;
  storage::DataClass output_class = storage::DataClass::kBronze;
  common::RunningStats wall_seconds;  ///< per batch
  std::uint64_t rows_in = 0;
  std::uint64_t rows_out = 0;
};

struct QueryMetrics {
  std::uint64_t batches = 0;
  std::uint64_t failures = 0;
  std::uint64_t batches_skipped = 0;  ///< poison batches dropped after max retries
  std::uint64_t rows_ingested = 0;
  common::RunningStats batch_wall_seconds;
  std::vector<StageMetrics> stages;
  std::string last_error;
};

struct QueryConfig {
  std::string name = "query";
  std::size_t max_records_per_batch = 4096;
  common::Duration allowed_lateness = 0;
  std::string time_column = "time";  ///< column carrying event time
  /// Consecutive failures on the same batch before it is skipped (the
  /// dead-letter policy — prevents a poison batch from livelocking the
  /// pipeline). 0 = never skip (retry forever).
  std::size_t max_retries = 5;

  // Fluent construction:
  //   QueryConfig{}.with_name("silver").with_batch_size(1024).
  QueryConfig& with_name(std::string n) {
    name = std::move(n);
    return *this;
  }
  QueryConfig& with_batch_size(std::size_t max_records) {
    max_records_per_batch = max_records;
    return *this;
  }
  QueryConfig& with_allowed_lateness(common::Duration lateness) {
    allowed_lateness = lateness;
    return *this;
  }
  QueryConfig& with_time_column(std::string column) {
    time_column = std::move(column);
    return *this;
  }
  QueryConfig& with_max_retries(std::size_t retries) {
    max_retries = retries;
    return *this;
  }

  /// Reject nonsense at query construction instead of failing (or silently
  /// spinning) deep in a run. Throws std::invalid_argument. Called by the
  /// engine::Query constructor.
  void validate() const;
};

}  // namespace oda::pipeline
