// Streaming operators. A pipeline is source → operators → sink, executed
// in micro-batches with event-time watermarks — the structured-streaming
// execution model the paper adopts for "high-volume processing of
// multiple data streams" (Sec V-B).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sql/agg.hpp"
#include "sql/table.hpp"
#include "storage/object_store.hpp"

namespace oda::pipeline {

/// A micro-batch flowing through the pipeline.
struct Batch {
  sql::Table table;
  common::TimePoint watermark = 0;  ///< max event time seen minus lateness
};

class Operator {
 public:
  virtual ~Operator() = default;
  virtual const std::string& name() const = 0;
  /// Medallion class of this operator's *output*.
  virtual storage::DataClass output_class() const = 0;
  /// Process one batch; may emit zero rows (stateful ops buffer).
  virtual Batch process(Batch in) = 0;
  /// Flush any buffered state (end of stream / drain). Runs inside a
  /// batch like process(): flushed state is released at commit_batch().
  virtual Batch flush() { return Batch{}; }

  /// Batch-transaction hooks: the query brackets every micro-batch (and
  /// finalize()'s flush) with begin_batch() ... (process or flush, sinks)
  /// ... commit_batch(), and calls rollback_batch() instead of commit on
  /// failure so a rewound source can replay the batch without
  /// double-counting. Stateless default: no-ops. Implementations must
  /// make rollback cheap (O(batch), not O(state)) — this runs on every
  /// micro-batch.
  virtual void begin_batch() {}
  virtual void commit_batch() {}
  virtual void rollback_batch() {}

  /// Serialize/restore operator state for durable checkpointing (e.g.
  /// writing to the object store between runs). Default: stateless.
  virtual std::vector<std::uint8_t> checkpoint_state() const { return {}; }
  virtual void restore_state(std::span<const std::uint8_t>) {}
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Stateless transform wrapping any Table -> Table function
/// (parse, filter, project, join-with-reference, featurize...).
class TransformOp final : public Operator {
 public:
  TransformOp(std::string name, storage::DataClass out_class,
              std::function<sql::Table(const sql::Table&)> fn)
      : name_(std::move(name)), class_(out_class), fn_(std::move(fn)) {}

  const std::string& name() const override { return name_; }
  storage::DataClass output_class() const override { return class_; }
  Batch process(Batch in) override {
    in.table = fn_(in.table);
    return in;
  }

 private:
  std::string name_;
  storage::DataClass class_;
  std::function<sql::Table(const sql::Table&)> fn_;
};

/// Stateful tumbling-window aggregation with watermark-driven emission:
/// rows buffer per window until the watermark passes window end, then the
/// window is aggregated and emitted exactly once. This is the paper's
/// "aggregated over designated time intervals (e.g., every 15 seconds)".
/// Allowed lateness is applied once, upstream: QueryConfig's
/// allowed_lateness holds the engine's watermark back.
class WindowAggOp final : public Operator {
 public:
  WindowAggOp(std::string name, std::string time_column, common::Duration window,
              std::vector<std::string> keys, std::vector<sql::AggSpec> aggs);

  const std::string& name() const override { return name_; }
  storage::DataClass output_class() const override { return storage::DataClass::kSilver; }
  Batch process(Batch in) override;
  Batch flush() override;

  void begin_batch() override;
  void commit_batch() override;
  void rollback_batch() override;

  std::size_t pending_windows() const { return pending_.size(); }
  std::uint64_t late_rows_dropped() const { return late_dropped_; }

  std::vector<std::uint8_t> checkpoint_state() const override;
  void restore_state(std::span<const std::uint8_t> data) override;

 private:
  Batch emit_ready(common::TimePoint watermark);

  std::string name_;
  std::string time_column_;
  common::Duration window_;
  std::vector<std::string> keys_;
  std::vector<sql::AggSpec> aggs_;
  std::map<common::TimePoint, sql::Table> pending_;  ///< window start -> buffered rows
  common::TimePoint max_emitted_ = INT64_MIN;
  std::uint64_t late_dropped_ = 0;

  // Batch-transaction bookkeeping: row counts at begin_batch (windows
  // absent from this map were created during the batch), the emission
  // set awaiting commit, and scalar state to restore on rollback.
  std::map<common::TimePoint, std::size_t> batch_sizes_;
  std::vector<common::TimePoint> emitted_uncommitted_;
  common::TimePoint max_emitted_snapshot_ = INT64_MIN;
  std::uint64_t late_dropped_snapshot_ = 0;
};

/// Stateful exponentially-weighted moving average per key: appends a
/// smoothed column to every row that flows through. The standard
/// dashboard smoothing stage (LVA trend lines, health-panel damping) —
/// state is O(keys), so batch rollback snapshots are cheap.
class EwmaOp final : public Operator {
 public:
  /// `alpha` in (0,1]: weight of the newest observation.
  EwmaOp(std::string name, std::vector<std::string> key_columns, std::string value_column,
         double alpha, std::string output_column = "ewma");

  const std::string& name() const override { return name_; }
  storage::DataClass output_class() const override { return storage::DataClass::kSilver; }
  Batch process(Batch in) override;

  void begin_batch() override { snapshot_ = state_; }
  void commit_batch() override { snapshot_.clear(); }
  void rollback_batch() override { state_ = std::move(snapshot_); }

  std::vector<std::uint8_t> checkpoint_state() const override;
  void restore_state(std::span<const std::uint8_t> data) override;

  std::size_t tracked_keys() const { return state_.size(); }

 private:
  std::string name_;
  std::vector<std::string> key_columns_;
  std::string value_column_;
  double alpha_;
  std::string output_column_;
  std::map<std::string, double> state_;     ///< encoded key -> current EWMA
  std::map<std::string, double> snapshot_;  ///< begin_batch copy
};

/// In-stream model inference: applies a scoring function to configured
/// feature columns of every row and appends the score (plus an optional
/// boolean alert column). This is how registry models reach "downstream
/// inference workloads" (Fig 9) — e.g. an AnomalyDetector scoring node
/// telemetry as it flows to the LAKE.
class InferenceOp final : public Operator {
 public:
  using ScoreFn = std::function<double(std::span<const double>)>;

  InferenceOp(std::string name, std::vector<std::string> feature_columns, ScoreFn score,
              std::string score_column = "score", double alert_threshold = 0.0,
              std::string alert_column = "");

  const std::string& name() const override { return name_; }
  storage::DataClass output_class() const override { return storage::DataClass::kGold; }
  Batch process(Batch in) override;

  std::uint64_t rows_scored() const { return rows_scored_; }
  std::uint64_t alerts() const { return alerts_; }

 private:
  std::string name_;
  std::vector<std::string> feature_columns_;
  ScoreFn score_;
  std::string score_column_;
  double alert_threshold_;
  std::string alert_column_;
  std::uint64_t rows_scored_ = 0;
  std::uint64_t alerts_ = 0;
};

}  // namespace oda::pipeline
