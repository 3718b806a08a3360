#include "pipeline/operator.hpp"

#include <limits>

#include "common/bytes.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"

namespace oda::pipeline {

using common::Duration;
using common::TimePoint;
using sql::Table;

WindowAggOp::WindowAggOp(std::string name, std::string time_column, Duration window,
                         std::vector<std::string> keys, std::vector<sql::AggSpec> aggs)
    : name_(std::move(name)),
      time_column_(std::move(time_column)),
      window_(window),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)) {}

Batch WindowAggOp::process(Batch in) {
  if (in.table.num_rows() > 0) {
    const sql::Column& times = in.table.column(time_column_);
    // Route each row to its window: collect row indices per window (in
    // input order), then gather-append each window's rows in one call.
    std::map<TimePoint, std::vector<std::size_t>> routes;
    std::vector<std::size_t>* route = nullptr;
    TimePoint route_window = 0;
    for (std::size_t r = 0; r < in.table.num_rows(); ++r) {
      if (times.is_null(r)) continue;
      const TimePoint w = common::window_start(times.int_at(r), window_);
      if (w <= max_emitted_) {
        ++late_dropped_;  // window already finalized: exactly-once emission
        continue;
      }
      if (route == nullptr || w != route_window) {
        route = &routes[w];
        route_window = w;
      }
      route->push_back(r);
    }
    for (const auto& [w, rows] : routes) {
      auto it = pending_.find(w);
      if (it == pending_.end()) it = pending_.emplace(w, Table(in.table.schema())).first;
      it->second.append_rows(in.table, rows);
    }
  }
  return emit_ready(in.watermark);
}

Batch WindowAggOp::emit_ready(TimePoint watermark) {
  Batch out;
  out.watermark = watermark;
  std::vector<Table> ready;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const TimePoint window_end = it->first + window_;
    if (window_end <= watermark) {
      if (std::find(emitted_uncommitted_.begin(), emitted_uncommitted_.end(), it->first) !=
          emitted_uncommitted_.end()) {
        continue;  // already emitted within this (uncommitted) batch
      }
      ready.push_back(sql::window_aggregate(it->second, time_column_, window_, keys_, aggs_));
      max_emitted_ = std::max(max_emitted_, it->first);
      // Erase is deferred to commit_batch() so a failed downstream sink
      // can roll the emission back.
      emitted_uncommitted_.push_back(it->first);
    } else {
      break;  // map is ordered by window start
    }
  }
  if (!ready.empty()) out.table = sql::concat(ready);
  return out;
}

void WindowAggOp::begin_batch() {
  batch_sizes_.clear();
  for (const auto& [w, t] : pending_) batch_sizes_[w] = t.num_rows();
  emitted_uncommitted_.clear();
  max_emitted_snapshot_ = max_emitted_;
  late_dropped_snapshot_ = late_dropped_;
}

void WindowAggOp::commit_batch() {
  for (TimePoint w : emitted_uncommitted_) pending_.erase(w);
  emitted_uncommitted_.clear();
}

void WindowAggOp::rollback_batch() {
  emitted_uncommitted_.clear();
  max_emitted_ = max_emitted_snapshot_;
  late_dropped_ = late_dropped_snapshot_;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const auto sz = batch_sizes_.find(it->first);
    if (sz == batch_sizes_.end()) {
      it = pending_.erase(it);  // window created during the failed batch
    } else {
      it->second.truncate(sz->second);
      ++it;
    }
  }
}

Batch WindowAggOp::flush() {
  // Every window is ready; like process(), erasure waits for commit.
  Batch out = emit_ready(std::numeric_limits<TimePoint>::max());
  out.watermark = 0;  // a flush carries no watermark downstream
  return out;
}

std::vector<std::uint8_t> WindowAggOp::checkpoint_state() const {
  common::ByteWriter w;
  w.i64(max_emitted_);
  w.u64(late_dropped_);
  w.varint(pending_.size());
  for (const auto& [start, table] : pending_) {
    w.i64(start);
    const auto blob = storage::write_columnar(table);
    w.varint(blob.size());
    w.raw(blob.data(), blob.size());
  }
  return w.take();
}

void WindowAggOp::restore_state(std::span<const std::uint8_t> data) {
  pending_.clear();
  if (data.empty()) {
    max_emitted_ = INT64_MIN;
    late_dropped_ = 0;
    return;
  }
  common::ByteReader r(data);
  max_emitted_ = r.i64();
  late_dropped_ = r.u64();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimePoint start = r.i64();
    const std::uint64_t len = r.varint();
    pending_.emplace(start, storage::read_columnar(r.raw(len)));
  }
}

EwmaOp::EwmaOp(std::string name, std::vector<std::string> key_columns, std::string value_column,
               double alpha, std::string output_column)
    : name_(std::move(name)),
      key_columns_(std::move(key_columns)),
      value_column_(std::move(value_column)),
      alpha_(alpha),
      output_column_(std::move(output_column)) {
  if (alpha_ <= 0.0 || alpha_ > 1.0) throw std::invalid_argument("EwmaOp: alpha must be in (0,1]");
}

Batch EwmaOp::process(Batch in) {
  if (in.table.num_rows() == 0) return in;
  const sql::Table& t = in.table;
  std::vector<std::size_t> key_cols;
  key_cols.reserve(key_columns_.size());
  for (const auto& k : key_columns_) key_cols.push_back(t.col_index(k));
  const std::size_t vc = t.col_index(value_column_);

  sql::Schema schema = t.schema();
  schema.add({output_column_, sql::DataType::kFloat64});
  sql::Table out(schema);
  out.reserve(t.num_rows());
  std::vector<sql::Value> row(schema.size());
  std::string key;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) row[c] = t.column(c).get(r);
    if (t.column(vc).is_null(r)) {
      row.back() = sql::Value::null();  // nulls pass through unsmoothed
    } else {
      sql::encode_key(t, key_cols, r, key);
      const double v = t.column(vc).double_at(r);
      const auto it = state_.find(key);
      const double ewma = it == state_.end() ? v : alpha_ * v + (1.0 - alpha_) * it->second;
      state_[key] = ewma;
      row.back() = sql::Value(ewma);
    }
    out.append_row(row);
  }
  in.table = std::move(out);
  return in;
}

std::vector<std::uint8_t> EwmaOp::checkpoint_state() const {
  common::ByteWriter w;
  w.varint(state_.size());
  for (const auto& [key, v] : state_) {
    w.str(key);
    w.f64(v);
  }
  return w.take();
}

void EwmaOp::restore_state(std::span<const std::uint8_t> data) {
  state_.clear();
  if (data.empty()) return;
  common::ByteReader r(data);
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    state_[std::move(key)] = r.f64();
  }
}

InferenceOp::InferenceOp(std::string name, std::vector<std::string> feature_columns, ScoreFn score,
                         std::string score_column, double alert_threshold,
                         std::string alert_column)
    : name_(std::move(name)),
      feature_columns_(std::move(feature_columns)),
      score_(std::move(score)),
      score_column_(std::move(score_column)),
      alert_threshold_(alert_threshold),
      alert_column_(std::move(alert_column)) {}

Batch InferenceOp::process(Batch in) {
  if (in.table.num_rows() == 0) return in;
  const sql::Table& t = in.table;
  std::vector<std::size_t> cols;
  cols.reserve(feature_columns_.size());
  for (const auto& c : feature_columns_) cols.push_back(t.col_index(c));

  sql::Schema schema = t.schema();
  schema.add({score_column_, sql::DataType::kFloat64});
  const bool with_alert = !alert_column_.empty();
  if (with_alert) schema.add({alert_column_, sql::DataType::kBool});

  sql::Table out(schema);
  out.reserve(t.num_rows());
  std::vector<sql::Value> row(schema.size());
  std::vector<double> features(cols.size());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) row[c] = t.column(c).get(r);
    bool any_null = false;
    for (std::size_t f = 0; f < cols.size(); ++f) {
      if (t.column(cols[f]).is_null(r)) {
        any_null = true;
        break;
      }
      features[f] = t.column(cols[f]).double_at(r);
    }
    if (any_null) {
      row[t.num_columns()] = sql::Value::null();
      if (with_alert) row[t.num_columns() + 1] = sql::Value::null();
    } else {
      const double score = score_(features);
      ++rows_scored_;
      row[t.num_columns()] = sql::Value(score);
      if (with_alert) {
        const bool alert = score > alert_threshold_;
        if (alert) ++alerts_;
        row[t.num_columns() + 1] = sql::Value(alert);
      }
    }
    out.append_row(row);
  }
  in.table = std::move(out);
  return in;
}

}  // namespace oda::pipeline
