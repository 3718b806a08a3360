#include "pipeline/source_sink.hpp"

#include <algorithm>
#include <cstdio>

#include "observe/metrics.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"

namespace oda::pipeline {

using sql::Table;
using sql::Value;

void LakeSink::write(const Table& t) {
  if (t.num_rows() == 0) return;
  // Validate column references up front so a bad schema still fails in
  // write() (the fallible phase), not at commit.
  (void)t.col_index(time_column_);
  (void)t.col_index(value_column_);
  for (const auto& c : tag_columns_) (void)t.col_index(c);
  staged_.push_back(t);
}

void LakeSink::append_rows(const Table& t) {
  const std::size_t tc = t.col_index(time_column_);
  const std::size_t vc = t.col_index(value_column_);
  std::vector<std::size_t> tag_idx;
  tag_idx.reserve(tag_columns_.size());
  for (const auto& c : tag_columns_) tag_idx.push_back(t.col_index(c));

  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (t.column(tc).is_null(r) || t.column(vc).is_null(r)) continue;
    storage::SeriesKey key;
    key.metric = metric_;
    for (std::size_t i = 0; i < tag_idx.size(); ++i) {
      const auto& col = t.column(tag_idx[i]);
      if (!col.is_null(r)) key.tags[tag_columns_[i]] = col.get(r).to_string();
    }
    lake_.append(key, t.column(tc).int_at(r), t.column(vc).double_at(r));
  }
}

OceanSink::OceanSink(storage::ObjectStore& ocean, std::string dataset, storage::DataClass data_class,
                     std::size_t rows_per_object, chaos::RetryPolicy retry)
    : ocean_(ocean),
      dataset_(std::move(dataset)),
      class_(data_class),
      rows_per_object_(rows_per_object),
      retrier_(retry, /*seed=*/0x0cea2ull) {}

void OceanSink::put_object(const Table& chunk) {
  char name[32];
  std::snprintf(name, sizeof(name), "/part%06zu", part_);
  const std::string key = dataset_ + name;
  const auto blob = storage::write_columnar(chunk);
  retrier_.run("pipeline.sink", [&] {
    chaos::fault_point("pipeline.sink");
    ocean_.put(key, blob, dataset_, class_, observe::virtual_now());
  });
  ++part_;  // only after the put landed; a failed put keeps the key stable
}

void OceanSink::write(const Table& t) {
  if (t.num_rows() == 0) return;
  if (buffer_.num_columns() == 0) buffer_ = Table(t.schema());
  buffer_.append_table(t);
  while (buffer_.num_rows() - flushed_ >= rows_per_object_) {
    put_object(buffer_.slice(flushed_, flushed_ + rows_per_object_));
    flushed_ += rows_per_object_;
  }
}

void OceanSink::flush() {
  if (buffered_rows() == 0) return;
  put_object(buffer_.slice(flushed_, buffer_.num_rows()));
  flushed_ = buffer_.num_rows();
}

void OceanSink::commit_batch() {
  if (flushed_ == 0) return;
  buffer_ = buffer_.slice(flushed_, buffer_.num_rows());
  flushed_ = 0;
}

void TopicSink::write(const Table& t) {
  if (t.num_rows() == 0) return;
  // Dedupe across deterministic replays: writes already published in an
  // earlier attempt of this batch are skipped, not re-produced.
  const std::size_t idx = writes_this_batch_++;
  if (idx < produced_high_water_) return;
  // Batch event time: max of the first int64 column named "time" or
  // "window_start" if present, else 0.
  common::TimePoint ts = 0;
  std::size_t tc = t.schema().index_of("time");
  if (tc == sql::Schema::npos) tc = t.schema().index_of("window_start");
  if (tc != sql::Schema::npos && t.num_rows() > 0) {
    std::int64_t mx = INT64_MIN;
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      if (!t.column(tc).is_null(r)) mx = std::max(mx, t.column(tc).int_at(r));
    }
    if (mx != INT64_MIN) ts = mx;
  }
  const auto blob = storage::write_columnar(t);
  // A write whose retries ran out left its record staged; drop it, the
  // batch replay re-publishes it.
  staged_.clear();
  staged_.add(ts, "", std::string_view(reinterpret_cast<const char*>(blob.data()), blob.size()));
  retrier_.run("pipeline.sink", [&] {
    chaos::fault_point("pipeline.sink");
    producer_.produce_staged(staged_);  // a faulted flush leaves the record staged
  });
  produced_high_water_ = idx + 1;
}

Table decode_columnar_records(std::span<const stream::RecordView> records) {
  std::vector<Table> parts;
  parts.reserve(records.size());
  for (const auto& v : records) {
    parts.push_back(storage::read_columnar(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.payload.data()), v.payload.size())));
  }
  if (parts.empty()) return Table{};
  return sql::concat(parts);
}

}  // namespace oda::pipeline
