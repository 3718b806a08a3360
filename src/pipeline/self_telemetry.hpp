// The self-telemetry loop's back half (DESIGN.md §9): a factory that binds
// the observe-layer Scraper to real broker producers on the reserved
// `_oda.*` topics, and the decoder and sink with which
// engine::make_history_query folds `_oda.metrics` back into an
// observe::HistoryStore through the same micro-batch transaction
// machinery facility data uses — so the framework's own telemetry
// exercises broker, pipeline and storage end to end and inherits their
// exactly-once / golden-run guarantees.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/faults.hpp"
#include "observe/history.hpp"
#include "observe/scraper.hpp"
#include "pipeline/source_sink.hpp"
#include "storage/object_store.hpp"
#include "stream/broker.hpp"

namespace oda::pipeline {

/// Schema of decoded `_oda.metrics` batches: time:int64, series:string,
/// kind:string, value:float64, delta:float64, count:int64.
sql::Schema metric_sample_schema();

/// RecordDecoder for `_oda.metrics`. Malformed payloads are skipped and
/// counted on the default registry ("selfobs.decode.errors") — poison
/// telemetry must never wedge the loop that reports on poison.
sql::Table metric_records_to_table(std::span<const stream::RecordView> records);

/// Transactional sink appending (time, series, value) rows into a
/// HistoryStore. Writes stage and land at commit_batch(), so a
/// rolled-back batch leaves no points behind (replays stay exactly-once).
class HistorySink final : public Sink {
 public:
  explicit HistorySink(observe::HistoryStore& store) : store_(store) {}

  void write(const sql::Table& t) override;
  void begin_batch() override { staged_.clear(); }
  void commit_batch() override {
    for (const auto& row : staged_) store_.append(row.series, row.t, row.value);
    staged_.clear();
  }
  void rollback_batch() override { staged_.clear(); }

 private:
  struct Row {
    std::string series;
    common::TimePoint t;
    double value;
  };

  observe::HistoryStore& store_;
  std::vector<Row> staged_;
};

/// Build a Scraper producing onto `_oda.metrics` / `_oda.alerts` (topics
/// created here if absent, `_oda.metrics` with 2 partitions).
/// Produces retry under `retry` at the "selfobs.produce" chaos seam —
/// each attempt re-flushes the whole staged batch, and
/// Topic::produce_staged rejects a faulted flush whole and leaves the
/// builder intact, so retries never duplicate records.
std::unique_ptr<observe::Scraper> make_scraper(observe::MetricsRegistry& registry,
                                               stream::Broker& broker,
                                               observe::ScraperConfig config = {},
                                               chaos::RetryPolicy retry = {});

/// Persist gold rollups: one columnar object per resolution under
/// `dataset`/<resolution>, DataClass::kGold, covering every retained
/// series. Returns objects written. Object keys are deterministic, so
/// repeated persists overwrite in place (put is idempotent by key).
std::size_t persist_history_gold(const observe::HistoryStore& store, storage::ObjectStore& ocean,
                                 const std::string& dataset, common::TimePoint now);

}  // namespace oda::pipeline
