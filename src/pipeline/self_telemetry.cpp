#include "pipeline/self_telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "storage/columnar.hpp"

namespace oda::pipeline {

using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

sql::Schema metric_sample_schema() {
  return Schema{{"time", DataType::kInt64},   {"series", DataType::kString},
                {"kind", DataType::kString},  {"value", DataType::kFloat64},
                {"delta", DataType::kFloat64}, {"count", DataType::kInt64}};
}

sql::Table metric_records_to_table(std::span<const stream::RecordView> records) {
  static observe::Counter* decode_errors =
      observe::default_registry().counter("selfobs.decode.errors");
  Table t{metric_sample_schema()};
  for (const auto& v : records) {
    observe::MetricSample s;
    if (!observe::decode_metric_sample(v.payload, &s)) {
      decode_errors->inc();
      continue;
    }
    t.append_row({Value(v.timestamp), Value(std::move(s.series)),
                  Value(std::string(observe::metric_kind_name(s.kind))), Value(s.value),
                  Value(s.delta), Value(static_cast<std::int64_t>(s.count))});
  }
  return t;
}

void HistorySink::write(const sql::Table& t) {
  if (t.num_rows() == 0) return;
  const auto& time = t.column("time");
  const auto& series = t.column("series");
  const auto& value = t.column("value");
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    staged_.push_back({series.str_at(r), time.int_at(r), value.double_at(r)});
  }
}

std::unique_ptr<observe::Scraper> make_scraper(observe::MetricsRegistry& registry,
                                               stream::Broker& broker,
                                               observe::ScraperConfig config,
                                               chaos::RetryPolicy retry) {
  config.validate();
  broker.create_topic(stream::kMetricsTopic, stream::TopicConfig{}.with_partitions(2));
  broker.create_topic(stream::kAlertsTopic, stream::TopicConfig{}.with_partitions(1));

  // Each callback owns a cached Producer and a seeded Retrier. A produce
  // attempt that faults ("selfobs.produce" seam or produce_staged's own
  // "stream.produce" site) rejects the batch whole and leaves the staging
  // buffer intact, so the retry re-flushes the identical bytes — no
  // per-attempt batch copy, no re-encode, no duplication.
  auto bind = [&broker, retry](const char* topic,
                               std::uint64_t seed) -> observe::StagedProduceFn {
    return [producer = broker.producer(topic),
            retrier = std::make_shared<chaos::Retrier>(retry, seed)](
               stream::BatchBuilder& staged) mutable -> std::size_t {
      return retrier->run("selfobs.produce", [&] {
        // Fires before any append, so a faulted attempt leaves nothing
        // behind and the retry cannot duplicate.
        chaos::fault_point("selfobs.produce");
        return producer.produce_staged(staged);
      });
    };
  };
  return std::make_unique<observe::Scraper>(registry, bind(stream::kMetricsTopic, 0x5e1f0b5ull),
                                            bind(stream::kAlertsTopic, 0xa1e275ull), config);
}

std::size_t persist_history_gold(const observe::HistoryStore& store, storage::ObjectStore& ocean,
                                 const std::string& dataset, common::TimePoint now) {
  std::size_t objects = 0;
  for (const observe::Resolution res :
       {observe::Resolution::kRaw, observe::Resolution::kOneMinute,
        observe::Resolution::kTenMinute}) {
    Table t{Schema{{"series", DataType::kString}, {"bucket", DataType::kInt64},
                   {"min", DataType::kFloat64},   {"max", DataType::kFloat64},
                   {"avg", DataType::kFloat64},   {"last", DataType::kFloat64},
                   {"count", DataType::kInt64}}};
    for (const auto& series : store.series_names()) {
      for (const auto& p : store.query(series, INT64_MIN, INT64_MAX, res)) {
        t.append_row({Value(series), Value(p.t), Value(p.min), Value(p.max), Value(p.avg()),
                      Value(p.last), Value(static_cast<std::int64_t>(p.count))});
      }
    }
    if (t.num_rows() == 0) continue;
    const std::string key = dataset + "/" + observe::resolution_name(res);
    ocean.put(key, storage::write_columnar(t), dataset, storage::DataClass::kGold, now);
    ++objects;
  }
  return objects;
}

}  // namespace oda::pipeline
