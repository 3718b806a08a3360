// The broker's wire unit. Collectors encode sensor observations and
// events straight into a staging buffer (stream/staging.hpp) as
// EncodedRecords; readers get RecordViews back and decode them into
// sql::Table batches. An owned Record exists only where a reader copies
// one out (Consumer::fetch_copy).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace oda::stream {

/// Reserved topic namespace for the framework's own telemetry (the
/// self-telemetry loop of DESIGN.md §9): `_oda.metrics` carries scraped
/// registry samples, `_oda.alerts` SLO state transitions. Facility data
/// must not use the prefix; the scraper uses it to exclude its own
/// produce/fetch accounting from scrapes (otherwise every scrape would
/// change the very series it just emitted and the loop would never
/// quiesce).
inline constexpr std::string_view kInternalTopicPrefix = "_oda.";
inline constexpr const char* kMetricsTopic = "_oda.metrics";
inline constexpr const char* kAlertsTopic = "_oda.alerts";
inline bool is_internal_topic(std::string_view name) {
  return name.starts_with(kInternalTopicPrefix);
}

struct Record {
  common::TimePoint timestamp = 0;  ///< Event time (facility timeline).
  std::string key;                  ///< Partitioning key (e.g. host name).
  std::string payload;              ///< Opaque serialized bytes.

  /// Trace continuation (observe::TraceContext flattened to raw ids so
  /// this header stays observe-free). Stamped by Topic::produce_staged
  /// from the producer's current span when tracing is on; 0 otherwise. Excluded
  /// from wire_size and from replay/determinism comparisons — it is
  /// observability metadata, not data.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  /// Approximate on-log footprint including per-record overhead
  /// (offset + timestamp + length prefixes), mirroring a log-structured
  /// broker's storage accounting.
  std::size_t wire_size() const { return key.size() + payload.size() + 24; }
};

/// A record as stored: its offset within the partition is explicit.
struct StoredRecord {
  std::int64_t offset = 0;
  Record record;
};

/// A record to append whose bytes live in caller-owned storage — the
/// write-side dual of RecordView. Producers encode straight into a
/// staging arena (BatchBuilder), and the partition copies the bytes into
/// its segment arena exactly once. The referenced bytes must stay alive
/// until the append returns.
struct EncodedRecord {
  common::TimePoint timestamp = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::string_view key;
  std::string_view payload;

  /// Same accounting as Record::wire_size().
  std::size_t wire_size() const { return key.size() + payload.size() + 24; }
};

}  // namespace oda::stream
