// The broker's wire unit. Collectors encode sensor observations and
// events straight into a staging buffer (stream/staging.hpp) as
// EncodedRecords; readers get RecordViews back (stream/view.hpp) and
// decode them into sql::Table batches. Neither side owns a record's bytes:
// the staging arena and the pinned log segments do.
#pragma once

#include <cstdint>
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

  /// Approximate on-log footprint including per-record overhead
  /// (offset + timestamp + length prefixes), mirroring a log-structured
  /// broker's storage accounting. Trace ids are observability metadata,
  /// not data, and are excluded.
  std::size_t wire_size() const { return key.size() + payload.size() + 24; }
};

}  // namespace oda::stream
