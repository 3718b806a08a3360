// Exporters: render metrics snapshots and flight dumps as plain text (for
// terminals / ctest logs) or JSON (for tooling). Everything is string-in/
// string-out and deterministic given a deterministic snapshot — ordering
// comes from MetricsRegistry::snapshot()'s (name, labels) sort and the
// dump's (wall_ns, ring, seq) timeline.
#pragma once

#include <string>
#include <vector>

#include "observe/flight.hpp"
#include "observe/history.hpp"
#include "observe/metrics.hpp"
#include "observe/slo.hpp"

namespace oda::observe {

/// `name{k=v,...} kind value [count=N p50=... p99=... p999=...]` — one
/// per line.
std::string metrics_to_text(const MetricsSnapshot& snap);

/// JSON array of metric objects (name, labels, kind, value, count,
/// buckets for histograms).
std::string metrics_to_json(const MetricsSnapshot& snap);

/// Single-line digest for build logs / the tier-1 summary hook, e.g.
/// `oda-metrics: 42 series | produced=120000 consumed=119873 batches=96
///  faults=12 retries=9`. Missing series contribute 0.
std::string one_line_summary(const MetricsSnapshot& snap);

/// The dump's span forest, indented and grouped by trace: parents
/// before children, siblings in completion order, engine phases as
/// leaves under their batch span. Orphans (parent evicted from its ring
/// or still open) are promoted to roots.
std::string span_forest_to_text(const FlightDump& d);

/// Flight dump as JSON: a `{"flight":{...,"events":[...]}}` document
/// with one event object per line (fixed key order — the oda_monitor
/// `--flight` renderer parses it line-by-line). Label ids are resolved
/// to strings; wall time is exported in fractional microseconds; each
/// event carries its span, parent and trace ids.
std::string flight_to_json(const FlightDump& d);

/// Flight dump as Chrome trace-event JSON: pid 1, one `tid` row per
/// ring (named via `thread_name` metadata events), one `ph:"X"` complete
/// event per closed span and per phase pair with `ts`/`dur` in wall
/// microseconds (`dur` clamped at 0), and `ph:"i"` thread-scoped instant
/// events for faults, retries, rebalances, SLO transitions and marks.
/// Virtual start and duration, span ids and phase row counts ride in
/// `args`.
std::string flight_to_chrome_json(const FlightDump& d);

/// SLO table: `state name value/crit unit (transitions)`.
std::string slos_to_text(const SloBook& book);
std::string slos_to_json(const SloBook& book);

/// Escape a string for embedding in a JSON string literal (quotes not
/// included).
std::string json_escape(const std::string& s);

/// Unicode block-element sparkline of `values` (last `width` kept),
/// normalized min..max; flat series render mid-height. Empty for no data.
std::string sparkline(const std::vector<double>& values, std::size_t width = 32);

/// Tabular range dump of one series at one resolution: raw rows are
/// `time value`; rollup rows are `bucket min avg max last count`. Values
/// print with %.17g so byte comparison proves determinism.
std::string history_to_text(const HistoryStore& store, const std::string& series,
                            common::TimePoint t0, common::TimePoint t1,
                            Resolution res = Resolution::kRaw);

/// One line per retained series: `name latest sparkline` (the --watch
/// frame body).
std::string history_overview(const HistoryStore& store, std::size_t width = 32);

}  // namespace oda::observe
