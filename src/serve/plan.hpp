// Serving-layer query planning (DESIGN.md §14): canonical cache keys and
// downsample-aware plan selection. A TsQuery whose step exactly matches a
// HistoryStore rollup resolution — and whose range lands on bucket
// boundaries — can be answered from the 1m/10m rings without touching raw
// points; everything else scans the LAKE. Serving only picks the plan:
// storage::TimeSeriesDb::query executes both kinds.
#pragma once

#include <cstdint>
#include <string>

#include "observe/history.hpp"
#include "storage/tsdb.hpp"

namespace oda::serve {

enum class PlanKind : std::uint8_t {
  kRaw = 0,       ///< scan TimeSeriesDb points
  kRollup1m = 1,  ///< serve HistoryStore 1-minute buckets
  kRollup10m = 2, ///< serve HistoryStore 10-minute buckets
};
const char* plan_kind_name(PlanKind p);

/// Canonicalized cache key: metric, sorted tag filter, range, step, agg.
/// Two TsQuerys with equal keys are the same query — the byte-identity
/// contract the result cache serves under.
std::string canonical_key(const storage::TsQuery& q);

/// The HistoryStore series name for a LAKE series (storage/tsdb.hpp).
using storage::history_series_name;

/// True when `agg` can be computed from a HistoryPoint rollup bucket
/// (min/max/sum/count/last are carried; mean derives from sum/count).
bool rollup_supports(sql::AggKind agg);

/// Pick the cheapest plan that answers `q` exactly:
///   step == 1m  and t0/t1 bucket-aligned and agg rollup-computable → kRollup1m
///   step == 10m and likewise                                      → kRollup10m
///   anything else (raw points, unaligned ranges, exotic aggs)     → kRaw
/// `t1 == INT64_MAX` counts as aligned (open-ended range); a null
/// `rollups` store forces kRaw.
PlanKind select_plan(const storage::TsQuery& q, const observe::HistoryStore* rollups);

}  // namespace oda::serve
