#include "serve/plan.hpp"

#include "sql/agg.hpp"

namespace oda::serve {

const char* plan_kind_name(PlanKind p) {
  switch (p) {
    case PlanKind::kRaw: return "raw";
    case PlanKind::kRollup1m: return "rollup1m";
    case PlanKind::kRollup10m: return "rollup10m";
  }
  return "?";
}

std::string canonical_key(const storage::TsQuery& q) {
  std::string key;
  key.reserve(64);
  key += q.metric;
  key += '|';
  for (const auto& [k, v] : q.tag_filter) {  // std::map — already sorted
    key += k;
    key += '=';
    key += v;
    key += ',';
  }
  key += '|';
  key += std::to_string(q.t0);
  key += '|';
  key += std::to_string(q.t1);
  key += '|';
  key += std::to_string(q.step);
  key += '|';
  key += sql::agg_name(q.agg);
  return key;
}

bool rollup_supports(sql::AggKind agg) {
  switch (agg) {
    case sql::AggKind::kMean:
    case sql::AggKind::kSum:
    case sql::AggKind::kMin:
    case sql::AggKind::kMax:
    case sql::AggKind::kCount:
    case sql::AggKind::kLast:
      return true;
    default:
      return false;
  }
}

PlanKind select_plan(const storage::TsQuery& q, const observe::HistoryStore* rollups) {
  if (rollups == nullptr) return PlanKind::kRaw;
  const observe::Resolution ring = observe::rollup_resolution(q.step);
  if (ring == observe::Resolution::kRaw || !rollup_supports(q.agg)) return PlanKind::kRaw;
  // Rollup buckets are epoch-aligned; an unaligned t0 would need a
  // partial first bucket only the raw points can provide.
  if (common::window_start(q.t0, q.step) != q.t0) return PlanKind::kRaw;
  if (q.t1 != INT64_MAX && common::window_start(q.t1, q.step) != q.t1) return PlanKind::kRaw;
  return ring == observe::Resolution::kOneMinute ? PlanKind::kRollup1m : PlanKind::kRollup10m;
}

}  // namespace oda::serve
