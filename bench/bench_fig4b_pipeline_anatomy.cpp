// Fig 4-b: the common anatomy of ODA pipelines expressed as SQL clauses:
//   FROM (parse Bronze) -> GROUP BY time window -> PIVOT wide ->
//   JOIN job context -> GROUP BY slice/dice (Gold)
// Builds the full-anatomy pipeline and reports per-stage cost and row
// compression through the medallion stages.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "engine/engine.hpp"
#include "sql/agg.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"
#include "telemetry/codec.hpp"

int main() {
  using namespace oda;
  using sql::Table;

  bench::header("Fig 4-b -- anatomy of ODA data pipelines (SQL-clause stages)",
                "Fig 4-b; Sec V-A medallion Bronze->Silver->Gold",
                "Bronze->Silver (window agg + pivot + join) dominates pipeline cost; Gold "
                "slicing on Silver is cheap; row count collapses by orders of magnitude");

  bench::StandardRig rig(0.01, 300.0, 0.25);
  auto& fw = rig.fw;

  // Full-anatomy query: parse -> 15s window agg -> pivot wide -> join job
  // allocation context -> Gold rollup per (window, project).
  const auto topics = rig.sys->topics();
  pipeline::QueryConfig qc;
  qc.name = "full_anatomy";
  qc.max_records_per_batch = 8192;
  auto query = std::make_unique<engine::Query>(
      qc,
      engine::SourceSpec{&fw.broker(), topics.power, "anatomy", telemetry::packets_to_bronze},
      /*workers=*/1);
  query->add_operator([] {
    return std::make_unique<pipeline::WindowAggOp>(
        "GROUP BY window (Bronze->Silver)", "time", 15 * common::kSecond,
        std::vector<std::string>{"node_id", "sensor"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"}});
  });
  query->add_transform("PIVOT wide (Silver)", storage::DataClass::kSilver, [](const Table& t) {
    return sql::pivot_wider(t, {"window_start", "node_id"}, "sensor", "mean_value");
  });
  auto* sched = &rig.sys->scheduler();
  query->add_transform(
      "JOIN job context (Silver+)", storage::DataClass::kSilver, [sched](const Table& t) {
        if (t.num_rows() == 0) return t;
        // Restrict the allocation build side to jobs overlapping this
        // batch's window range — the standard time-bounded stream-table
        // join (otherwise the build side grows with history).
        std::int64_t lo = INT64_MAX, hi = INT64_MIN;
        const auto& wcol = t.column("window_start");
        for (std::size_t r = 0; r < t.num_rows(); ++r) {
          lo = std::min(lo, wcol.int_at(r));
          hi = std::max(hi, wcol.int_at(r));
        }
        Table alloc = sql::filter(sched->node_allocation_log(),
                                  sql::col("end_time") > sql::lit(sql::Value(lo)) &&
                                      sql::col("start_time") <= sql::lit(sql::Value(hi)));
        if (alloc.num_rows() == 0) return t;
        Table joined = sql::hash_join(t, alloc, {"node_id"}, sql::JoinType::kLeft);
        // keep only rows whose window falls inside the matched job
        return sql::filter(joined,
                           sql::is_null(sql::col("job_id")) ||
                               (sql::col("window_start") >= sql::col("start_time") &&
                                sql::col("window_start") < sql::col("end_time")));
      });
  // Stages run per partition lane and power packets are keyed by node,
  // so a job whose nodes span partitions gets one partial row per lane;
  // the partials are folded after the drain.
  query->add_transform("GROUP BY slice (Gold)", storage::DataClass::kGold, [](const Table& t) {
    if (t.num_rows() == 0 || !t.schema().contains("node.power_w") ||
        !t.schema().contains("job_id")) {
      return Table{};  // no job context joined in this batch yet
    }
    return sql::group_by(t, {"window_start", "job_id"},
                         {sql::AggSpec{"node.power_w", sql::AggKind::kSum, "job_power_w"},
                          sql::AggSpec{"node.power_w", sql::AggKind::kCount, "nodes"}});
  });
  auto gold_sink = std::make_unique<pipeline::TableSink>();
  auto* gold = gold_sink.get();
  query->add_sink(std::move(gold_sink));
  auto& q = fw.register_query(std::move(query));

  common::Stopwatch sw;
  fw.advance(3 * common::kMinute);
  const double wall = sw.elapsed_seconds();
  const Table gold_rows =
      gold->table().num_rows() == 0
          ? Table{}
          : sql::group_by(gold->table(), {"window_start", "job_id"},
                          {sql::AggSpec{"job_power_w", sql::AggKind::kSum, "job_power_w"},
                           sql::AggSpec{"nodes", sql::AggKind::kSum, "nodes"}});

  bench::section("per-stage cost over a 3-minute streaming run");
  std::printf("%-34s %12s %12s %12s %9s\n", "stage (SQL clause)", "rows in", "rows out",
              "total ms", "% cost");
  double total_s = 0.0;
  for (const auto& s : q.metrics().stages) total_s += s.wall_seconds.sum();
  for (const auto& s : q.metrics().stages) {
    std::printf("%-34s %12llu %12llu %12.1f %8.1f%%\n", s.name.c_str(),
                static_cast<unsigned long long>(s.rows_in),
                static_cast<unsigned long long>(s.rows_out), 1e3 * s.wall_seconds.sum(),
                100.0 * s.wall_seconds.sum() / total_s);
  }
  std::printf("\nBronze rows ingested: %llu -> Gold rows: %zu (%.0fx row compression)\n",
              static_cast<unsigned long long>(q.metrics().rows_ingested), gold_rows.num_rows(),
              static_cast<double>(q.metrics().rows_ingested) /
                  std::max<std::size_t>(1, gold_rows.num_rows()));
  std::printf("pipeline wall time: %.2f s for %s of facility telemetry\n", wall,
              common::format_duration(3 * common::kMinute).c_str());
  if (gold_rows.num_rows() > 0) {
    bench::section("sample Gold rows (per-window per-job power)");
    std::printf("%s", sql::limit(sql::sort_by(gold_rows, {{"window_start", true}}), 5)
                          .to_string()
                          .c_str());
  }
  return 0;
}
