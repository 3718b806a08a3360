// Fig 6: the User Assistance dashboard "increases productivity of issue
// diagnosis by providing easy access to various system metrics and job
// oriented metrics". Quantifies it: per-ticket diagnosis latency with
// the integrated dashboard (indexed LAKE + joined context) vs the old
// method of manually scanning each system's raw data.
#include <cstdio>
#include <vector>

#include "apps/ua_dashboard.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "stream/broker.hpp"
#include "telemetry/codec.hpp"

int main() {
  using namespace oda;
  bench::header("Fig 6 -- UA dashboard: integrated vs manual ticket diagnosis",
                "Fig 6; Sec VII-B ('significant decrease in the time it takes to resolve user "
                "problems')",
                "dashboard path is orders of magnitude faster per ticket and returns the same "
                "diagnosis");

  bench::StandardRig rig(0.01, 300.0, 0.2);
  auto& fw = rig.fw;
  fw.advance(40 * common::kMinute);

  // Materialize the context tables the dashboard uses.
  stream::GroupMember log_reader(fw.broker(), "ua-bench", rig.sys->topics().syslog);
  const auto log_table = telemetry::log_events_to_table(log_reader.poll(1000000));
  apps::UaDashboard dashboard(fw.lake(), rig.sys->scheduler().allocation_log(),
                              rig.sys->scheduler().node_allocation_log(), log_table);

  // The "manual" path must scan the raw Bronze stream each time.
  stream::GroupMember bronze_reader(fw.broker(), "ua-bench-bronze", rig.sys->topics().power);
  sql::Table bronze;
  for (;;) {
    const auto recs = bronze_reader.poll(65536);
    if (recs.empty()) break;
    sql::Table part = telemetry::packets_to_bronze(recs);
    if (bronze.num_columns() == 0) bronze = sql::Table(part.schema());
    bronze.append_table(part);
  }

  // Tickets: the most recent finished jobs.
  std::vector<std::int64_t> tickets;
  for (const auto& j : rig.sys->scheduler().jobs()) {
    if (j.released) tickets.push_back(j.job_id);
  }
  if (tickets.size() > 10) tickets.erase(tickets.begin(), tickets.end() - 10);

  common::RunningStats dash_ms, manual_ms;
  std::size_t mismatches = 0;
  for (std::int64_t job : tickets) {
    common::Stopwatch sw;
    const auto d1 = dashboard.diagnose(job);
    dash_ms.add(sw.elapsed_ms());
    sw.reset();
    const auto d2 = dashboard.diagnose_manually(job, bronze);
    manual_ms.add(sw.elapsed_ms());
    // Same evidence either way: identical error-event counts.
    if (d1.error_events != d2.error_events) ++mismatches;
  }

  std::printf("\ntickets diagnosed: %zu  (Bronze scan size per manual diagnosis: %zu rows)\n",
              tickets.size(), bronze.num_rows());
  std::printf("%-22s %10s %10s %10s\n", "path", "mean ms", "min ms", "max ms");
  std::printf("%-22s %10.2f %10.2f %10.2f\n", "dashboard (LAKE)", dash_ms.mean(), dash_ms.min(),
              dash_ms.max());
  std::printf("%-22s %10.2f %10.2f %10.2f\n", "manual (raw scans)", manual_ms.mean(),
              manual_ms.min(), manual_ms.max());
  std::printf("speedup: %.1fx   diagnosis mismatches: %zu (must be 0)\n",
              manual_ms.mean() / std::max(1e-9, dash_ms.mean()), mismatches);
  return 0;
}
