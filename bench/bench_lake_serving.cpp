// Crowd-scale LAKE serving benchmark (DESIGN.md §14): a closed-loop
// zipf-popularity population of dashboard sessions against LakeServer.
// Three measured sections land in BENCH_lake_serving.json (and append a
// point to BENCH_trajectory.jsonl):
//
//   1. uncached  — the same session traffic against a server whose cache
//      budget is zero: every query runs its plan (raw scan or rollup-ring
//      read). p50/p99/p999 of per-query latency.
//   2. cached-hot — a warmed result cache in front of the same LAKE; the
//      zipf head hits, the tail misses. p50/p99/p999 and hit-rate.
//   3. concurrency sweep — a fixed query budget split across 1/2/4
//      client threads calling execute(), reporting throughput and
//      cache hit-rate vs concurrency.
//
// Each section runs kTrials times, interleaved: a trial runs both
// uncached and cached-hot (or all three thread counts), alternating
// which goes first, so a slow stretch of the host hits every side of a
// trial. Latency quantiles pool every trial's queries; throughputs are
// per-trial medians.
//
// Hard gates (exit 1 on failure), each on the MEDIAN of the per-trial
// ratios (min, median and max land in the JSON):
//   - cached-hot p99 must beat uncached p99 by >= 5x (always armed —
//     this is the point of the result cache), and
//   - 4-thread throughput must beat 1-thread by >= 1.5x, armed only when
//     hardware_concurrency >= 4 (as in bench_micro_engine; CI containers
//     pinned to one core have a flat curve by construction).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "observe/history.hpp"
#include "serve/plan.hpp"
#include "serve/server.hpp"
#include "sql/agg.hpp"
#include "storage/tsdb.hpp"

namespace {

using namespace oda;

constexpr std::size_t kNodes = 64;
constexpr common::Duration kCadence = 15 * common::kSecond;
constexpr common::Duration kSpan = 6 * common::kHour;  // 1440 points/series
constexpr std::size_t kPanelsPerSession = 5;
constexpr double kZipfSkew = 1.1;
constexpr int kTrials = 5;

storage::SeriesKey node_key(std::size_t node) {
  char name[8];
  std::snprintf(name, sizeof(name), "n%02zu", node);
  return storage::SeriesKey{"node.power_w", {{"node", name}}};
}

/// One LAKE + rollup rings, fed in lockstep: 64 node-power series, 6h of
/// 15s samples. The rollup capacity covers the whole span at 1m so the
/// ring-served plans answer the same window the raw scans do.
struct LakeFixture {
  storage::TimeSeriesDb db;
  observe::HistoryStore rollups{
      observe::HistoryConfig{}.with_raw_capacity(16).with_rollup_capacity(1024)};

  LakeFixture() {
    common::Rng rng(17);
    for (std::size_t node = 0; node < kNodes; ++node) {
      const storage::SeriesKey key = node_key(node);
      const std::string ring_name = serve::history_series_name(key);
      const double base = 180.0 + 4.0 * static_cast<double>(node);
      for (common::TimePoint t = 0; t < kSpan; t += kCadence) {
        const double v = base + 25.0 * std::sin(static_cast<double>(t) / 9e9) +
                         rng.uniform(-3.0, 3.0);
        db.append(key, t, v);
        rollups.append(ring_name, t, v);
      }
    }
  }
};

/// The query pool the zipf ranks index into: interleaved kinds so the
/// popular head mixes rollup-served and raw-scan plans.
///   i % 4 == 0  per-node 1m mean       -> kRollup1m
///   i % 4 == 1  per-node 30s mean      -> kRaw (step matches no ring)
///   i % 4 == 2  per-node 10m max       -> kRollup10m
///   i % 4 == 3  fleet-wide 5m mean     -> kRaw over all 64 series
std::vector<storage::TsQuery> build_query_pool() {
  std::vector<storage::TsQuery> pool;
  pool.reserve(4 * kNodes);
  for (std::size_t i = 0; i < 4 * kNodes; ++i) {
    const std::size_t node = (i / 4) % kNodes;
    storage::TsQuery q;
    q.metric = "node.power_w";
    q.t0 = 0;
    q.t1 = kSpan;
    switch (i % 4) {
      case 0:
        q.tag_filter = node_key(node).tags;
        q.step = common::kMinute;
        q.agg = sql::AggKind::kMean;
        break;
      case 1:
        q.tag_filter = node_key(node).tags;
        q.step = 30 * common::kSecond;
        q.agg = sql::AggKind::kMean;
        break;
      case 2:
        q.tag_filter = node_key(node).tags;
        q.step = 10 * common::kMinute;
        q.agg = sql::AggKind::kMax;
        break;
      default:
        // Fleet-wide scan; stagger the window start per rank so the 64
        // fleet queries are distinct cache entries.
        q.t0 = static_cast<common::TimePoint>(node) * common::kMinute;
        q.step = 5 * common::kMinute;
        q.agg = sql::AggKind::kMean;
        break;
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Closed-loop session traffic: each session draws a zipf-popular
/// dashboard (a base rank) and issues `kPanelsPerSession` consecutive
/// pool queries — panels of one dashboard are correlated, dashboards
/// themselves are zipf-popular. Appends per-query latency (microseconds)
/// to `latencies_us` when non-null; returns queries issued.
std::size_t run_sessions(serve::LakeServer& server, const std::vector<storage::TsQuery>& pool,
                         std::size_t sessions, std::uint64_t seed,
                         std::vector<double>* latencies_us) {
  common::Rng rng(seed);
  std::size_t issued = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t base = rng.zipf(pool.size(), kZipfSkew);
    for (std::size_t p = 0; p < kPanelsPerSession; ++p, ++issued) {
      const storage::TsQuery& q = pool[(base + p) % pool.size()];
      common::Stopwatch sw;
      const serve::ServeResult r = server.execute("dash", q);
      if (latencies_us != nullptr) latencies_us->push_back(sw.elapsed_us());
      if (r.admission != serve::Admission::kAdmitted) {
        std::fprintf(stderr, "unexpected rejection: %s\n", serve::admission_name(r.admission));
      }
    }
  }
  return issued;
}

void report_latency(bench::JsonReport& report, const char* phase,
                    std::vector<double> latencies_us, double hit_rate) {
  const double p50 = common::exact_quantile(latencies_us, 0.50);
  const double p99 = common::exact_quantile(latencies_us, 0.99);
  const double p999 = common::exact_quantile(latencies_us, 0.999);
  std::printf("  %-11s %8zu queries  p50 %8.1fus  p99 %8.1fus  p999 %8.1fus  hit-rate %5.1f%%\n",
              phase, latencies_us.size(), p50, p99, p999, hit_rate * 100.0);
  const std::string prefix = std::string("serve.") + phase;
  report.metric(prefix + ".p50_us", p50, "us");
  report.metric(prefix + ".p99_us", p99, "us");
  report.metric(prefix + ".p999_us", p999, "us");
  report.metric(prefix + ".hit_rate", hit_rate, "ratio");
}

double hit_rate_of(const serve::LakeServer& server) {
  const serve::ServeStats st = server.stats();
  const std::uint64_t total = st.cache.hits + st.cache.misses;
  return total == 0 ? 0.0 : static_cast<double>(st.cache.hits) / static_cast<double>(total);
}

/// A server that never sheds or quota-rejects: this bench measures the
/// read path, not admission control (serve_test covers the gates).
serve::ServeConfig wide_open(std::size_t cache_bytes) {
  return serve::ServeConfig{}
      .with_threads(1)  // execute() runs on the caller; the pool is idle
      .with_max_queue(1u << 20)
      .with_shed_depths(1e9, 1e12)
      .with_cache_bytes(cache_bytes);
}

/// One concurrency-sweep point: a fixed budget of `queries` split across
/// `threads` client threads against a freshly warmed 8 MiB cache.
/// Returns queries/s; `hit_rate` receives the server's cache hit-rate.
double sweep_rate(const LakeFixture& lake, const std::vector<storage::TsQuery>& pool,
                  std::size_t threads, std::size_t queries, double* hit_rate) {
  serve::LakeServer server(lake.db, wide_open(8u << 20), &lake.rollups);
  for (const auto& q : pool) server.execute("warm", q);
  const std::size_t per_thread = queries / (threads * kPanelsPerSession);
  common::Stopwatch sw;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> total{0};
  for (std::size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      total += run_sessions(server, pool, per_thread, 300 + c, nullptr);
    });
  }
  for (auto& c : clients) c.join();
  const double rate = static_cast<double>(total.load()) / sw.elapsed_seconds();
  *hit_rate = hit_rate_of(server);
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Session counts: the full run is the 100k-session crowd from the
  // issue; --smoke is the 1k-session end of the same range. The uncached
  // phase samples fewer sessions — every query runs its full plan there,
  // so the sample is sized to keep the phase in seconds (the quantiles
  // stabilize well before 10k sessions).
  const std::size_t kCachedSessions = smoke ? 1000 : 100000;
  const std::size_t kUncachedSessions = smoke ? 1000 : 10000;
  const std::size_t kSweepQueries = smoke ? 20000 : 100000;

  bench::header("bench_lake_serving",
                "Sec. 5-6 (serving ODA insight back to a facility of consumers)",
                "warmed result cache collapses hot-query p99 >=5x vs uncached scans");

  LakeFixture lake;
  const std::vector<storage::TsQuery> pool = build_query_pool();
  std::printf("LAKE: %zu series, %zu points; query pool %zu (zipf s=%.2f), %zu panels/session\n",
              lake.db.series_count(), lake.db.point_count(), pool.size(), kZipfSkew,
              kPanelsPerSession);

  oda::bench::JsonReport report("lake_serving");

  // --- 1+2. uncached (zero cache budget, every query executes its plan)
  // and cached-hot (warmed cache, zipf head served from memory), one of
  // each per trial ---
  bench::section("uncached (cache budget 0) vs cached-hot (8 MiB cache, warmed)");
  std::vector<double> uncached_us;
  std::vector<double> cached_us;
  std::vector<double> p99_ratios;
  double uncached_hit_rate = 0.0;
  double cached_hit_rate = 0.0;
  serve::ServeStats cached_stats;
  for (int trial = 0; trial < kTrials; ++trial) {
    double uncached_p99 = 0.0;
    double cached_p99 = 0.0;
    const auto uncached = [&] {
      serve::LakeServer server(lake.db, wide_open(0), &lake.rollups);
      std::vector<double> us;
      us.reserve(kUncachedSessions * kPanelsPerSession);
      run_sessions(server, pool, kUncachedSessions, 101, &us);
      uncached_p99 = common::exact_quantile(us, 0.99);
      uncached_hit_rate = hit_rate_of(server);
      uncached_us.insert(uncached_us.end(), us.begin(), us.end());
    };
    const auto cached = [&] {
      serve::LakeServer server(lake.db, wide_open(8u << 20), &lake.rollups);
      for (const auto& q : pool) server.execute("warm", q);  // warm every entry
      std::vector<double> us;
      us.reserve(kCachedSessions * kPanelsPerSession);
      run_sessions(server, pool, kCachedSessions, 202, &us);
      cached_p99 = common::exact_quantile(us, 0.99);
      cached_hit_rate = hit_rate_of(server);
      cached_stats = server.stats();
      cached_us.insert(cached_us.end(), us.begin(), us.end());
    };
    if (trial % 2 == 0) {
      uncached();
      cached();
    } else {
      cached();
      uncached();
    }
    p99_ratios.push_back(cached_p99 > 0.0 ? uncached_p99 / cached_p99 : 0.0);
  }
  report_latency(report, "uncached", std::move(uncached_us), uncached_hit_rate);
  report_latency(report, "cached_hot", std::move(cached_us), cached_hit_rate);
  report.metric("serve.cached_hot.rollup_served", static_cast<double>(cached_stats.rollup_served),
                "queries");
  report.metric("serve.cache.bytes", static_cast<double>(cached_stats.cache.bytes), "bytes");
  report.metric("serve.cache.entries", static_cast<double>(cached_stats.cache.entries),
                "entries");
  const bench::Spread p99_improvement(p99_ratios);
  report.spread("serve.p99_improvement", p99_improvement, "x");

  // --- 3. concurrency sweep: fixed budget across 1/2/4 client threads,
  // all three per trial ---
  bench::section("concurrency sweep (warmed cache, closed loop)");
  constexpr std::size_t kThreads[] = {1, 2, 4};
  std::vector<double> rates[3];
  std::vector<double> speedups[3];
  double hit_rates[3] = {0.0, 0.0, 0.0};
  for (int trial = 0; trial < kTrials; ++trial) {
    double rate[3] = {0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t i = trial % 2 == 0 ? k : 2 - k;
      rate[i] = sweep_rate(lake, pool, kThreads[i], kSweepQueries, &hit_rates[i]);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      rates[i].push_back(rate[i]);
      speedups[i].push_back(rate[i] / rate[0]);
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const double rate = bench::Spread(rates[i]).median;
    const bench::Spread speedup(speedups[i]);
    std::printf("  threads=%zu  %9.0fk queries/s  speedup %.2fx (min %.2fx, max %.2fx)  "
                "hit-rate %5.1f%%\n",
                kThreads[i], rate / 1e3, speedup.median, speedup.min, speedup.max,
                hit_rates[i] * 100.0);
    const std::string suffix = "threads_" + std::to_string(kThreads[i]);
    report.metric("serve.throughput." + suffix, rate, "queries/s");
    report.spread("serve.speedup." + suffix, speedup, "x");
    report.metric("serve.hit_rate." + suffix, hit_rates[i], "ratio");
  }
  const bench::Spread speedup_4(speedups[2]);

  report.write();

  // Hard gate: the warmed cache must collapse hot-query p99 by >= 5x.
  if (p99_improvement.median < 5.0) {
    std::fprintf(stderr, "FAIL: cached-hot p99 improvement median %.2fx < 5x gate "
                 "(min %.2fx, max %.2fx over %d trials)\n", p99_improvement.median,
                 p99_improvement.min, p99_improvement.max, kTrials);
    return 1;
  }
  std::printf("cache gate: cached-hot vs uncached p99 median %.1fx >= 5x (min %.1fx, max %.1fx)\n",
              p99_improvement.median, p99_improvement.min, p99_improvement.max);

  // Hard gate: concurrent reads must scale where the hardware can show
  // it; per-series reader-writer locks and sharded cache shards make the
  // read path shared-nothing in the common case.
  if (std::thread::hardware_concurrency() >= 4) {
    if (speedup_4.median < 1.5) {
      std::fprintf(stderr, "FAIL: 4-thread serving speedup median %.2fx < 1.50x gate "
                   "(min %.2fx, max %.2fx; hardware_concurrency=%u)\n", speedup_4.median,
                   speedup_4.min, speedup_4.max, std::thread::hardware_concurrency());
      return 1;
    }
    std::printf("concurrency gate: 4-thread speedup median %.2fx >= 1.50x\n", speedup_4.median);
  } else {
    std::printf("concurrency gate: skipped (hardware_concurrency=%u < 4)\n",
                std::thread::hardware_concurrency());
  }
  return 0;
}
