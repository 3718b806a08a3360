// Serving-tier tests (DESIGN.md §14): LakeServer admission gates, the
// epoch-validated result cache, rollup plan selection, and the
// readers-vs-append stress proofs for the concurrent TimeSeriesDb.
// Label "serve": run this suite under ASan and TSan builds — the stress
// cases are the sanitizer story for per-series reader-writer locking.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/oda_monitor.hpp"
#include "common/rng.hpp"
#include "core/allocations.hpp"
#include "json_check.hpp"
#include "observe/history.hpp"
#include "observe/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/plan.hpp"
#include "serve/server.hpp"
#include "sql/table.hpp"
#include "storage/tsdb.hpp"
#include "table_check.hpp"

namespace oda {
namespace {

using serve::Admission;
using serve::LakeServer;
using serve::PlanKind;
using serve::QueryPriority;
using serve::ServeConfig;
using storage::SeriesKey;
using storage::TimeSeriesDb;
using storage::TsQuery;

SeriesKey key_for(const std::string& metric, const std::string& node) {
  SeriesKey k;
  k.metric = metric;
  k.tags = {{"node", node}};
  return k;
}

// A small LAKE + mirrored rollup rings, fed in lockstep the way the
// facility's scraper feeds both stores.
struct Fixture {
  TimeSeriesDb db;
  observe::HistoryStore rollups;

  void feed(const SeriesKey& k, common::TimePoint t, double v) {
    db.append(k, t, v);
    rollups.append(serve::history_series_name(k), t, v);
  }
};

TEST(ServePlanTest, CanonicalKeyDistinguishesQueries) {
  TsQuery a;
  a.metric = "power";
  a.tag_filter = {{"node", "n1"}};
  a.t0 = 0;
  a.t1 = 1000;
  a.step = 10;
  TsQuery b = a;
  EXPECT_EQ(serve::canonical_key(a), serve::canonical_key(b));
  b.step = 20;
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(b));
  b = a;
  b.tag_filter = {{"node", "n2"}};
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(b));
  b = a;
  b.agg = sql::AggKind::kMax;
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(b));
}

TEST(ServePlanTest, SelectsRollupOnlyForAlignedMatchingStep) {
  observe::HistoryStore rollups;
  TsQuery q;
  q.metric = "power";
  q.t0 = 0;
  q.t1 = 60 * common::kMinute;
  q.step = common::kMinute;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRollup1m);
  q.step = 10 * common::kMinute;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRollup10m);
  // No rollup store → raw.
  EXPECT_EQ(serve::select_plan(q, nullptr), PlanKind::kRaw);
  // Step that matches no ring → raw.
  q.step = common::kSecond;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRaw);
  // Unaligned t0 needs a partial first bucket → raw.
  q.step = common::kMinute;
  q.t0 = 1;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRaw);
  q.t0 = 0;
  // Unaligned t1 likewise; INT64_MAX counts as aligned (open range).
  q.t1 = 60 * common::kMinute + 1;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRaw);
  q.t1 = INT64_MAX;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRollup1m);
  // Aggregations a rollup bucket cannot reproduce → raw.
  q.t1 = 60 * common::kMinute;
  q.agg = sql::AggKind::kP99;
  EXPECT_EQ(serve::select_plan(q, &rollups), PlanKind::kRaw);
}

TEST(ServeCacheTest, HitAfterInsertStaleAfterAppend) {
  TimeSeriesDb db;
  const auto k = key_for("power", "n1");
  db.append(k, 100, 1.0);
  TsQuery q;
  q.metric = "power";
  storage::QueryFingerprint fp;
  const sql::Table t = db.query(q, &fp);

  serve::ResultCache cache;
  EXPECT_FALSE(cache.lookup("k", "power", db).has_value());
  cache.insert("k", "power", t, fp);
  auto hit = cache.lookup("k", "power", db);
  ASSERT_TRUE(hit.has_value());
  testing::expect_tables_equal(*hit, t);

  // Any append to a matched series invalidates at next lookup.
  db.append(k, 200, 2.0);
  EXPECT_FALSE(cache.lookup("k", "power", db).has_value());
  EXPECT_EQ(cache.stats().stale_drops, 1u);

  // New series under the metric bumps membership — also stale.
  const sql::Table t2 = db.query(q, &fp);
  cache.insert("k", "power", t2, fp);
  db.append(key_for("power", "n2"), 300, 3.0);
  EXPECT_FALSE(cache.lookup("k", "power", db).has_value());
}

TEST(ServeCacheTest, LruEvictsWithinByteBudget) {
  TimeSeriesDb db;
  db.append(key_for("power", "n1"), 100, 1.0);
  TsQuery q;
  q.metric = "power";
  storage::QueryFingerprint fp;
  const sql::Table t = db.query(q, &fp);

  // One shard, budget for only a few entries.
  serve::ResultCache cache(
      serve::CacheConfig{}.with_shards(1).with_total_bytes(3 * (t.memory_bytes() + 512)));
  for (int i = 0; i < 16; ++i) cache.insert("key" + std::to_string(i), "power", t, fp);
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 3 * (t.memory_bytes() + 512));
  // Most-recent entries survive, oldest were evicted.
  EXPECT_TRUE(cache.lookup("key15", "power", db).has_value());
  EXPECT_FALSE(cache.lookup("key0", "power", db).has_value());
}

TEST(ServeServerTest, CachedAndUncachedResultsAreByteIdentical) {
  Fixture f;
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < 50; ++i) {
      f.feed(key_for("power", "n" + std::to_string(n)), i * common::kSecond, n * 100.0 + i);
    }
  }
  LakeServer server(f.db, ServeConfig{}.with_threads(2), &f.rollups);

  TsQuery q;
  q.metric = "power";
  q.t0 = 0;
  q.t1 = 40 * common::kSecond;
  q.step = 10 * common::kSecond;

  const auto first = server.execute("dash", q);
  ASSERT_EQ(first.admission, Admission::kAdmitted);
  EXPECT_FALSE(first.cache_hit);
  const auto second = server.execute("dash", q);
  ASSERT_EQ(second.admission, Admission::kAdmitted);
  EXPECT_TRUE(second.cache_hit);
  // The acceptance criterion: cell-for-cell identical cached vs uncached.
  testing::expect_tables_equal(first.table, second.table);
  // And both identical to a direct LAKE scan.
  testing::expect_tables_equal(first.table, f.db.query(q));
}

TEST(ServeServerTest, AppendInvalidatesCachedResult) {
  Fixture f;
  const auto k = key_for("power", "n1");
  f.feed(k, 0, 1.0);
  LakeServer server(f.db, ServeConfig{}.with_threads(1));

  TsQuery q;
  q.metric = "power";
  ASSERT_FALSE(server.execute("dash", q).cache_hit);
  ASSERT_TRUE(server.execute("dash", q).cache_hit);

  f.feed(k, common::kSecond, 2.0);
  const auto r = server.execute("dash", q);
  EXPECT_FALSE(r.cache_hit);  // epoch moved — recomputed
  EXPECT_EQ(r.table.num_rows(), 2u);
}

TEST(ServeServerTest, RollupPlanMatchesRawScan) {
  Fixture f;
  for (int n = 0; n < 3; ++n) {
    for (int i = 0; i < 120; ++i) {
      f.feed(key_for("power", "n" + std::to_string(n)), i * 30 * common::kSecond,
             n * 10.0 + (i % 7));
    }
  }
  LakeServer server(f.db, ServeConfig{}.with_threads(1), &f.rollups);

  for (const auto agg : {sql::AggKind::kMean, sql::AggKind::kSum, sql::AggKind::kMin,
                         sql::AggKind::kMax, sql::AggKind::kCount, sql::AggKind::kLast}) {
    TsQuery q;
    q.metric = "power";
    q.t0 = 0;
    q.t1 = common::kHour;
    q.step = common::kMinute;
    q.agg = agg;
    const auto r = server.execute("dash", q);
    ASSERT_EQ(r.admission, Admission::kAdmitted);
    EXPECT_EQ(r.plan, PlanKind::kRollup1m) << sql::agg_name(agg);
    // Ring-served buckets must be indistinguishable from a raw scan.
    SCOPED_TRACE(sql::agg_name(agg));
    testing::expect_tables_equal(r.table, f.db.query(q));
  }

  TsQuery q10;
  q10.metric = "power";
  q10.t0 = 0;
  q10.t1 = common::kHour;
  q10.step = 10 * common::kMinute;
  const auto r10 = server.execute("dash", q10);
  EXPECT_EQ(r10.plan, PlanKind::kRollup10m);
  testing::expect_tables_equal(r10.table, f.db.query(q10));
}

// window_start saturates at INT64_MIN, so select_plan counts t1 ==
// INT64_MIN as aligned and picks a rollup plan for the empty range
// [INT64_MIN, INT64_MIN). The ring read must stay empty, like the raw
// scan, rather than compute t1 - 1 (signed overflow).
TEST(ServeServerTest, RollupPlanOnEmptyRangeAtTimelineStartReadsNothing) {
  Fixture f;
  for (int i = 0; i < 10; ++i) f.feed(key_for("power", "n1"), i * common::kMinute, i);
  LakeServer server(f.db, ServeConfig{}.with_threads(1), &f.rollups);
  TsQuery q;
  q.metric = "power";
  q.t0 = INT64_MIN;
  q.t1 = INT64_MIN;
  q.step = common::kMinute;
  const auto r = server.execute("dash", q);
  ASSERT_EQ(r.admission, Admission::kAdmitted);
  EXPECT_EQ(r.plan, PlanKind::kRollup1m);
  EXPECT_EQ(r.table.num_rows(), 0u);
  testing::expect_tables_equal(r.table, f.db.query(q));
}

// A LAKE for the digest matrix: 3 h of 15 s points. "power" has four
// node series, two of which also carry a rack tag (so a fleet result has
// null tag cells); "temp" is tagged by rack only; "uptime" is tagless.
// Timestamps are jittered off the 15 s grid and values are random, so
// bucket edges and the low bits of every aggregate are exercised.
void feed_digest_lake(Fixture& f) {
  common::Rng rng(23);
  for (common::TimePoint t = 0; t < 3 * common::kHour; t += 15 * common::kSecond) {
    for (int n = 0; n < 4; ++n) {
      SeriesKey k = key_for("power", "n" + std::to_string(n));
      if (n % 2 == 1) k.tags["rack"] = "r" + std::to_string(n / 2);
      f.feed(k, t + n * common::kSecond, rng.uniform(100.0, 400.0));
    }
    for (int r = 0; r < 2; ++r) {
      f.feed(SeriesKey{"temp", {{"rack", "r" + std::to_string(r)}}}, t + 7 * common::kSecond,
             rng.normal(40.0, 5.0));
    }
    f.feed(SeriesKey{"uptime", {}}, t, static_cast<double>(t) / 1e9);
  }
}

// Exact-bit digests of the LAKE read path over a matrix of metrics (one
// absent, one tagless), tag filters, steps (raw, a step no ring has, both
// ring widths, and 7 m), seven aggregates (p99 is one no ring carries),
// and aligned, unaligned, empty and open-ended ranges. Every query runs
// through an uncached LakeServer (raw and rollup plans) and straight
// through TimeSeriesDb::query; latest() is folded for every filter. The
// constants were recorded from a reference build: a change that moves
// one low bit, one null cell or one row of any result fails here.
TEST(ServeDigestTest, ServedAndScannedResultsMatchRecordedDigests) {
  Fixture f;
  feed_digest_lake(f);
  LakeServer server(f.db, ServeConfig{}.with_threads(1).with_cache_bytes(0), &f.rollups);

  const std::vector<std::pair<std::string, std::map<std::string, std::string>>> filters = {
      {"power", {}},       {"power", {{"node", "n1"}}}, {"power", {{"rack", "r0"}}},
      {"temp", {}},        {"temp", {{"rack", "r1"}}},  {"uptime", {}},
      {"absent", {}},
  };
  const common::Duration steps[] = {0, 30 * common::kSecond, common::kMinute,
                                    10 * common::kMinute, 7 * common::kMinute};
  const sql::AggKind aggs[] = {sql::AggKind::kMean, sql::AggKind::kSum,   sql::AggKind::kMin,
                               sql::AggKind::kMax,  sql::AggKind::kCount, sql::AggKind::kLast,
                               sql::AggKind::kP99};
  const std::pair<common::TimePoint, common::TimePoint> ranges[] = {
      {0, 2 * common::kHour},                                           // aligned
      {37 * common::kSecond, common::kHour + 13 * common::kSecond},     // unaligned
      {5 * common::kHour, 6 * common::kHour},                           // empty
      {10 * common::kMinute, INT64_MAX},                                // open-ended
  };

  testing::TableDigest served;
  testing::TableDigest scanned;
  testing::TableDigest latest;
  std::uint64_t index = 0;
  std::uint64_t rollups = 0;
  std::uint64_t rows = 0;
  for (const auto& [metric, filter] : filters) {
    for (const auto step : steps) {
      for (const auto agg : aggs) {
        for (const auto& [t0, t1] : ranges) {
          TsQuery q;
          q.metric = metric;
          q.tag_filter = filter;
          q.t0 = t0;
          q.t1 = t1;
          q.step = step;
          q.agg = agg;
          const auto r = server.execute("dash", q);
          ASSERT_EQ(r.admission, Admission::kAdmitted);
          ASSERT_FALSE(r.cache_hit);
          if (r.plan != PlanKind::kRaw) ++rollups;
          rows += r.table.num_rows();
          served.mark(index);
          served.add(r.table);
          scanned.mark(index);
          scanned.add(f.db.query(q));
          ++index;
        }
      }
    }
    latest.mark(index++);
    latest.add(f.db.latest(metric, filter));
  }
  latest.add(f.db.latest("power", {{"node", "n9"}}));

  EXPECT_EQ(index, 987u);
  EXPECT_EQ(rollups, 252u);
  EXPECT_EQ(rows, 177611u);
  // Ring-served buckets equal the raw scan's to the bit, so the two
  // digests are the same constant.
  EXPECT_EQ(served.value(), 15649064988823300144ull);
  EXPECT_EQ(scanned.value(), 15649064988823300144ull);
  EXPECT_EQ(latest.value(), 2224129778574341905ull);
}

TEST(ServeServerTest, QuotaGateConsumesAndReleasesSlots) {
  Fixture f;
  f.feed(key_for("power", "n1"), 0, 1.0);
  core::AllocationManager quotas;
  core::ResourceGrant grant;
  grant.service_slots = 1.0;
  quotas.grant("dash", grant);

  LakeServer server(f.db, ServeConfig{}.with_threads(1), nullptr, &quotas);
  TsQuery q;
  q.metric = "power";

  // Unknown project → rejected; granted project → admitted.
  EXPECT_EQ(server.execute("ghost", q).admission, Admission::kQuotaExceeded);
  EXPECT_EQ(server.execute("dash", q).admission, Admission::kAdmitted);
  // Slots released at completion: usage is back to zero and the next
  // query admits again.
  EXPECT_EQ(quotas.usage("dash")->used.service_slots, 0.0);
  EXPECT_EQ(server.execute("dash", q).admission, Admission::kAdmitted);

  const auto s = server.stats();
  EXPECT_EQ(s.quota_rejected, 1u);
  EXPECT_EQ(s.projects.at("dash").admitted, 2u);
  EXPECT_EQ(s.projects.at("ghost").quota_rejected, 1u);
}

TEST(ServeServerTest, QueueCapRejectsWhenFull) {
  Fixture f;
  f.feed(key_for("power", "n1"), 0, 1.0);
  LakeServer server(f.db, ServeConfig{}.with_threads(1).with_max_queue(0));
  TsQuery q;
  q.metric = "power";
  EXPECT_EQ(server.execute("dash", q).admission, Admission::kQueueFull);
  EXPECT_EQ(server.stats().queue_rejected, 1u);
}

TEST(ServeServerTest, SloShedsBackgroundThenEverything) {
  Fixture f;
  f.feed(key_for("power", "n1"), 0, 1.0);
  observe::set_virtual_now(0);

  // Depth 1 exceeds warn (0.5) → Degraded from the first query on:
  // background traffic sheds, interactive still serves.
  {
    LakeServer server(f.db, ServeConfig{}.with_threads(1).with_shed_depths(0.5, 1e9));
    TsQuery q;
    q.metric = "power";
    EXPECT_EQ(server.execute("dash", q, QueryPriority::kBackground).admission, Admission::kShed);
    EXPECT_EQ(server.execute("dash", q, QueryPriority::kInteractive).admission,
              Admission::kAdmitted);
    EXPECT_EQ(server.stats().shed_state, observe::SloState::kDegraded);
  }
  // Depth 1 exceeds crit (0.5) with no hold → Breached: shed everything.
  {
    LakeServer server(f.db, ServeConfig{}.with_threads(1).with_shed_depths(0.1, 0.5));
    TsQuery q;
    q.metric = "power";
    EXPECT_EQ(server.execute("dash", q, QueryPriority::kInteractive).admission, Admission::kShed);
    EXPECT_EQ(server.stats().shed, 1u);
    EXPECT_EQ(server.stats().shed_state, observe::SloState::kBreached);
  }
}

TEST(ServeServerTest, SubmitRunsOnPoolAndResolvesRejectionsInline) {
  Fixture f;
  for (int i = 0; i < 100; ++i) f.feed(key_for("power", "n1"), i * common::kSecond, i);
  LakeServer server(f.db, ServeConfig{}.with_threads(2));
  TsQuery q;
  q.metric = "power";

  std::vector<std::future<serve::ServeResult>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(server.submit("dash", q));
  for (auto& fu : futs) {
    const auto r = fu.get();
    ASSERT_EQ(r.admission, Admission::kAdmitted);
    EXPECT_EQ(r.table.num_rows(), 100u);
  }
  EXPECT_EQ(server.queue_depth(), 0u);
  const auto s = server.stats();
  EXPECT_EQ(s.admitted, 32u);
  EXPECT_EQ(s.completed, 32u);
  EXPECT_GT(s.cache.hits, 0u);
}

TEST(ServeServerTest, ServeReportIsStrictJsonAndCoversEveryGate) {
  Fixture f;
  f.feed(key_for("power", "n1"), 0, 1.0);
  core::AllocationManager quotas;
  core::ResourceGrant grant;
  grant.service_slots = 2.0;
  quotas.grant("dash", grant);
  LakeServer server(f.db, ServeConfig{}.with_threads(1), &f.rollups, &quotas);

  TsQuery q;
  q.metric = "power";
  server.execute("dash", q);
  server.execute("dash", q);           // cache hit
  server.execute("ghost", q);          // quota reject

  std::string err;
  const std::string json = apps::serve_report_json(server, quotas);
  EXPECT_TRUE(testing::json_valid(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"projects\""), std::string::npos);

  const std::string text = apps::render_serve(server, quotas);
  for (const char* needle : {"depth", "admitted", "shed", "queue_rejected", "quota_rejected",
                             "hits", "evictions", "slots"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << " missing from:\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Stress proofs: run these under -DODA_SANITIZE=thread. They are sized to
// finish in seconds unsanitized while still interleaving heavily.

TEST(ServeStressTest, ReadersRaceAppendsOnTimeSeriesDb) {
  TimeSeriesDb db;
  constexpr int kSeries = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kPointsPerWriter = 4000;
  for (int s = 0; s < kSeries; ++s) db.append(key_for("power", "n" + std::to_string(s)), 0, 0.0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rows_seen{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 1; i <= kPointsPerWriter; ++i) {
        const int s = (w * 31 + i) % kSeries;
        db.append(key_for("power", "n" + std::to_string(s)),
                  static_cast<common::TimePoint>(i) * common::kSecond, i);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      TsQuery q;
      q.metric = "power";
      // Run until the writers are done, but always at least one query — a
      // reader first scheduled after both writers joined still reads.
      int done = 0;
      while (!stop.load(std::memory_order_relaxed) || done < 1) {
        ++done;
        q.tag_filter = (r % 2) ? std::map<std::string, std::string>{{"node", "n1"}}
                               : std::map<std::string, std::string>{};
        q.step = (r % 3) ? common::kMinute : 0;
        const sql::Table t = db.query(q);
        rows_seen.fetch_add(t.num_rows(), std::memory_order_relaxed);
        (void)db.latest("power");
        (void)db.point_count();
      }
    });
  }
  // A retention thread racing both: prunes nothing (cutoff below data)
  // but exercises the unique-lock path against readers.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      db.evict_older_than(common::kDay, 0);
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Linearizable-enough: after all writers join, a quiescent scan sees
  // every append exactly once.
  EXPECT_EQ(db.point_count(), static_cast<std::size_t>(kSeries + kWriters * kPointsPerWriter));
  EXPECT_GT(rows_seen.load(), 0u);
}

TEST(ServeStressTest, ServerRacesAppendsQuotasAndShedding) {
  Fixture f;
  constexpr int kSeries = 4;
  for (int s = 0; s < kSeries; ++s) f.feed(key_for("power", "n" + std::to_string(s)), 0, 0.0);

  core::AllocationManager quotas;
  core::ResourceGrant grant;
  grant.service_slots = 3.0;  // tighter than the thread count — quota
  quotas.grant("dash", grant);  // rejections happen under contention
  observe::set_virtual_now(0);

  LakeServer server(f.db,
                    ServeConfig{}
                        .with_threads(2)
                        .with_max_queue(16)
                        .with_shed_depths(8.0, 12.0)
                        .with_cache_bytes(1u << 20),
                    &f.rollups, &quotas);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i <= 3000; ++i) {
      f.feed(key_for("power", "n" + std::to_string(i % kSeries)),
             static_cast<common::TimePoint>(i) * common::kSecond, i);
    }
    stop.store(true, std::memory_order_relaxed);
  });

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      TsQuery q;
      q.metric = "power";
      // Run until the writer is done, but always at least 50 queries —
      // on a single core the writer can finish before clients start.
      int done = 0;
      while (!stop.load(std::memory_order_relaxed) || done < 50) {
        ++done;
        q.step = (c % 2) ? common::kMinute : 0;
        q.t1 = (c % 3) ? INT64_MAX : common::kHour;
        const auto r = server.execute("dash", q,
                                      (c % 2) ? QueryPriority::kBackground
                                              : QueryPriority::kInteractive);
        if (r.admission == Admission::kAdmitted) served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();

  EXPECT_GT(served.load(), 0u);
  // Every consumed slot was released: nothing admitted is still holding
  // quota after all clients drained.
  EXPECT_EQ(quotas.usage("dash")->used.service_slots, 0.0);
  EXPECT_EQ(server.queue_depth(), 0u);
  const auto s = server.stats();
  EXPECT_EQ(s.admitted, s.completed);
}

}  // namespace
}  // namespace oda
