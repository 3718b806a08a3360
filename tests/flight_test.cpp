// Flight recorder + engine phase profiler tier.
//
// The two load-bearing claims:
//  1. Recording is OUT-OF-BAND: committed sink bytes are byte-identical
//     with the recorder on or off, at 1/4/16 workers, under an active
//     chaos plan — the engine's golden-run invariant extends over the
//     flight recorder (an observer that perturbs the committed output
//     would be worse than no observer).
//  2. The rings are safe under concurrency: wraparound keeps the newest
//     events in order, and concurrent writers + snapshotting readers
//     stay clean (run this suite under -DODA_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/oda_monitor.hpp"
#include "common/faults.hpp"
#include "engine/engine.hpp"
#include "json_check.hpp"
#include "observe/export.hpp"
#include "observe/flight.hpp"
#include "observe/metrics.hpp"
#include "observe/slo.hpp"
#include "pipeline/operator.hpp"
#include "pipeline/query.hpp"
#include "pipeline/source_sink.hpp"
#include "sql/agg.hpp"
#include "sql/table.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"

namespace oda::engine {
namespace {

using observe::FlightEvent;
using observe::FlightEventType;
using observe::FlightPhase;
using observe::FlightRecorder;
using observe::FlightRing;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// ---------------------------------------------------------------------------
// Ring mechanics
// ---------------------------------------------------------------------------

TEST(FlightRingTest, WraparoundKeepsNewestOrdered) {
  FlightRing ring(64);
  ASSERT_EQ(ring.capacity(), 64u);
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    ring.emit(FlightEventType::kMark, FlightPhase::kNone, 0, /*arg=*/i, /*vt=*/0, /*wall_ns=*/i);
  }
  EXPECT_EQ(ring.emitted(), 1000u);
  EXPECT_EQ(ring.dropped(), 1000u - 64u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // The newest 64 tickets survive, in order, payloads intact.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 1000u - 64u + 1u + i);
    EXPECT_EQ(events[i].arg, events[i].seq);
    EXPECT_EQ(events[i].wall_ns, events[i].seq);
  }
}

TEST(FlightRingTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRing ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  FlightRing tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

// Concurrent writers on ONE ring plus a reader snapshotting in a loop.
// The engine never shares a ring between threads, but the safety story
// must not depend on that: every observed slot is either skipped or
// fully consistent (seq↔arg stamped together by the writer).
TEST(FlightRingTest, ConcurrentWritersAndSnapshotsStayConsistent) {
  FlightRing ring(256);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto events = ring.snapshot();
      std::uint64_t prev = 0;
      for (const FlightEvent& e : events) {
        // Ordered, no duplicates, and the payload matches the ticket the
        // writer stamped into arg — a torn slot would break one of these.
        if (e.seq <= prev || e.arg != e.seq) bad.fetch_add(1, std::memory_order_relaxed);
        prev = e.seq;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // arg mirrors the ticket: emit() hands out tickets internally, so
        // stamp via a second fetch-free convention — every writer writes
        // arg equal to the slot's own seq by re-emitting through a probe.
        ring.emit(FlightEventType::kMark, FlightPhase::kNone, 0,
                  /*arg=*/ring.emitted() + 1, /*vt=*/0, /*wall_ns=*/i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.emitted(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  // arg==seq only holds for uncontended emits (two racing writers can
  // interleave ticket grabs between the emitted() probe and the write),
  // so don't assert bad == 0 here — the single-writer test below does.
  const auto events = ring.snapshot();
  std::uint64_t prev = 0;
  for (const FlightEvent& e : events) {
    EXPECT_GT(e.seq, prev);  // quiescent snapshot: strictly ordered
    prev = e.seq;
  }
}

TEST(FlightRingTest, SingleWriterConcurrentReaderSeesOnlyConsistentSlots) {
  FlightRing ring(128);
  constexpr std::uint64_t kEvents = 200000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightEvent& e : ring.snapshot()) {
        if (e.arg != e.seq) bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::uint64_t i = 1; i <= kEvents; ++i) {
    ring.emit(FlightEventType::kMark, FlightPhase::kNone, 0, /*arg=*/i, /*vt=*/0, /*wall_ns=*/i);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  // The lap-detection recheck must have filtered every torn slot.
  EXPECT_EQ(bad.load(), 0u);
}

// ---------------------------------------------------------------------------
// Recorder: interning, dump latch, install hook
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, InternIsStableAndDumpResolvesLabels) {
  FlightRecorder rec(2, 16);
  const std::uint32_t a = observe::intern_label("alpha");
  const std::uint32_t b = observe::intern_label("beta");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  EXPECT_EQ(observe::intern_label("alpha"), a);

  rec.emit(1, FlightEventType::kMark, FlightPhase::kNone, 7, a);
  const auto d = rec.dump("test", {"driver", "w0"});
  EXPECT_EQ(d.label_text(a), "alpha");
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].ring, 1u);
  EXPECT_EQ(d.label_text(d.events[0].label), "alpha");
  EXPECT_EQ(d.ring_name(1), "w0");
  EXPECT_EQ(d.trigger, "test");
}

TEST(FlightRecorderTest, DumpLatchFirstReasonSticks) {
  FlightRecorder rec(1, 16);
  EXPECT_FALSE(rec.dump_requested());
  rec.request_dump("first");
  rec.request_dump("second");
  EXPECT_TRUE(rec.dump_requested());
  // dump() with no explicit trigger consumes the pending reason.
  EXPECT_EQ(rec.dump().trigger, "first");
  EXPECT_FALSE(rec.dump_requested());
  EXPECT_EQ(rec.dump().trigger, "explicit");
}

TEST(FlightRecorderTest, SloBreachThroughInstalledRecorderRaisesLatch) {
  FlightRecorder rec(1, 16);
  observe::ScopedFlightRecorder scoped(rec);

  // Drive a real Slo to Breached: warn 1, crit 2, no hold.
  observe::SloBook book;
  book.add({.name = "flight.test.slo",
            .subject = "test",
            .unit = "u",
            .warn = 1.0,
            .crit = 2.0,
            .breach_hold = 0,
            .clear_after = 1});
  book.update("flight.test.slo", 5.0, /*now=*/common::kSecond);

  EXPECT_TRUE(rec.dump_requested());
  const auto d = rec.dump();
  EXPECT_EQ(d.trigger, "slo.breach:flight.test.slo");
  bool saw_slo = false;
  for (const FlightEvent& e : d.events) saw_slo |= e.type == FlightEventType::kSlo;
  EXPECT_TRUE(saw_slo);
}

// ---------------------------------------------------------------------------
// Engine integration: golden run, phase profile, dump content
// ---------------------------------------------------------------------------

constexpr std::size_t kPartitions = 16;
constexpr std::size_t kRecords = 4000;

void fill_topic(stream::Topic& topic) {
  stream::BatchBuilder staged;
  for (std::size_t i = 0; i < kRecords; ++i) {
    staged.add(static_cast<common::TimePoint>(i) * common::kSecond / 4,
               "node" + std::to_string(i % 32), std::to_string(0.5 + static_cast<double>(i % 97)));
  }
  topic.produce_staged(staged);
}

Table decode(std::span<const stream::RecordView> records) {
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kString},
                 {"value", DataType::kFloat64}}};
  for (const auto& v : records) {
    t.append_row({Value(v.timestamp), Value(std::string(v.key)),
                  Value(std::stod(std::string(v.payload)))});
  }
  return t;
}

OperatorFactory window_agg_factory() {
  return [] {
    return std::make_unique<pipeline::WindowAggOp>(
        "window_10s", "time", 10 * common::kSecond, std::vector<std::string>{"node"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"},
                                  {"value", sql::AggKind::kMax, "max_value"},
                                  {"value", sql::AggKind::kCount, "samples"}});
  };
}

void configure_plan(chaos::FaultPlan& plan) {
  chaos::SiteConfig fetch;
  fetch.transient_p = 0.05;
  plan.configure("stream.fetch", fetch);
  chaos::SiteConfig batch;
  batch.every_nth = 5;
  plan.configure("pipeline.batch", batch);
}

// Chaos run at `workers` with the recorder at `flight_capacity` (0 =
// off); returns the committed sink table serialized to bytes.
std::vector<std::uint8_t> run_chaos(std::size_t workers, std::size_t flight_capacity,
                                    const std::string& query_name = "flight.agg") {
  stream::Broker broker;
  auto& topic = broker.create_topic("sensors", stream::TopicConfig{}.with_partitions(kPartitions));
  fill_topic(topic);

  chaos::FaultPlan plan(0xf11657);
  configure_plan(plan);
  chaos::ScopedFaultPlan scoped_plan(plan);

  Engine engine(EngineConfig{}
                    .with_workers(workers)
                    .with_flight(flight_capacity)
                    .with_ownership(OwnershipConfig{}.with_partitions(kPartitions)));
  chaos::RetryPolicy retry;
  retry.max_attempts = 50;
  auto sink = std::make_unique<pipeline::TableSink>();
  pipeline::TableSink* sink_ptr = sink.get();
  auto& q = engine.add_query(pipeline::QueryConfig{}
                                 .with_name(query_name)
                                 .with_batch_size(1000)
                                 .with_max_retries(0),
                             SourceSpec{&broker, "sensors", "flight-group", decode, retry});
  q.add_operator(window_agg_factory());
  q.add_sink(std::move(sink));

  engine.run_until_caught_up();
  q.finalize();
  EXPECT_GT(plan.total_faults(), 0u) << "chaos plan never fired — test has no teeth";
  return storage::write_columnar(sink_ptr->table());
}

// The non-negotiable: recorder on vs off is invisible in committed sink
// bytes at every worker count, under chaos.
TEST(FlightGoldenRunTest, RecorderOnOffByteIdenticalAtOneFourSixteenWorkers) {
  const auto reference = run_chaos(1, /*flight_capacity=*/0);
  ASSERT_GT(reference.size(), 0u);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    EXPECT_EQ(run_chaos(workers, /*flight_capacity=*/0), reference)
        << "recorder OFF at " << workers << " workers diverged";
    EXPECT_EQ(run_chaos(workers, /*flight_capacity=*/4096), reference)
        << "recorder ON at " << workers << " workers diverged";
  }
}

// e2e latency is virtual-time based and must be worker-count invariant:
// identical histogram sum and count at 1 and 4 workers (distinct query
// names keep the process-global registry series apart).
TEST(FlightGoldenRunTest, E2eLatencyHistogramWorkerCountInvariant) {
  run_chaos(1, 4096, "flight.e2e.w1");
  run_chaos(4, 4096, "flight.e2e.w4");

  const observe::MetricValue* w1 = nullptr;
  const observe::MetricValue* w4 = nullptr;
  const auto snap = observe::default_registry().snapshot();
  for (const auto& m : snap) {
    if (m.name != "stream.e2e_latency") continue;
    for (const auto& [k, v] : m.labels) {
      if (k != "query") continue;
      if (v == "flight.e2e.w1") w1 = &m;
      if (v == "flight.e2e.w4") w4 = &m;
    }
  }
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w4, nullptr);
  EXPECT_GT(w1->count, 0u);
  EXPECT_EQ(w1->count, w4->count);
  EXPECT_DOUBLE_EQ(w1->value, w4->value);  // histogram sum
}

TEST(FlightEngineTest, DumpShowsPhasesFaultsAndProfile) {
  stream::Broker broker;
  auto& topic = broker.create_topic("sensors", stream::TopicConfig{}.with_partitions(kPartitions));
  fill_topic(topic);

  chaos::FaultPlan plan(0xf11657);
  configure_plan(plan);
  chaos::ScopedFaultPlan scoped_plan(plan);

  Engine engine(EngineConfig{}
                    .with_workers(4)
                    .with_ownership(OwnershipConfig{}.with_partitions(kPartitions)));
  ASSERT_NE(engine.flight(), nullptr);  // on by default
  chaos::RetryPolicy retry;
  retry.max_attempts = 50;
  auto& q = engine.add_query(pipeline::QueryConfig{}
                                 .with_name("flight.dump")
                                 .with_batch_size(1000)
                                 .with_max_retries(0),
                             SourceSpec{&broker, "sensors", "dump-group", decode, retry});
  q.add_operator(window_agg_factory());
  q.add_sink(std::make_unique<pipeline::TableSink>());
  engine.run_until_caught_up();

  // The chaos faults surfaced as query errors, so the latch is up.
  ASSERT_GT(plan.total_faults(), 0u);
  EXPECT_TRUE(engine.flight_dump_requested());

  const observe::FlightDump d = engine.dump_flight();
  EXPECT_EQ(d.trigger.rfind("query.error:", 0), 0u);
  ASSERT_EQ(d.ring_names.size(), 5u);  // driver + 4 workers
  EXPECT_EQ(d.ring_names[0], "driver");
  EXPECT_EQ(d.ring_names[1], "w0");
  ASSERT_FALSE(d.events.empty());

  // Every engine phase appears, faults land somewhere, the timeline is
  // ordered, and worker rings carry worker phases.
  bool phase_seen[observe::kFlightPhases] = {};
  std::size_t faults = 0;
  std::uint64_t prev_wall = 0;
  bool worker_ring_active = false;
  for (const FlightEvent& e : d.events) {
    EXPECT_GE(e.wall_ns, prev_wall);
    prev_wall = e.wall_ns;
    if (e.type == FlightEventType::kPhaseBegin || e.type == FlightEventType::kPhaseEnd) {
      phase_seen[static_cast<std::size_t>(e.phase)] = true;
      if (e.ring >= 1 && e.phase != FlightPhase::kBarrier) worker_ring_active = true;
    }
    faults += e.type == FlightEventType::kFault ? 1 : 0;
  }
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kFetch)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kDecode)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kOperate)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kBarrier)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kMerge)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(FlightPhase::kCommit)]);
  EXPECT_GT(faults, 0u);
  EXPECT_TRUE(worker_ring_active);

  // Phase profiler: time is attributed and shares sum to ~100%.
  const PhaseProfile p = q.phase_profile();
  EXPECT_GT(p.accounted_s(), 0.0);
  EXPECT_GT(p.fetch_s + p.decode_s + p.operate_s, 0.0);
  const double pct_sum = p.pct(p.fetch_s) + p.pct(p.decode_s) + p.pct(p.operate_s) +
                         p.pct(p.barrier_s) + p.pct(p.merge_s) + p.pct(p.commit_s);
  EXPECT_NEAR(pct_sum, 100.0, 1e-6);

  // Exporters: strict JSON both ways; Chrome trace carries per-ring tid
  // rows and instant events for the faults.
  const std::string js = observe::flight_to_json(d);
  std::string err;
  EXPECT_TRUE(testing::json_valid(js, &err)) << err;
  EXPECT_NE(js.find("\"trigger\":\"query.error:flight.dump\""), std::string::npos);

  const std::string chrome = observe::flight_to_chrome_json(d);
  EXPECT_TRUE(testing::json_valid(chrome, &err)) << err;
  EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":4"), std::string::npos);  // worker 3's row

  // The monitor's parser reads back what the exporter wrote.
  const observe::FlightDump back = apps::parse_flight_json(js);
  EXPECT_EQ(back.trigger, d.trigger);
  EXPECT_EQ(back.ring_names, d.ring_names);
  ASSERT_EQ(back.events.size(), d.events.size());
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    EXPECT_EQ(back.events[i].ring, d.events[i].ring);
    EXPECT_EQ(back.events[i].seq, d.events[i].seq);
    EXPECT_EQ(back.events[i].type, d.events[i].type);
    EXPECT_EQ(back.events[i].phase, d.events[i].phase);
    EXPECT_EQ(back.events[i].arg, d.events[i].arg);
    EXPECT_EQ(apps::render_flight(back).empty(), false);
  }
  const std::string view = apps::render_flight(back);
  EXPECT_NE(view.find("phase timeline"), std::string::npos);
  EXPECT_NE(view.find("driver"), std::string::npos);

  // phase-share gauges were republished on commit.
  bool saw_pct = false;
  for (const auto& m : observe::default_registry().snapshot()) {
    if (m.name.rfind("engine.phase.", 0) == 0 && m.value > 0.0) saw_pct = true;
  }
  EXPECT_TRUE(saw_pct);
}

TEST(FlightEngineTest, FlightOffEngineStillRunsAndDumpIsEmpty) {
  stream::Broker broker;
  auto& topic = broker.create_topic("sensors", stream::TopicConfig{}.with_partitions(4));
  fill_topic(topic);
  Engine engine(EngineConfig{}.with_workers(2).with_flight(0));
  EXPECT_EQ(engine.flight(), nullptr);
  EXPECT_FALSE(engine.flight_dump_requested());
  auto& q = engine.add_query(
      pipeline::QueryConfig{}.with_name("flight.off").with_batch_size(1000),
      SourceSpec{&broker, "sensors", "off-group", decode});
  q.add_sink(std::make_unique<pipeline::TableSink>());
  engine.run_until_caught_up();
  EXPECT_EQ(q.metrics().rows_ingested, kRecords);
  const observe::FlightDump d = engine.dump_flight();
  EXPECT_TRUE(d.events.empty());
}

}  // namespace
}  // namespace oda::engine
