// Micro-benchmarks (google-benchmark) of the framework's hot paths:
// broker staged produce and consume, window aggregation, pivot, join,
// and columnar encode/decode. These are the primitives every
// figure-level result is built from. A custom main additionally sweeps
// the engine's 1/2/4/8/16-worker ingest scaling curve, interleaved
// (1-worker, 4-worker) drain pairs and the flight recorder's overhead
// into BENCH_micro_engine.json. The broker's
// produce and consume rates and allocations per record are
// bench_fig4a_ingest_rate's to report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "engine/engine.hpp"
#include "pipeline/query.hpp"
#include "pipeline/source_sink.hpp"
#include "sql/agg.hpp"
#include "sql/ops.hpp"
#include "storage/codecs.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"
#include "telemetry/simulator.hpp"

namespace {

using namespace oda;

/// Shared fixture data, generated once.
const sql::Table& bronze_sample() {
  static const sql::Table table = [] {
    stream::Broker scratch;
    telemetry::SimulatorConfig cfg;
    cfg.scheduler.arrival_rate_per_hour = 240.0;
    telemetry::FacilitySimulator sim(telemetry::compass_spec(0.005), scratch, cfg);
    return sim.sample_bronze(0, 2 * common::kMinute);
  }();
  return table;
}

void BM_ProduceStaged(benchmark::State& state) {
  // The zero-copy write path: encode key+payload straight into the
  // producer's staging arena, flush every batch_size records with one
  // group-committed append per touched partition. The timed region
  // includes the encoding — this is the full producer-side cost.
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  stream::Broker broker;
  broker.create_topic("t", {8, 64 << 20, {}});
  stream::Producer producer = broker.producer("t");
  stream::BatchBuilder staging;
  const std::string payload(256, 'x');
  std::int64_t i = 0;
  for (auto _ : state) {
    common::ByteWriter& w = staging.begin_record(i);
    w.raw("n", 1);
    w.text_u64(static_cast<std::uint64_t>(i % 512));
    staging.begin_payload();
    w.raw(payload.data(), payload.size());
    staging.end_record();
    if (staging.pending() >= batch_size) {
      benchmark::DoNotOptimize(producer.produce_staged(staging));
    }
    ++i;
  }
  producer.produce_staged(staging);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProduceStaged)->Arg(64)->Arg(512)->Arg(4096);

/// Pre-fill a topic with 100k keyed 256-byte records, 1024 per flush.
void fill_consume_topic(stream::Broker& broker) {
  broker.create_topic("t", {8, 4 << 20, {}});
  stream::Producer producer = broker.producer("t");
  stream::BatchBuilder staged;
  const std::string payload(256, 'x');
  for (int i = 0; i < 100000; ++i) {
    staged.add(i, "n" + std::to_string(i % 512), payload);
    if (staged.pending() >= 1024) producer.produce_staged(staged);
  }
  producer.produce_staged(staged);
}

void BM_BrokerConsumeView(benchmark::State& state) {
  // Drain the pre-filled topic through the zero-copy poll(): string_views
  // pinned to the immutable segments, a fresh single-member group per
  // iteration.
  stream::Broker broker;
  fill_consume_topic(broker);
  for (auto _ : state) {
    stream::GroupMember c(broker, "gv" + std::to_string(state.iterations()), "t");
    std::size_t total = 0;
    while (total < 100000) {
      const stream::FetchView batch = c.poll(1024);  // 8192 a poll over 8 partitions
      if (batch.empty()) break;
      total += batch.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_BrokerConsumeView);

void BM_WindowAggregate(benchmark::State& state) {
  const auto& bronze = bronze_sample();
  const std::vector<std::string> keys{"node_id", "sensor"};
  const std::vector<sql::AggSpec> aggs{{"value", sql::AggKind::kMean, "mean_value"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sql::window_aggregate(bronze, "time", 15 * common::kSecond, keys, aggs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bronze.num_rows()));
}
BENCHMARK(BM_WindowAggregate);

void BM_PivotWider(benchmark::State& state) {
  const auto& bronze = bronze_sample();
  const std::vector<std::string> keys{"node_id", "sensor"};
  const std::vector<sql::AggSpec> aggs{{"value", sql::AggKind::kMean, "mean_value"}};
  const sql::Table silver =
      sql::window_aggregate(bronze, "time", 15 * common::kSecond, keys, aggs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sql::pivot_wider(silver, {"window_start", "node_id"}, "sensor", "mean_value"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(silver.num_rows()));
}
BENCHMARK(BM_PivotWider);

void BM_HashJoin(benchmark::State& state) {
  const auto& bronze = bronze_sample();
  // Right side: one row per node.
  sql::Table nodes{sql::Schema{{"node_id", sql::DataType::kInt64},
                               {"cabinet", sql::DataType::kInt64}}};
  for (std::int64_t n = 0; n < 128; ++n) nodes.append_row({sql::Value(n), sql::Value(n / 64)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::hash_join(bronze, nodes, {"node_id"}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bronze.num_rows()));
}
BENCHMARK(BM_HashJoin);

void BM_ColumnarWrite(benchmark::State& state) {
  const auto& bronze = bronze_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::write_columnar(bronze));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bronze.num_rows()));
}
BENCHMARK(BM_ColumnarWrite);

void BM_ColumnarRead(benchmark::State& state) {
  const auto blob = storage::write_columnar(bronze_sample());
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::read_columnar(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_ColumnarRead);

void BM_ColumnarReadProjected(benchmark::State& state) {
  const auto blob = storage::write_columnar(bronze_sample());
  storage::ReadOptions opts;
  opts.columns = {"time", "value"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::read_columnar(blob, opts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_ColumnarReadProjected);

void BM_LzCompress(benchmark::State& state) {
  std::vector<std::uint8_t> data;
  common::Rng rng(5);
  for (int i = 0; i < 1 << 18; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng.bernoulli(0.7) ? 'A' + (i % 7) : rng.next() & 0xff));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::lz_compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LzCompress);

/// Fill a topic with n keyless records (64–255-byte payloads, spread by
/// the round-robin cursor), 1024 per flush.
void fill_keyless(stream::Producer& producer, std::size_t n) {
  stream::BatchBuilder staged;
  const std::string payload(255, 'x');
  for (std::size_t i = 0; i < n; ++i) {
    staged.add(static_cast<std::int64_t>(i), "", std::string_view(payload).substr(0, 64 + i % 192));
    if (staged.pending() >= 1024) producer.produce_staged(staged);
  }
  producer.produce_staged(staged);
}

/// Drain a freshly filled 16-partition topic of `records` records through
/// one query with `workers` workers under partition ownership.
engine::EngineStats drain_fresh_topic(std::size_t workers, std::size_t records,
                                      engine::PhaseProfile* prof) {
  constexpr std::size_t kPartitions = 16;
  const auto decode = [](std::span<const stream::RecordView> views) {
    sql::Table t{sql::Schema{{"time", sql::DataType::kInt64},
                             {"value", sql::DataType::kFloat64}}};
    for (const auto& v : views) {
      t.append_row({sql::Value(v.timestamp),
                    sql::Value(static_cast<double>(v.payload.size()))});
    }
    return t;
  };
  stream::Broker broker;
  broker.create_topic("curve", stream::TopicConfig{}.with_partitions(kPartitions));
  stream::Producer producer = broker.producer("curve");
  fill_keyless(producer, records);

  engine::Engine eng(engine::EngineConfig{}
                         .with_workers(workers)
                         .with_ownership(engine::OwnershipConfig{}.with_partitions(kPartitions)));
  auto& q = eng.add_query(pipeline::QueryConfig{}.with_name("curve.q").with_batch_size(16384),
                          engine::SourceSpec{&broker, "curve", "curve-group", decode});
  q.add_sink(std::make_unique<pipeline::TableSink>());
  eng.run_until_caught_up();
  if (prof) *prof = q.phase_profile();
  return eng.stats();
}

double drain_rate(const engine::EngineStats& stats) {
  return static_cast<double>(stats.rows) / stats.wall_seconds;
}

/// Engine scaling curve: drain the same topic through the same query at
/// 1/2/4/8/16 workers under partition ownership. Rates, speedups, and
/// scaling efficiency ((rate_N / N) / rate_1) land in
/// BENCH_micro_engine.json so CI can diff the curve across commits; on a
/// single-core host the curve is flat. Returns the 4-worker speedup so
/// main() can gate on it where the hardware can express parallelism.
double engine_scaling_curve(bench::JsonReport& report, bool smoke) {
  const std::size_t kRecords = smoke ? 50000 : 100000;
  std::printf("\nengine ingest scaling (%zu records, 16 partitions):\n", kRecords);
  // Warmup: the process's first multi-threaded drain runs slow (fresh
  // allocator arenas and registry cells), and the 4-worker gate below
  // must time the engine, not that.
  (void)drain_fresh_topic(4, kRecords, nullptr);
  double base_rate = 0.0;
  double speedup_4 = 0.0;
  for (const std::size_t workers : {1, 2, 4, 8, 16}) {
    engine::PhaseProfile prof;
    const double rate = drain_rate(drain_fresh_topic(workers, kRecords, &prof));
    if (workers == 1) base_rate = rate;
    const double speedup = rate / base_rate;
    const double efficiency = speedup / static_cast<double>(workers);
    if (workers == 4) speedup_4 = speedup;
    std::printf("  workers=%2zu  %9.0fk rec/s  speedup %.2fx  efficiency %.2f\n", workers,
                rate / 1e3, speedup, efficiency);
    const std::string suffix = "workers_" + std::to_string(workers);
    report.metric("engine.ingest.rate." + suffix, rate, "records/s");
    report.metric("engine.ingest.speedup." + suffix, speedup, "x");
    report.metric("engine.scaling_efficiency." + suffix, efficiency, "ratio");

    // Where the wall time went: the flight profiler's per-phase shares.
    // This is the column that explains a flat scaling curve — barrier%
    // rising with workers is stall, merge%/commit% are the serial floor.
    report.metric("engine.phase.fetch_pct." + suffix, prof.pct(prof.fetch_s), "%");
    report.metric("engine.phase.decode_pct." + suffix, prof.pct(prof.decode_s), "%");
    report.metric("engine.phase.operate_pct." + suffix, prof.pct(prof.operate_s), "%");
    report.metric("engine.phase.barrier_pct." + suffix, prof.pct(prof.barrier_s), "%");
    report.metric("engine.phase.merge_pct." + suffix, prof.pct(prof.merge_s), "%");
    report.metric("engine.phase.commit_pct." + suffix, prof.pct(prof.commit_s), "%");
    std::printf("              phase%%: fetch %.1f decode %.1f operate %.1f "
                "barrier %.1f merge %.1f commit %.1f\n",
                prof.pct(prof.fetch_s), prof.pct(prof.decode_s), prof.pct(prof.operate_s),
                prof.pct(prof.barrier_s), prof.pct(prof.merge_s), prof.pct(prof.commit_s));
  }
  return speedup_4;
}

/// The 4-worker speedup measured without the curve's cold baseline: the
/// curve's 1-worker drain is the process's first to decode every record
/// on one thread, and runs slower than later 1-worker drains. Here
/// kTrials (1-worker, 4-worker) drain pairs run after the curve,
/// alternating which side goes first, so a slow stretch of the host hits
/// both sides of a pair. Min, median and max of the per-pair speedups
/// land in the JSON; nothing gates them yet (ROADMAP item 1).
void engine_scaling_trials(bench::JsonReport& report, bool smoke) {
  constexpr int kTrials = 5;
  const std::size_t kRecords = smoke ? 50000 : 100000;
  std::vector<double> speedups;
  for (int i = 0; i < kTrials; ++i) {
    double rate_1 = 0.0;
    double rate_4 = 0.0;
    if (i % 2 == 0) {
      rate_1 = drain_rate(drain_fresh_topic(1, kRecords, nullptr));
      rate_4 = drain_rate(drain_fresh_topic(4, kRecords, nullptr));
    } else {
      rate_4 = drain_rate(drain_fresh_topic(4, kRecords, nullptr));
      rate_1 = drain_rate(drain_fresh_topic(1, kRecords, nullptr));
    }
    speedups.push_back(rate_4 / rate_1);
  }
  const bench::Spread s(speedups);
  std::printf("interleaved (1-worker, 4-worker) drain pairs x%d: 4-worker speedup median %.2fx "
              "(min %.2fx, max %.2fx)\n",
              kTrials, s.median, s.min, s.max);
  report.spread("engine.ingest.speedup.workers_4.interleaved", s, "x");
}

/// Flight-recorder cost: the same single-worker drain with the recorder
/// off (capacity 0) and on (default capacity, which also turns every
/// trace span into a begin/end event pair), in kRounds paired samples.
/// The topic is produced once and every drain reads it through a fresh
/// consumer group. One round times kDrains drains per side, interleaved
/// drain by drain and alternating which side goes first, so drift over
/// the round (the host's clock, its neighbours) hits both sides alike
/// and one round's delta stays within a few percent. The overhead is the
/// MEDIAN of the per-round deltas (negative = noise in the recorder's
/// favor): a real hot-path cost slows the recorder-on side of most
/// rounds, and neither the cleanest nor the worst round decides alone.
/// Min, median and max land in the JSON; main() gates the median at 5%.
double flight_overhead_profile(bench::JsonReport& report, bool smoke) {
  constexpr std::size_t kPartitions = 8;
  constexpr int kRounds = 9;
  constexpr int kDrains = 32;
  const std::size_t kRecords = smoke ? 200000 : 400000;

  const auto decode = [](std::span<const stream::RecordView> records) {
    sql::Table t{sql::Schema{{"time", sql::DataType::kInt64},
                             {"value", sql::DataType::kFloat64}}};
    for (const auto& v : records) {
      t.append_row({sql::Value(v.timestamp),
                    sql::Value(static_cast<double>(v.payload.size()))});
    }
    return t;
  };

  stream::Broker broker;
  broker.create_topic("fl", stream::TopicConfig{}.with_partitions(kPartitions));
  stream::Producer producer = broker.producer("fl");
  fill_keyless(producer, kRecords);

  struct Totals {
    double rows = 0.0;
    double seconds = 0.0;
    double rate() const { return rows / seconds; }
  };
  int group = 0;
  auto drain = [&](std::size_t flight_capacity, Totals& into) {
    engine::Engine eng(engine::EngineConfig{}
                           .with_workers(1)
                           .with_flight(flight_capacity)
                           .with_ownership(engine::OwnershipConfig{}.with_partitions(kPartitions)));
    auto& q = eng.add_query(
        pipeline::QueryConfig{}.with_name("flight.q").with_batch_size(16384),
        engine::SourceSpec{&broker, "fl", "fl-group-" + std::to_string(group++), decode});
    q.add_sink(std::make_unique<pipeline::TableSink>());
    eng.run_until_caught_up();
    into.rows += static_cast<double>(eng.stats().rows);
    into.seconds += eng.stats().wall_seconds;
  };

  Totals warmup;  // registry cells, allocator
  drain(0, warmup);
  drain(4096, warmup);
  std::vector<double> off_rates;
  std::vector<double> on_rates;
  std::vector<double> deltas_pct;
  for (int i = 0; i < kRounds; ++i) {
    Totals off;
    Totals on;
    for (int d = 0; d < kDrains; ++d) {
      if ((i + d) % 2 == 0) {
        drain(0, off);
        drain(4096, on);
      } else {
        drain(4096, on);
        drain(0, off);
      }
    }
    off_rates.push_back(off.rate());
    on_rates.push_back(on.rate());
    deltas_pct.push_back((off.rate() - on.rate()) / off.rate() * 100.0);
  }
  const bench::Spread overhead(deltas_pct);
  const double off_rate = bench::Spread(off_rates).median;
  const double on_rate = bench::Spread(on_rates).median;
  std::printf("\nflight recorder overhead (%d rounds of %d x %zu records per side, 1 worker): "
              "off %.0fk rec/s, on %.0fk rec/s, overhead median %.2f%% (min %.2f%%, max %.2f%%)\n",
              kRounds, kDrains, kRecords, off_rate / 1e3, on_rate / 1e3, overhead.median,
              overhead.min, overhead.max);
  report.metric("flight.off.rate", off_rate, "records/s");
  report.metric("flight.on.rate", on_rate, "records/s");
  report.spread("flight.overhead.ingest_pct", overhead, "%");
  return overhead.median;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke (stripped before google-benchmark sees argv): skip the
  // microbenchmark suite and run only the JSON-reported sections at
  // reduced size — the seconds-scale slice the perf ctest tier runs.
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  oda::bench::JsonReport report("micro_engine");
  const double speedup_4 = engine_scaling_curve(report, smoke);
  engine_scaling_trials(report, smoke);
  const double flight_overhead = flight_overhead_profile(report, smoke);
  report.write();

  // Hard gate: profiling-on ingest must stay within 5% of profiling-off
  // (the recorder is a handful of atomic stores per phase and span, not
  // per record — measurable overhead means the hot path regressed).
  if (flight_overhead > 5.0) {
    std::fprintf(stderr, "FAIL: flight recorder ingest overhead %.2f%% > 5%% gate\n",
                 flight_overhead);
    return 1;
  }
  std::printf("flight overhead gate: %.2f%% <= 5%%\n", flight_overhead);

  // Hard gate: the shared-nothing engine must show real scaling where the
  // hardware can express it. On narrow hosts (CI containers pinned to 1-2
  // cores) the curve is flat by construction, so the gate only arms when
  // at least 4 hardware threads are available.
  if (std::thread::hardware_concurrency() >= 4) {
    if (speedup_4 < 1.5) {
      std::fprintf(stderr,
                   "FAIL: 4-worker engine scaling %.2fx < 1.50x gate "
                   "(hardware_concurrency=%u)\n",
                   speedup_4, std::thread::hardware_concurrency());
      return 1;
    }
    std::printf("engine scaling gate: 4-worker speedup %.2fx >= 1.50x\n", speedup_4);
  } else {
    std::printf("engine scaling gate: skipped (hardware_concurrency=%u < 4)\n",
                std::thread::hardware_concurrency());
  }
  return 0;
}
