// End-to-end integration tests of OdaFramework: telemetry → broker →
// Bronze→Silver pipeline → LAKE/OCEAN → Gold extraction, and the one
// flight timeline that run records.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/framework.hpp"
#include "observe/export.hpp"
#include "observe/flight.hpp"
#include "storage/columnar.hpp"
#include "storage/tiers.hpp"
#include "telemetry/spec.hpp"

namespace oda {
namespace {

using common::kMinute;
using common::kSecond;

class FrameworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = telemetry::mountain_spec(0.004);  // 1 cabinet = 18 nodes
    telemetry::SimulatorConfig cfg;
    cfg.scheduler.arrival_rate_per_hour = 120.0;
    cfg.scheduler.mean_duration_hours = 0.2;
    sys_ = &fw_.add_system(spec, cfg);
    fw_.register_query(fw_.make_bronze_to_silver_power("Mountain"));
    fw_.register_query(fw_.make_silver_to_lake("Mountain", "node.power_w", "node_power_w"));
    fw_.register_query(fw_.make_silver_to_lake("Mountain", "gpu0.temp_c", "gpu0_temp_c"));
  }

  core::OdaFramework fw_;
  telemetry::FacilitySimulator* sys_ = nullptr;
};

TEST_F(FrameworkTest, AdvanceProducesBronzeIntoBroker) {
  fw_.advance(2 * kMinute);
  const auto stats = fw_.broker().topic(sys_->topics().power).stats();
  EXPECT_GT(stats.produced_records, 0u);
  EXPECT_GT(stats.produced_bytes, 0u);
}

TEST_F(FrameworkTest, SilverPipelinePopulatesLake) {
  fw_.advance(5 * kMinute);
  EXPECT_GT(fw_.lake().point_count(), 0u);
  const auto latest = fw_.lake().latest("node_power_w");
  // All 18 nodes should have a power series.
  EXPECT_EQ(latest.num_rows(), sys_->spec().total_nodes());
}

TEST_F(FrameworkTest, LakeValuesArePhysical) {
  fw_.advance(5 * kMinute);
  const auto latest = fw_.lake().latest("node_power_w");
  for (std::size_t r = 0; r < latest.num_rows(); ++r) {
    const double w = latest.column("value").double_at(r);
    EXPECT_GT(w, 100.0);   // above overhead floor
    EXPECT_LT(w, 6000.0);  // below node max
  }
}

TEST_F(FrameworkTest, SilverStreamTopicCarriesBatches) {
  fw_.advance(3 * kMinute);
  const auto stats = fw_.broker().topic("silver.power.Mountain").stats();
  EXPECT_GT(stats.produced_records, 0u);
}

TEST_F(FrameworkTest, PipelineStageMetricsPopulated) {
  fw_.advance(3 * kMinute);
  const auto& q = *fw_.queries().front();
  ASSERT_FALSE(q.metrics().stages.empty());
  EXPECT_GT(q.metrics().batches, 0u);
  EXPECT_GT(q.metrics().stages[0].rows_in, 0u);
  EXPECT_GT(q.metrics().stages[0].rows_out, 0u);
}

TEST_F(FrameworkTest, ExtractJobProfilesFindsFinishedJobs) {
  fw_.advance(30 * kMinute);
  const auto profiles = fw_.extract_job_profiles("Mountain", 4);
  EXPECT_GT(profiles.size(), 0u);
  for (const auto& p : profiles) {
    EXPECT_GE(p.power_w.size(), 4u);
    EXPECT_LT(p.true_archetype, telemetry::kNumArchetypes);
    for (double w : p.power_w) EXPECT_GT(w, 0.0);
  }
}

TEST_F(FrameworkTest, MaxProjectionTracksHottestGpu) {
  fw_.register_query(fw_.make_silver_to_lake_max("Mountain", "gpu", ".temp_c", "gpu_max_temp_c"));
  fw_.advance(5 * kMinute);
  const auto latest = fw_.lake().latest("gpu_max_temp_c");
  ASSERT_EQ(latest.num_rows(), sys_->spec().total_nodes());
  // Max across GPUs >= the single-GPU projection for the same node.
  const auto gpu0 = fw_.lake().latest("gpu0_temp_c");
  ASSERT_EQ(gpu0.num_rows(), latest.num_rows());
  for (std::size_t r = 0; r < latest.num_rows(); ++r) {
    EXPECT_GE(latest.column("value").double_at(r) + 1.0, gpu0.column("value").double_at(r));
  }
}

TEST_F(FrameworkTest, SystemLookupByName) {
  EXPECT_EQ(&fw_.system("Mountain"), sys_);
  EXPECT_THROW(fw_.system("nope"), std::out_of_range);
  EXPECT_EQ(fw_.system_names(), std::vector<std::string>{"Mountain"});
}

// Pipeline-written OCEAN objects carry the facility time of their put, so
// an age sweep moves only objects older than ocean_age to GLACIER, however
// long the facility has been running.
TEST(FrameworkTierTest, OceanSweepKeepsObjectsYoungerThanOceanAge) {
  core::FrameworkConfig cfg;
  cfg.retention.ocean_age = 15 * kMinute;
  cfg.retention_sweep_period = 365 * common::kDay;  // swept once, below
  core::OdaFramework fw(cfg);
  fw.add_system(telemetry::compass_spec(0.01), telemetry::SimulatorConfig{});
  fw.register_query(fw.make_bronze_to_silver_power("Compass"));
  fw.register_query(fw.make_bronze_archiver("Compass"));

  fw.advance(5 * kMinute);
  std::set<std::string> early;
  for (const auto& meta : fw.ocean().list()) early.insert(meta.key);
  fw.advance(15 * kMinute);
  std::vector<std::string> recent;  // put within the last 15 facility-minutes
  for (const auto& meta : fw.ocean().list()) {
    if (early.count(meta.key) == 0) recent.push_back(meta.key);
  }
  ASSERT_FALSE(recent.empty());

  const auto out = fw.tiers().enforce(fw.now());
  EXPECT_GT(out.ocean_objects_migrated, 0u);  // objects from the first minutes aged out
  for (const auto& key : recent) EXPECT_TRUE(fw.ocean().exists(key)) << key;
  for (const auto& meta : fw.ocean().list()) {
    EXPECT_GE(meta.created, fw.now() - cfg.retention.ocean_age) << meta.key;
  }
}


// ---- golden contents --------------------------------------------------------
// The paper's real-time path at a fixed seed: compass_spec(0.02) with the
// six canonical pipelines and self-telemetry, 40 fifteen-second steps,
// then end of stream. LAKE points must match exactly (time and value
// bits, per metric). OCEAN Bronze and Silver rows must match as
// multisets: how rows split into objects and their order inside one
// follows batch boundaries, the rows themselves may not change. The
// constants were recorded from the single-threaded executor this path
// ran on before it moved onto engine::Query.

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename T>
std::uint64_t hash_bits(T v, std::uint64_t h) {
  std::uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  return common::fnv1a(std::span<const std::uint8_t>(bytes, sizeof(T)), h);
}

/// Hash of one row: every cell's type and exact bits, in column order.
std::uint64_t row_hash(const sql::Table& t, std::size_t r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const sql::Column& col = t.column(c);
    h = common::fnv1a(t.schema().field(c).name, h);
    if (col.is_null(r)) {
      h = hash_bits<std::uint8_t>(0xff, h);
      continue;
    }
    switch (col.type()) {
      case sql::DataType::kInt64: h = hash_bits(col.int_at(r), h); break;
      case sql::DataType::kFloat64: h = hash_bits(col.double_at(r), h); break;
      case sql::DataType::kString: h = hash_bits(col.str_at(r).size(), common::fnv1a(col.str_at(r), h)); break;
      case sql::DataType::kBool: h = hash_bits<std::uint8_t>(col.bool_at(r) ? 1 : 0, h); break;
      default: break;
    }
  }
  return h;
}

/// Every point of one LAKE metric, in series-key then time order.
std::uint64_t lake_digest(const storage::TimeSeriesDb& lake, const std::string& metric,
                          std::size_t* points) {
  storage::TsQuery q;
  q.metric = metric;
  q.t0 = INT64_MIN;
  const sql::Table t = lake.query(q);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t r = 0; r < t.num_rows(); ++r) h = hash_bits(row_hash(t, r), h);
  *points = t.num_rows();
  return h;
}

struct OceanDigest {
  std::size_t objects = 0;
  std::uint64_t rows = 0;
  std::uint64_t digest = 0;  ///< order-insensitive: sum of mixed row hashes
};

OceanDigest ocean_digest(const storage::ObjectStore& ocean, const std::string& dataset) {
  OceanDigest d;
  for (const auto& meta : ocean.list(dataset + "/")) {
    const sql::Table t = storage::read_columnar(*ocean.get(meta.key));
    ++d.objects;
    d.rows += t.num_rows();
    for (std::size_t r = 0; r < t.num_rows(); ++r) d.digest += mix64(row_hash(t, r));
  }
  return d;
}

TEST(FrameworkGoldenTest, LiveRigContentsMatchRecordedDigests) {
  core::FrameworkConfig fc;
  fc.retention.stream_age = 10 * kMinute;
  fc.retention_sweep_period = 5 * kMinute;
  core::OdaFramework fw(fc);
  telemetry::SimulatorConfig sc;
  sc.seed = 11;
  sc.scheduler.arrival_rate_per_hour = 240.0;
  sc.scheduler.mean_duration_hours = 0.25;
  const std::string sys = fw.add_system(telemetry::compass_spec(0.02), sc).spec().name;
  fw.register_query(fw.make_bronze_to_silver_power(sys));
  fw.register_query(fw.make_silver_to_lake(sys, "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max(sys, "gpu", ".temp_c", "gpu_temp_max_c"));
  fw.register_query(fw.make_bronze_archiver(sys));
  fw.register_query(fw.make_ost_to_lake(sys));
  fw.register_query(fw.make_fabric_to_lake(sys));
  fw.enable_self_telemetry();
  for (int step = 0; step < 40; ++step) fw.advance(15 * kSecond);
  for (const auto& q : fw.queries()) q->finalize();

  struct LakeGolden {
    const char* metric;
    std::size_t points;
    std::uint64_t digest;
  };
  const LakeGolden lake[] = {
      {"node_power_w", 4096, 0x18706dc4a60e1de8ull},
      {"gpu_temp_max_c", 4096, 0x6c6ff6ba24beec8bull},
      {"ost_latency_ms", 960, 0x1c3b7ce4b196f4a7ull},
      {"switch_stall_pct", 480, 0xaf25fec9de69fc4aull},
  };
  for (const LakeGolden& g : lake) {
    std::size_t points = 0;
    const std::uint64_t digest = lake_digest(fw.lake(), g.metric, &points);
    EXPECT_EQ(points, g.points) << g.metric;
    EXPECT_EQ(digest, g.digest) << g.metric << " digest 0x" << std::hex << digest;
  }

  const OceanDigest bronze = ocean_digest(fw.ocean(), "bronze/power/" + sys);
  EXPECT_EQ(bronze.objects, 19u);
  EXPECT_EQ(bronze.rows, 1841343u);
  EXPECT_EQ(bronze.digest, 0xb8c8597cadae7c7bull) << "bronze digest 0x" << std::hex << bronze.digest;
  const OceanDigest silver = ocean_digest(fw.ocean(), "silver/power/" + sys);
  EXPECT_EQ(silver.objects, 2u);
  EXPECT_EQ(silver.rows, 125948u);
  EXPECT_EQ(silver.digest, 0x70299e972b8e65ffull) << "silver digest 0x" << std::hex << silver.digest;
}


// ---- one timeline -----------------------------------------------------------
// The paper's real path records a flight timeline: advance() runs every
// registered query on the framework's engine, whose recorder is the
// installed one. The dump is read back through its JSON export, one
// event object per line.

struct DumpEvent {
  std::string type;
  std::string phase;
  std::string label;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t arg = 0;
};

std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t from = at + needle.size();
  if (line[from] == '"') {
    ++from;
    return line.substr(from, line.find('"', from) - from);
  }
  return line.substr(from, line.find_first_of(",}", from) - from);
}

std::vector<DumpEvent> dump_events(const std::string& json) {
  std::vector<DumpEvent> out;
  for (std::size_t pos = 0; (pos = json.find("\n{\"ring\":", pos)) != std::string::npos; ++pos) {
    const std::string line = json.substr(pos + 1, json.find('\n', pos + 1) - pos - 1);
    DumpEvent e;
    e.type = json_field(line, "type");
    e.phase = json_field(line, "phase");
    e.label = json_field(line, "label");
    e.span = std::strtoull(json_field(line, "span").c_str(), nullptr, 10);
    e.parent = std::strtoull(json_field(line, "parent").c_str(), nullptr, 10);
    e.arg = std::strtoull(json_field(line, "arg").c_str(), nullptr, 10);
    out.push_back(e);
  }
  return out;
}

/// The live rig at seed 11: six pipelines plus self-telemetry, with a
/// retention sweep every minute (three sweeps in twelve steps).
core::FrameworkConfig timeline_rig_config() {
  core::FrameworkConfig fc;
  fc.retention.stream_age = 10 * kMinute;
  fc.retention_sweep_period = kMinute;
  return fc;
}

constexpr int kTimelineSteps = 12;

/// Registers the rig's queries on `fw` and runs its steps; returns the
/// system name.
std::string run_timeline_rig(core::OdaFramework& fw) {
  telemetry::SimulatorConfig sc;
  sc.seed = 11;
  sc.scheduler.arrival_rate_per_hour = 240.0;
  sc.scheduler.mean_duration_hours = 0.25;
  const std::string sys = fw.add_system(telemetry::compass_spec(0.02), sc).spec().name;
  fw.register_query(fw.make_bronze_to_silver_power(sys));
  fw.register_query(fw.make_silver_to_lake(sys, "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max(sys, "gpu", ".temp_c", "gpu_temp_max_c"));
  fw.register_query(fw.make_bronze_archiver(sys));
  fw.register_query(fw.make_ost_to_lake(sys));
  fw.register_query(fw.make_fabric_to_lake(sys));
  fw.enable_self_telemetry();
  // Twelve steps: Silver windows close once the watermark, two minutes of
  // allowed lateness behind, passes them.
  for (int step = 0; step < kTimelineSteps; ++step) fw.advance(15 * kSecond);
  return sys;
}

TEST(FrameworkTimelineTest, LiveRigRecordsEveryQueryOnOneTimeline) {
  core::OdaFramework fw(timeline_rig_config());
  const std::string sys = run_timeline_rig(fw);

  observe::FlightRecorder* rec = observe::installed_flight_recorder();
  ASSERT_NE(rec, nullptr) << "advance() recorded no flight timeline";
  const observe::FlightDump dump = rec->dump();
  ASSERT_EQ(dump.dropped, 0u) << "the rings lapped; the checks below need every event";
  const std::vector<DumpEvent> events = dump_events(observe::flight_to_json(dump));

  // Closed spans by id: name and final parent (the end event's).
  std::map<std::uint64_t, std::string> name_of;
  std::map<std::uint64_t, std::uint64_t> parent_of;
  for (const DumpEvent& e : events) {
    if (e.type != "span_end") continue;
    name_of[e.span] = e.label;
    parent_of[e.span] = e.parent;
  }
  auto named = [&](std::uint64_t id, const std::string& name) {
    const auto it = name_of.find(id);
    return it != name_of.end() && it->second == name;
  };

  // Every registered query: batch spans, and each engine phase of a
  // generation hanging under one of them.
  ASSERT_EQ(fw.queries().size(), 7u);  // six pipelines + _oda.history
  for (const auto& q : fw.queries()) {
    const std::string batch = "query." + q->name() + ".batch";
    std::size_t batches = 0;
    for (const auto& [id, name] : name_of) batches += name == batch ? 1 : 0;
    EXPECT_GT(batches, 0u) << batch;
    std::set<std::string> phases;
    for (const DumpEvent& e : events) {
      if (e.type == "phase_end" && named(e.parent, batch)) phases.insert(e.phase);
    }
    for (const char* phase : {"fetch", "decode", "operate", "merge", "commit"}) {
      EXPECT_EQ(phases.count(phase), 1u) << q->name() << " has no " << phase << " phase";
    }
  }

  // The storage layers' spans share the timeline.
  std::size_t ocean_puts = 0;
  std::size_t sweeps = 0;
  for (const auto& [id, name] : name_of) {
    ocean_puts += name == "ocean.put" ? 1 : 0;
    sweeps += name == "tiers.enforce" ? 1 : 0;
  }
  EXPECT_GT(ocean_puts, 0u);
  EXPECT_EQ(sweeps, 3u);

  // The produce→batch link: a silver_to_lake batch continues the trace of
  // the Bronze→Silver sink.write that produced its first Silver record.
  const std::string silver_batch = "query.bronze_to_silver_power." + sys + ".batch";
  std::size_t linked = 0;
  for (const auto& [id, name] : name_of) {
    if (name.rfind("query.silver_to_lake.", 0) != 0) continue;
    const std::uint64_t sink = parent_of[id];
    if (named(sink, "sink.write") && named(parent_of[sink], silver_batch)) ++linked;
  }
  EXPECT_GT(linked, 0u);
}

TEST(FrameworkTimelineTest, CaughtUpQueriesRunAtMostOneEmptyBatchPerStep) {
  core::OdaFramework fw(timeline_rig_config());
  run_timeline_rig(fw);
  const observe::FlightDump dump = observe::installed_flight_recorder()->dump();
  ASSERT_EQ(dump.dropped, 0u) << "the rings lapped; the count below needs every event";
  const std::vector<DumpEvent> events = dump_events(observe::flight_to_json(dump));

  // Records each batch span's fetch phase read (its phase_end argument).
  std::map<std::uint64_t, std::string> batch_of;
  std::map<std::uint64_t, std::uint64_t> fetched;
  for (const DumpEvent& e : events) {
    if (e.type == "span_end" && e.label.ends_with(".batch")) batch_of[e.span] = e.label;
    if (e.type == "phase_end" && e.phase == "fetch") fetched[e.parent] += e.arg;
  }
  // A step's first drain round runs every query, and each one stops at
  // its first batch that reads nothing; later rounds skip queries with
  // zero lag instead of fetching nothing again.
  for (const auto& q : fw.queries()) {
    const std::string batch = "query." + q->name() + ".batch";
    std::size_t empty = 0;
    for (const auto& [id, name] : batch_of) empty += name == batch && fetched[id] == 0 ? 1 : 0;
    EXPECT_LE(empty, static_cast<std::size_t>(kTimelineSteps)) << batch;
  }
}

}  // namespace
}  // namespace oda
