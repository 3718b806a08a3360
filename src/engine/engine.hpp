// The shared-nothing sharded execution engine — the role Spark's
// micro-batch scheduler plays in the paper's STREAM→LAKE pipelines
// (Sec V-B), where 4.2–4.5 TB/day is sustainable only because consumer
// groups fan partitions out across cores.
//
// Ownership model (the DCDB/ALICE shape: shared-nothing slices over
// refcounted transport buffers):
//
//  * Every query gets a team of long-lived workers. Each worker holds one
//    long-lived stream::GroupMember whose round-robin assignment IS the
//    worker's owned partition set — no per-round re-fan-out, no shared
//    thread pool, and (via the broker's lock-free generation cell) no
//    broker mutex on the poll hot path.
//
//  * Each partition is a "lane": its own operator chain (built from
//    operator factories, so stateful operators shard by PARTITION, never
//    by worker) plus a handoff slot for pre-committed results. A worker
//    runs its owned lanes end-to-end — fetch_view → decode → operate —
//    touching nothing another worker touches.
//
//  * Workers meet the driver only at generation barriers. One micro-batch
//    ("generation") is: fetch phase (retryable under the "engine.pull"
//    seam), decode phase, a global watermark reduction, operate phase,
//    then a single-threaded merge in ascending partition order into the
//    sinks, followed by the usual sinks→operators→offsets commit.
//
//  * The watermark reduction is a MIN over the newest event time of each
//    lane that decoded rows this generation (minus the allowed
//    lateness), never lowered. Every partition gets the same fetch
//    budget, so while a backlog drains node-keyed partitions drift apart
//    in event time; the min keeps the slowest active lane's rows on time
//    where a max would drop them as late.
//
// Why committed sink output is byte-identical at ANY worker count (the
// crown-jewel invariant): per-partition fetch budget is a function of
// batch size and partition count only; lanes (and their operator state)
// are keyed by partition, not worker; the watermark is reduced globally
// before any lane operates; and the merge orders by (partition, offset).
// Worker count decides only which thread runs a lane — invisible in the
// output, including under injected faults (a failed generation rolls
// back every lane and replays identically from committed offsets).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "observe/flight.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "pipeline/operator.hpp"
#include "pipeline/query.hpp"
#include "pipeline/source_sink.hpp"
#include "stream/broker.hpp"

namespace oda::observe {
class HistoryStore;
}

namespace oda::engine {

/// Partition-ownership knobs. Today ownership is always strict round-
/// robin via the consumer group; the config carries the expected scale so
/// misconfigurations fail at validate() instead of deep in a run.
struct OwnershipConfig {
  /// Expected partition count of the topics this engine will own. When
  /// set (> 0), EngineConfig::validate() rejects worker>partition
  /// oversubscription at configuration time, and add_query() rejects a
  /// topic whose real partition count differs. 0 = derive per query
  /// (workers silently clamp to each topic's partition count).
  std::size_t partitions = 0;

  OwnershipConfig& with_partitions(std::size_t n) {
    partitions = n;
    return *this;
  }
};

struct EngineConfig {
  /// Worker threads per query team. 0 = hardware concurrency. Teams are
  /// clamped to [1, num_partitions] per query — an extra member would own
  /// no partitions and just churn the group.
  std::size_t workers = 0;
  OwnershipConfig ownership;
  /// Per-ring capacity of the flight recorder (events). The engine keeps
  /// one ring per worker plus a driver ring; 0 disables recording.
  /// Recording is out-of-band: committed sink bytes are byte-identical
  /// with any capacity, including 0 (tests/flight_test.cpp proves it).
  std::size_t flight_capacity = 4096;

  // Fluent construction:
  //   EngineConfig{}.with_workers(4).with_ownership(
  //       OwnershipConfig{}.with_partitions(8)).
  EngineConfig& with_workers(std::size_t n) {
    workers = n;
    return *this;
  }
  EngineConfig& with_ownership(OwnershipConfig o) {
    ownership = o;
    return *this;
  }
  EngineConfig& with_flight(std::size_t capacity_per_ring) {
    flight_capacity = capacity_per_ring;
    return *this;
  }

  /// Throws std::invalid_argument when an ownership partition count is
  /// declared and there are more workers than partitions (oversubscribed
  /// workers would own nothing; declaring the scale means you want that
  /// caught, not clamped). Called by the Engine constructor.
  void validate() const;
};

/// Cumulative scheduling totals (monitoring / benches).
struct EngineStats {
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;   ///< committed micro-batches across queries
  std::uint64_t rows = 0;      ///< rows pulled across queries
  double wall_seconds = 0.0;   ///< time spent inside run_until_caught_up
};

/// Named-field source description for add_query(). The query's worker
/// team builds its own GroupMembers from this spec — one per worker,
/// long-lived, each owning a disjoint partition set.
struct SourceSpec {
  stream::Broker* broker = nullptr;
  std::string topic;
  std::string group;
  pipeline::RecordDecoder decoder;
  chaos::RetryPolicy retry{};
};

/// Factory for one lane's instance of an operator. The engine builds one
/// operator chain per PARTITION (not per worker), so stateful operators
/// shard by the same key the broker already partitions by — worker count
/// and rebalances never move operator state between lanes.
using OperatorFactory = std::function<pipeline::OperatorPtr()>;

/// Cumulative wall-seconds per engine phase, aggregated across a query's
/// workers (fetch/decode/operate/barrier) and its driver (barrier wait
/// for stragglers, merge, commit). This is the phase attribution behind
/// the `engine.phase.*_pct` gauges and BENCH_micro_engine.json's
/// time-share columns: it says WHERE the scaling-efficiency numbers go.
struct PhaseProfile {
  double fetch_s = 0.0;
  double decode_s = 0.0;
  double operate_s = 0.0;
  double barrier_s = 0.0;  ///< stall: waiting at generation barriers
  double merge_s = 0.0;    ///< driver: deterministic merge + sink writes
  double commit_s = 0.0;   ///< driver: sinks → lanes → offsets commit

  double accounted_s() const {
    return fetch_s + decode_s + operate_s + barrier_s + merge_s + commit_s;
  }
  /// Share of accounted time, in percent (0 when nothing is accounted).
  double pct(double phase_s) const {
    const double total = accounted_s();
    return total > 0.0 ? phase_s / total * 100.0 : 0.0;
  }
};

/// Per-worker snapshot for monitoring (owned partitions, handoff depth).
struct WorkerStats {
  std::size_t worker = 0;
  bool alive = true;
  std::size_t owned_partitions = 0;
  std::uint64_t rows_fetched = 0;  ///< rows this worker pulled (pre-commit)
  std::uint64_t handoffs = 0;      ///< lane results handed to the merge point
};

/// One sharded pipeline — the repo's one executor: a worker team owning
/// a topic's partitions end-to-end, per-partition operator chains, and a
/// deterministic merge point feeding the sinks. Engine::add_query()
/// builds one inside an engine; a query built outside (OdaFramework's
/// make_* pipelines, make_history_query) joins one through
/// Engine::adopt(), which also hands it the engine's flight recorder.
/// Stages chain fluently.
///
/// Per-lane operator contract: every stage runs once per partition lane
/// on that lane's rows only. A stage whose grouping key is (or implies)
/// the partition key sees complete groups; a stage that aggregates
/// ACROSS the partition key emits per-partition partials, which the
/// consumer folds after the drain.
///
/// run_once() is a transaction: sinks begin before the pull; any failure
/// (worker exception, injected chaos fault) rolls back every lane's
/// operator state and sink output and reseeks the members, so the
/// replay re-produces byte-identical output — exactly-once into
/// transactional sinks for generations that eventually commit. A
/// generation that keeps failing is dead-lettered after max_retries
/// (at-most-once for that generation only). Never throws on
/// infrastructure faults. Drive it from ONE thread (the engine's
/// scheduler does); kill_worker() and stats accessors are driver-thread
/// calls too.
class Query {
 public:
  Query(pipeline::QueryConfig config, const SourceSpec& spec, std::size_t workers);
  ~Query();

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  /// Chainable per-lane stage registration (in execution order). The
  /// factory runs once per partition, immediately.
  Query& add_operator(const OperatorFactory& factory);
  Query& add_transform(std::string name, storage::DataClass out_class,
                       std::function<sql::Table(const sql::Table&)> fn);
  Query& add_sink(std::unique_ptr<pipeline::Sink> sink);

  /// Process one generation (micro-batch). Returns rows pulled (0 =
  /// caught up, or the pull failed after retries). See class comment for
  /// the transaction contract.
  std::size_t run_once();

  /// Drain until the members are caught up; returns total rows processed.
  std::uint64_t run_until_caught_up(std::size_t max_batches = SIZE_MAX);

  /// Flush stateful lane operators through the remaining stages to the
  /// sinks, in ascending partition order (end of stream). One
  /// transaction, like a generation: sinks and lanes begin, the flushed
  /// output is written and the sinks flushed, then sinks and lanes
  /// commit. On any failure both roll back and the exception propagates,
  /// so calling finalize() again emits the same output exactly once.
  void finalize();

  /// Durable checkpoint of every lane's operator state plus the
  /// watermark into the object store (offsets are already durable in the
  /// broker's committed-offset store). A restarted process rebuilds the
  /// same query, calls restore_from(), and resumes where the group left
  /// off. Driver-thread call between generations.
  void checkpoint_to(storage::ObjectStore& store, const std::string& key,
                     common::TimePoint now) const;
  /// Returns false when no checkpoint exists under `key`. Throws
  /// std::runtime_error when the checkpoint belongs to another query
  /// name, partition count or operator chain.
  bool restore_from(const storage::ObjectStore& store, const std::string& key);

  const pipeline::QueryMetrics& metrics() const { return metrics_; }
  const std::string& name() const { return config_.name; }
  common::TimePoint watermark() const { return watermark_; }
  const chaos::RetryStats& retry_stats() const { return retrier_.stats(); }

  std::int64_t lag() const;
  std::size_t num_partitions() const { return lanes_.size(); }
  /// Workers still alive in the team (kill_worker shrinks this).
  std::size_t num_workers() const;
  std::size_t team_size() const { return workers_.size(); }

  /// Kill one worker: its member leaves the group (generation bump), the
  /// survivors observe the new generation through the broker's lock-free
  /// cell on their next fetch and absorb the freed partitions. Any
  /// in-flight positions the dead worker held are voided by the fenced
  /// commit. Driver-thread call, between generations — the test hook for
  /// the ownership-rebalance story.
  void kill_worker(std::size_t w);

  std::vector<WorkerStats> worker_stats() const;

  /// Cumulative per-phase wall time across the team. Driver-thread call
  /// between generations (same contract as worker_stats()).
  PhaseProfile phase_profile() const;

 private:
  enum class Phase : std::uint8_t { kIdle = 0, kFetch, kDecode, kOperate, kExit };

  /// One partition's shard: operator chain + handoff slot. A lane is
  /// touched by exactly one worker during a phase (disjoint ownership)
  /// and by the driver between barriers.
  struct Lane {
    std::vector<pipeline::OperatorPtr> ops;
    stream::FetchView views;     ///< fetch-phase handoff
    sql::Table table;            ///< decode/operate-phase handoff
    std::size_t pulled = 0;
    common::TimePoint max_ts = INT64_MIN;
    common::TimePoint min_ts = INT64_MAX;  ///< oldest event ts (e2e latency)
    /// Ops began this generation — commit/rollback are strictly paired
    /// with begin (an unpaired rollback would restore a stale snapshot).
    bool began = false;
    // Per-generation stage accounting, merged by the driver.
    std::vector<double> stage_wall;
    std::vector<std::uint64_t> stage_rows_in;
    std::vector<std::uint64_t> stage_rows_out;
  };

  struct Worker {
    std::unique_ptr<stream::GroupMember> member;
    std::thread thread;  ///< not started for worker 0 (runs on the driver)
    std::atomic<bool> die{false};
    bool alive = true;
    std::exception_ptr error;  ///< set during a phase, read after the barrier
    std::atomic<std::uint64_t> rows_fetched{0};
    std::atomic<std::uint64_t> handoffs{0};
    observe::Gauge* obs_owned = nullptr;
    observe::Gauge* obs_handoff = nullptr;
    // Flight-profiler accounting, worker-owned: written only during a
    // phase (or, for kBarrier, right after waking), read by the driver
    // between barriers — the phase_mu_ handshake is the fence.
    std::array<double, observe::kFlightPhases> phase_wall{};
    std::uint64_t last_phase_rows = 0;     ///< rows handled in the last phase
    std::size_t last_owned = SIZE_MAX;     ///< owned-partition count last fetch
  };

  // --- generation protocol (driver side) --------------------------------
  void run_phase(Phase p);
  void run_phase_on(std::size_t w, Phase p);
  void worker_loop(std::size_t w);
  /// Reset lanes + fetch phase; returns rows pulled. One attempt of the
  /// "engine.pull" retry seam.
  std::size_t fetch_generation();
  /// Rethrow the first worker error recorded during the last phase (all
  /// workers are quiescent at the barrier, so the retry path may reseek).
  void check_worker_errors();
  void seek_all_members();
  void commit_all_members();
  void commit_all_lanes();
  void rollback_all_lanes();
  sql::Table merge_lanes();

  // --- worker side (inside a phase; touches owned lanes only) -----------
  void fetch_lanes(std::size_t w);
  void decode_lanes(std::size_t w);
  void operate_lanes(std::size_t w);

  // --- flight recorder / phase profiler ----------------------------------
  /// Worker w's ring (ring 0 is the driver's). Teams share the engine's
  /// recorder; queries run one generation at a time, so ring 1+w is only
  /// ever written by the thread currently running worker w.
  static std::uint32_t flight_ring(std::size_t w) { return static_cast<std::uint32_t>(1 + w); }
  /// `batch` is the generation's batch span: phase events hang under it
  /// in the dump's span forest.
  void flight_emit(std::size_t ring, observe::FlightEventType type,
                   observe::FlightPhase phase = observe::FlightPhase::kNone,
                   std::uint64_t arg = 0, std::uint32_t label = 0,
                   observe::TraceContext batch = {}) {
    if (observe::FlightRecorder* fr = flight_.load(std::memory_order_acquire)) {
      fr->emit(ring, type, phase, arg, label, {0, batch.span_id, batch.trace_id});
    }
  }
  void publish_phase_gauges();

  pipeline::QueryConfig config_;
  stream::Broker* broker_ = nullptr;
  std::string topic_;
  pipeline::RecordDecoder decoder_;
  chaos::Retrier retrier_;
  std::size_t budget_ = 1;  ///< per-partition fetch cap: f(batch size, P) only

  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<pipeline::Sink>> owned_sinks_;
  std::vector<pipeline::Sink*> sinks_;

  // Barrier state. phase_seq_ bumps once per phase; workers wait on it,
  // the driver waits for remaining_ to drain. The mutex handshake is the
  // happens-before edge that lets the driver touch lanes exclusively
  // between barriers and workers touch owned lanes during one.
  std::mutex phase_mu_;
  std::condition_variable phase_cv_;  ///< workers wait here
  std::condition_variable done_cv_;   ///< the driver waits here
  std::uint64_t phase_seq_ = 0;
  Phase phase_ = Phase::kIdle;
  std::size_t remaining_ = 0;
  std::size_t live_threads_ = 0;  ///< worker threads participating in barriers
  observe::TraceContext batch_ctx_;     ///< the batch span; driver → workers, set before a phase
  common::TimePoint op_watermark_ = 0;  ///< driver → workers, set before operate

  pipeline::QueryMetrics metrics_;
  common::TimePoint watermark_ = INT64_MIN;
  common::TimePoint watermark_snapshot_ = INT64_MIN;
  std::size_t consecutive_failures_ = 0;

  // Flight recorder (nullable = recording off) + driver-side phase
  // accounting (barrier wait for stragglers, merge, commit). Atomic
  // because Engine::adopt sets it after the worker threads started
  // emitting barrier events.
  std::atomic<observe::FlightRecorder*> flight_{nullptr};
  std::array<double, observe::kFlightPhases> driver_wall_{};
  // Labels interned once at construction, so spans and marks build no
  // strings per generation.
  std::uint32_t label_query_ = 0;        ///< the query name
  std::uint32_t label_batch_ = 0;        ///< "query.<name>.batch", the batch span
  std::uint32_t label_sink_write_ = 0;   ///< "sink.write"
  std::uint32_t label_dead_letter_ = 0;  ///< "dead-letter"
  std::vector<std::uint32_t> op_labels_;  ///< operator span names, by stage

  observe::Counter* obs_batches_ = nullptr;
  observe::Counter* obs_failures_ = nullptr;
  observe::Counter* obs_skipped_ = nullptr;
  observe::Counter* obs_rows_ = nullptr;
  observe::Histogram* obs_batch_seconds_ = nullptr;
  observe::Gauge* obs_watermark_ = nullptr;
  /// End-to-end record latency: produce-time event stamp → sink commit,
  /// in *virtual* seconds (deterministic, worker-count invariant). One
  /// sample per committed generation: the oldest record's latency.
  observe::Histogram* obs_e2e_ = nullptr;
  /// Cumulative per-phase time share (engine.phase.*_pct{query=...}),
  /// republished after every committed generation.
  std::array<observe::Gauge*, observe::kFlightPhases> obs_phase_pct_{};
  /// Rows fetched by the team, bumped once per worker per generation.
  observe::Counter* obs_worker_rows_ = nullptr;

  friend class Engine;
};

/// Multi-query scheduler. Each query owns its worker team; the engine
/// runs queries in rounds (sequentially — parallelism lives inside each
/// query's team now) until no query makes progress, so multi-hop chains
/// (bronze → silver → gold over broker topics) drain to quiescence.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Configured team size (0 resolved to hardware concurrency). Actual
  /// teams clamp to each query's partition count.
  std::size_t workers() const { return workers_; }

  /// Take ownership of a built query and hand it the engine's flight
  /// recorder: the one way into an engine. Its broker, sinks and
  /// whatever they write to must outlive the engine (members deregister
  /// on destruction). Throws std::invalid_argument when the ownership
  /// config declares a partition count and the query's topic has
  /// another.
  Query& adopt(std::unique_ptr<Query> query);

  /// Construct a sharded query with the engine's team size and adopt it;
  /// returns it for stage chaining.
  Query& add_query(pipeline::QueryConfig config, SourceSpec spec);

  /// The adopted queries, in the order rounds visit them.
  const std::vector<std::unique_ptr<Query>>& queries() const { return queries_; }

  /// Run scheduling rounds until every query is caught up (a full round
  /// makes no progress and all members report zero lag). Returns total
  /// rows processed. Rounds visit queries in add order; each query runs
  /// up to 64 generations per round before the engine moves on to the
  /// next, so a deep topic cannot starve downstream queries in a chain.
  /// The first round runs every query; later rounds skip the ones with
  /// zero lag.
  std::uint64_t run_until_caught_up(std::size_t max_rounds = SIZE_MAX);

  EngineStats stats() const;

  /// Per-worker ownership/handoff snapshot across all queries, for the
  /// monitor's watch_engine view. Driver-thread call.
  std::vector<std::pair<std::string, WorkerStats>> worker_info() const;

  /// The engine's flight recorder (nullptr when flight_capacity == 0),
  /// installed process-wide while the engine lives, so spans land on it
  /// too. Ring 0 is the driver; ring 1+w is worker w of whichever
  /// query's team is currently running a generation (queries run
  /// sequentially).
  observe::FlightRecorder* flight() { return flight_.get(); }
  const observe::FlightRecorder* flight() const { return flight_.get(); }

  /// True when something raised the dump latch (chaos fault surfaced as
  /// a query error, SLO breach via the installed-recorder hook, ...).
  bool flight_dump_requested() const;

  /// Snapshot every ring into one ordered timeline. `trigger` defaults
  /// to a pending dump-request reason (or "explicit"). Driver-thread
  /// call between generations; returns an empty dump when recording is
  /// off. Export with observe::flight_to_json / flight_to_chrome_json.
  observe::FlightDump dump_flight(std::string trigger = {});

 private:
  EngineConfig config_;
  std::size_t workers_ = 1;
  // Declared before queries_ on purpose: queries join their worker
  // threads in ~Query, and those threads emit flight events until the
  // very last barrier wake — the recorder must outlive them.
  std::unique_ptr<observe::FlightRecorder> flight_;
  std::vector<std::unique_ptr<Query>> queries_;

  mutable std::mutex stats_mu_;
  EngineStats stats_;

  observe::Gauge* obs_workers_ = nullptr;
  observe::Gauge* obs_queries_ = nullptr;
  observe::Counter* obs_rounds_ = nullptr;
  observe::Counter* obs_batches_ = nullptr;
  observe::Counter* obs_rows_ = nullptr;
};

/// The self-telemetry loop's history half (DESIGN.md §9): a query with a
/// team of one subscribed to `_oda.metrics` (consumer group
/// "_oda.history") decoding samples into `store` through a
/// pipeline::HistorySink. Runs anywhere a query runs: adopted by the
/// framework's engine or standalone via run_until_caught_up().
/// `config.name` defaults to "_oda.history" when left at QueryConfig's
/// default.
std::unique_ptr<Query> make_history_query(stream::Broker& broker, observe::HistoryStore& store,
                                          pipeline::QueryConfig config = {},
                                          chaos::RetryPolicy retry = {});

}  // namespace oda::engine
