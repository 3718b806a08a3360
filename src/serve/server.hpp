// LakeServer — the multi-tenant query front-end over the LAKE
// (storage::TimeSeriesDb) and its rollup rings (observe::HistoryStore).
// This is the crowd-scale read path of DESIGN.md §14: the piece between
// a facility's worth of dashboard sessions and the store.
//
// A query passes three gates before it runs:
//   1. Backpressure — in-flight depth >= max_queue → kQueueFull.
//   2. Load shedding — an observe::Slo watches the in-flight depth;
//      Degraded sheds background-priority queries, Breached sheds
//      everything until the depth SLO recovers (hysteresis per SloSpec).
//   3. Quota — each admitted query holds one service slot of the
//      project's core::AllocationManager grant, released at completion;
//      projects over grant get kQuotaExceeded.
// Admitted queries consult the ResultCache (epoch-validated), then pick
// a plan (serve::select_plan: a raw LAKE scan or a rollup-ring read) and
// run it with one TimeSeriesDb::query call.
//
// Everything is observable: serve.* metrics in the default registry and
// kMark flight events on the installed recorder (admission outcomes,
// cache hits, plan kinds), so the flight timeline sees serving too. Each
// mark's label is interned once per call site: a mark takes no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/allocations.hpp"
#include "observe/flight.hpp"
#include "observe/history.hpp"
#include "observe/metrics.hpp"
#include "observe/slo.hpp"
#include "serve/cache.hpp"
#include "serve/plan.hpp"
#include "storage/tsdb.hpp"

namespace oda::serve {

enum class Admission : std::uint8_t {
  kAdmitted = 0,
  kQueueFull = 1,      ///< in-flight depth hit max_queue
  kShed = 2,           ///< depth SLO Degraded/Breached shed it
  kQuotaExceeded = 3,  ///< project out of service slots (or unknown)
};
const char* admission_name(Admission a);

enum class QueryPriority : std::uint8_t {
  kInteractive = 0,  ///< a human is waiting — shed last
  kBackground = 1,   ///< report/batch traffic — shed first
};

struct ServeConfig {
  std::size_t threads = 4;          ///< scheduler pool size
  std::size_t max_queue = 256;      ///< in-flight (queued + running) cap
  std::size_t cache_bytes = 8u << 20;  ///< split across the cache's 8 shards
  /// Depth SLO driving shedding: > warn_depth → Degraded (shed
  /// background), > crit_depth → Breached (shed all) at once; one
  /// evaluation at or below warn_depth clears it.
  double shed_warn_depth = 64.0;
  double shed_crit_depth = 192.0;

  ServeConfig& with_threads(std::size_t n) { threads = n; return *this; }
  ServeConfig& with_max_queue(std::size_t n) { max_queue = n; return *this; }
  ServeConfig& with_cache_bytes(std::size_t n) { cache_bytes = n; return *this; }
  ServeConfig& with_shed_depths(double warn, double crit) {
    shed_warn_depth = warn;
    shed_crit_depth = crit;
    return *this;
  }
};

struct ServeResult {
  Admission admission = Admission::kAdmitted;
  sql::Table table;  ///< empty unless admitted
  bool cache_hit = false;
  PlanKind plan = PlanKind::kRaw;
};

struct ProjectServeStats {
  std::uint64_t admitted = 0;
  std::uint64_t quota_rejected = 0;
};

struct ServeStats {
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_rejected = 0;
  std::uint64_t quota_rejected = 0;
  std::uint64_t rollup_served = 0;  ///< admitted queries answered from rings
  std::size_t queue_depth = 0;      ///< in-flight right now
  observe::SloState shed_state = observe::SloState::kHealthy;
  CacheStats cache;
  std::map<std::string, ProjectServeStats> projects;
};

class LakeServer {
 public:
  /// `rollups` and `quotas` are optional collaborators: no rollups →
  /// every plan is kRaw; no quotas → the quota gate always admits.
  /// Both must outlive the server, as must `db`.
  explicit LakeServer(const storage::TimeSeriesDb& db, ServeConfig config = {},
                      const observe::HistoryStore* rollups = nullptr,
                      core::AllocationManager* quotas = nullptr);
  ~LakeServer();

  LakeServer(const LakeServer&) = delete;
  LakeServer& operator=(const LakeServer&) = delete;

  /// Run the full admit→cache→plan→execute path on the calling thread.
  ServeResult execute(const std::string& project, const storage::TsQuery& q,
                      QueryPriority priority = QueryPriority::kInteractive);

  /// Admit on the calling thread (rejections return an already-resolved
  /// future without touching the pool), execute on the scheduler pool.
  std::future<ServeResult> submit(const std::string& project, const storage::TsQuery& q,
                                  QueryPriority priority = QueryPriority::kInteractive);

  ServeStats stats() const;
  std::size_t queue_depth() const { return depth_.load(std::memory_order_relaxed); }
  const ServeConfig& config() const { return config_; }

 private:
  Admission admit(const std::string& project, QueryPriority priority);
  void finish(const std::string& project);
  ServeResult run_admitted(const storage::TsQuery& q);

  const storage::TimeSeriesDb& db_;
  ServeConfig config_;
  const observe::HistoryStore* rollups_;
  core::AllocationManager* quotas_;
  ResultCache cache_;
  std::unique_ptr<common::ThreadPool> pool_;

  std::atomic<std::size_t> depth_{0};  ///< queued + running

  mutable std::mutex slo_mu_;  ///< Slo is not thread-safe
  observe::Slo shed_slo_;

  mutable std::mutex proj_mu_;
  std::map<std::string, ProjectServeStats> projects_;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> queue_rejected_{0};
  std::atomic<std::uint64_t> quota_rejected_{0};
  std::atomic<std::uint64_t> rollup_served_{0};

  // Registry handles (resolved once; data plane is relaxed atomics).
  observe::Counter* m_admitted_;
  observe::Counter* m_shed_;
  observe::Counter* m_queue_rejected_;
  observe::Counter* m_quota_rejected_;
  observe::Counter* m_cache_hits_;
  observe::Counter* m_cache_misses_;
  observe::Counter* m_cache_evictions_;
  observe::Counter* m_rollup_served_;
  observe::Gauge* m_depth_;
  observe::Histogram* m_latency_;
};

}  // namespace oda::serve
