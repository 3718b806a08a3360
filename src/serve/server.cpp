#include "serve/server.hpp"

#include <utility>

namespace oda::serve {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kQueueFull: return "queue_full";
    case Admission::kShed: return "shed";
    case Admission::kQuotaExceeded: return "quota_exceeded";
  }
  return "?";
}

namespace {

/// Service slots an admitted query holds from its project's grant.
constexpr double kSlotsPerQuery = 1.0;

observe::SloSpec shed_spec(const ServeConfig& c) {
  observe::SloSpec s;
  s.name = "serve.depth";
  s.subject = "lake serving in-flight depth";
  s.unit = "queries";
  s.warn = c.shed_warn_depth;
  s.crit = c.shed_crit_depth;
  return s;
}

}  // namespace

LakeServer::LakeServer(const storage::TimeSeriesDb& db, ServeConfig config,
                       const observe::HistoryStore* rollups, core::AllocationManager* quotas)
    : db_(db),
      config_(config),
      rollups_(rollups),
      quotas_(quotas),
      cache_(CacheConfig{}.with_total_bytes(config.cache_bytes)),
      pool_(std::make_unique<common::ThreadPool>(config.threads == 0 ? 1 : config.threads)),
      shed_slo_(shed_spec(config)) {
  auto& reg = observe::default_registry();
  m_admitted_ = reg.counter("serve.queries.admitted");
  m_shed_ = reg.counter("serve.queries.shed");
  m_queue_rejected_ = reg.counter("serve.queries.queue_rejected");
  m_quota_rejected_ = reg.counter("serve.queries.quota_rejected");
  m_cache_hits_ = reg.counter("serve.cache.hits");
  m_cache_misses_ = reg.counter("serve.cache.misses");
  m_cache_evictions_ = reg.counter("serve.cache.evictions");
  m_rollup_served_ = reg.counter("serve.plan.rollup_served");
  m_depth_ = reg.gauge("serve.queue.depth");
  m_latency_ = reg.histogram("serve.query.latency");
}

LakeServer::~LakeServer() = default;

Admission LakeServer::admit(const std::string& project, QueryPriority priority) {
  // Gate 1: hard backpressure on in-flight depth.
  std::size_t depth = depth_.load(std::memory_order_relaxed);
  for (;;) {
    if (depth >= config_.max_queue) {
      queue_rejected_.fetch_add(1, std::memory_order_relaxed);
      m_queue_rejected_->inc();
      static const std::uint32_t kLabel = observe::intern_label("serve.reject.queue");
      observe::flight_mark(kLabel, depth);
      return Admission::kQueueFull;
    }
    if (depth_.compare_exchange_weak(depth, depth + 1, std::memory_order_relaxed)) break;
  }
  m_depth_->set(static_cast<double>(depth + 1));

  // Gate 2: SLO-driven shedding on the depth signal. Evaluated at
  // virtual time so replay/chaos runs are deterministic.
  observe::SloState state;
  {
    std::lock_guard lk(slo_mu_);
    state = shed_slo_.update(static_cast<double>(depth + 1), observe::virtual_now());
  }
  const bool shed = state == observe::SloState::kBreached ||
                    (state == observe::SloState::kDegraded &&
                     priority == QueryPriority::kBackground);
  if (shed) {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    m_shed_->inc();
    static const std::uint32_t kLabel = observe::intern_label("serve.shed");
    observe::flight_mark(kLabel, static_cast<std::uint64_t>(state));
    return Admission::kShed;
  }

  // Gate 3: project quota (service slots held for the query's lifetime).
  if (quotas_ != nullptr) {
    core::ResourceGrant cost;
    cost.service_slots = kSlotsPerQuery;
    if (!quotas_->consume(project, cost)) {
      depth_.fetch_sub(1, std::memory_order_relaxed);
      quota_rejected_.fetch_add(1, std::memory_order_relaxed);
      m_quota_rejected_->inc();
      static const std::uint32_t kLabel = observe::intern_label("serve.reject.quota");
      observe::flight_mark(kLabel, 0);
      {
        std::lock_guard lk(proj_mu_);
        ++projects_[project].quota_rejected;
      }
      return Admission::kQuotaExceeded;
    }
  }

  admitted_.fetch_add(1, std::memory_order_relaxed);
  m_admitted_->inc();
  {
    std::lock_guard lk(proj_mu_);
    ++projects_[project].admitted;
  }
  return Admission::kAdmitted;
}

void LakeServer::finish(const std::string& project) {
  if (quotas_ != nullptr) {
    core::ResourceGrant cost;
    cost.service_slots = kSlotsPerQuery;
    quotas_->release(project, cost);
  }
  const std::size_t depth = depth_.fetch_sub(1, std::memory_order_relaxed) - 1;
  m_depth_->set(static_cast<double>(depth));
  completed_.fetch_add(1, std::memory_order_relaxed);
}

ServeResult LakeServer::run_admitted(const storage::TsQuery& q) {
  common::Stopwatch sw;
  ServeResult r;
  r.admission = Admission::kAdmitted;
  const std::string key = canonical_key(q);

  if (auto cached = cache_.lookup(key, q.metric, db_)) {
    r.table = std::move(*cached);
    r.cache_hit = true;
    m_cache_hits_->inc();
    m_latency_->add(sw.elapsed_seconds());
    static const std::uint32_t kLabel = observe::intern_label("serve.cache.hit");
    observe::flight_mark(kLabel, r.table.num_rows());
    return r;
  }
  m_cache_misses_->inc();

  r.plan = select_plan(q, rollups_);
  storage::QueryFingerprint fp;
  r.table = db_.query(q, &fp, r.plan == PlanKind::kRaw ? nullptr : rollups_);
  if (r.plan != PlanKind::kRaw) {
    rollup_served_.fetch_add(1, std::memory_order_relaxed);
    m_rollup_served_->inc();
  }
  m_cache_evictions_->inc(cache_.insert(key, q.metric, r.table, std::move(fp)));
  m_latency_->add(sw.elapsed_seconds());
  static const std::uint32_t kLabel = observe::intern_label("serve.query");
  observe::flight_mark(kLabel, static_cast<std::uint64_t>(r.plan));
  return r;
}

ServeResult LakeServer::execute(const std::string& project, const storage::TsQuery& q,
                                QueryPriority priority) {
  const Admission a = admit(project, priority);
  if (a != Admission::kAdmitted) {
    ServeResult r;
    r.admission = a;
    return r;
  }
  ServeResult r = run_admitted(q);
  finish(project);
  return r;
}

std::future<ServeResult> LakeServer::submit(const std::string& project, const storage::TsQuery& q,
                                            QueryPriority priority) {
  const Admission a = admit(project, priority);
  if (a != Admission::kAdmitted) {
    std::promise<ServeResult> p;
    ServeResult r;
    r.admission = a;
    p.set_value(std::move(r));
    return p.get_future();
  }
  return pool_->submit([this, project, q] {
    ServeResult r = run_admitted(q);
    finish(project);
    return r;
  });
}

ServeStats LakeServer::stats() const {
  ServeStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.queue_rejected = queue_rejected_.load(std::memory_order_relaxed);
  s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  s.rollup_served = rollup_served_.load(std::memory_order_relaxed);
  s.queue_depth = depth_.load(std::memory_order_relaxed);
  {
    std::lock_guard lk(slo_mu_);
    s.shed_state = shed_slo_.state();
  }
  s.cache = cache_.stats();
  {
    std::lock_guard lk(proj_mu_);
    s.projects = projects_;
  }
  return s;
}

}  // namespace oda::serve
