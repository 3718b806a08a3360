#include "common/faults.hpp"

#include "common/bytes.hpp"

namespace oda::chaos {

namespace detail {
std::atomic<FaultPlan*> g_fault_plan{nullptr};
std::atomic<FaultObserver*> g_fault_observer{nullptr};
}

void FaultPlan::configure(const std::string& site, SiteConfig cfg) {
  std::lock_guard lk(mu_);
  SiteState& s = sites_[site];
  s.cfg = cfg;
  s.enabled = true;
  s.rng = common::Rng(seed_ ^ common::fnv1a(site));
}

void FaultPlan::configure_default(SiteConfig cfg) {
  std::lock_guard lk(mu_);
  default_cfg_ = cfg;
}

FaultPlan::SiteState& FaultPlan::state_for(std::string_view site) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.try_emplace(std::string(site)).first;
    it->second.rng = common::Rng(seed_ ^ common::fnv1a(site));
    if (default_cfg_) {
      it->second.cfg = *default_cfg_;
      it->second.enabled = true;
    }
  }
  return it->second;
}

void FaultPlan::inject(std::string_view site) {
  std::lock_guard lk(mu_);
  SiteState& s = state_for(site);
  ++s.stats.visits;
  if (!s.enabled) return;
  if (s.stats.visits <= s.cfg.skip_first) return;
  if (s.stats.transient_faults + s.stats.hard_faults >= s.cfg.max_faults) return;

  // Deterministic schedule first, then probabilistic draws in fixed order
  // (hard, transient, latency) so the per-site stream is reproducible.
  const std::uint64_t k = s.stats.visits - s.cfg.skip_first;
  if (s.cfg.every_nth > 0 && k % s.cfg.every_nth == 0) {
    ++s.stats.transient_faults;
    detail::notify_fault(site, "transient");
    throw TransientFault(site);
  }
  if (s.cfg.hard_p > 0.0 && s.rng.bernoulli(s.cfg.hard_p)) {
    ++s.stats.hard_faults;
    detail::notify_fault(site, "hard");
    throw HardFault(site);
  }
  if (s.cfg.transient_p > 0.0 && s.rng.bernoulli(s.cfg.transient_p)) {
    ++s.stats.transient_faults;
    detail::notify_fault(site, "transient");
    throw TransientFault(site);
  }
  if (s.cfg.latency_p > 0.0 && s.rng.bernoulli(s.cfg.latency_p)) {
    ++s.stats.latency_spikes;
    s.stats.injected_latency += s.cfg.latency;
    detail::notify_fault(site, "latency");
  }
}

SiteStats FaultPlan::site_stats(std::string_view site) const {
  std::lock_guard lk(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? SiteStats{} : it->second.stats;
}

std::map<std::string, SiteStats> FaultPlan::all_stats() const {
  std::lock_guard lk(mu_);
  std::map<std::string, SiteStats> out;
  for (const auto& [name, s] : sites_) out[name] = s.stats;
  return out;
}

std::uint64_t FaultPlan::total_faults() const {
  std::lock_guard lk(mu_);
  std::uint64_t n = 0;
  for (const auto& [_, s] : sites_) n += s.stats.transient_faults + s.stats.hard_faults;
  return n;
}

}  // namespace oda::chaos
