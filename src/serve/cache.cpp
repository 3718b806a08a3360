#include "serve/cache.hpp"

#include <functional>

namespace oda::serve {

ResultCache::ResultCache(CacheConfig config) {
  if (config.shards == 0) config.shards = 1;
  shard_budget_ = config.total_bytes / config.shards;
  if (shard_budget_ == 0) shard_budget_ = 1;  // degenerate budget: cache nothing real
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::size_t ResultCache::entry_bytes(const std::string& key, const sql::Table& t,
                                     const storage::QueryFingerprint& fp) {
  return key.size() + t.memory_bytes() + fp.series.size() * sizeof(fp.series[0]) + 128;
}

std::optional<sql::Table> ResultCache::lookup(const std::string& key, const std::string& metric,
                                              const storage::TimeSeriesDb& db) {
  Shard& sh = shard_for(key);
  std::shared_ptr<const sql::Table> table;  // released (or copied) after unlocking
  {
    std::lock_guard lk(sh.mu);
    const auto it = sh.map.find(key);
    if (it == sh.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Entry& e = it->second;
    table = e.table;
    if (!db.fingerprint_fresh(metric, e.fp)) {
      // Some matched series moved on since this result was computed —
      // drop the entry; the caller recomputes and re-inserts.
      sh.bytes -= e.bytes;
      sh.lru.erase(e.lru_it);
      sh.map.erase(it);
      stale_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);  // touch: move to front
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return *table;
}

std::size_t ResultCache::insert(const std::string& key, const std::string& metric,
                                const sql::Table& result, storage::QueryFingerprint fp) {
  const std::size_t bytes = entry_bytes(key, result, fp);
  if (bytes > shard_budget_) return 0;  // would evict the whole shard for one entry
  auto table = std::make_shared<const sql::Table>(result);
  std::vector<std::shared_ptr<const sql::Table>> dropped;  // freed after unlocking
  Shard& sh = shard_for(key);
  std::lock_guard lk(sh.mu);
  if (const auto it = sh.map.find(key); it != sh.map.end()) {
    sh.bytes -= it->second.bytes;
    sh.lru.erase(it->second.lru_it);
    dropped.push_back(std::move(it->second.table));
    sh.map.erase(it);
  }
  std::size_t evicted = 0;
  while (sh.bytes + bytes > shard_budget_ && !sh.lru.empty()) {
    const std::string& victim = sh.lru.back();
    const auto vit = sh.map.find(victim);
    sh.bytes -= vit->second.bytes;
    dropped.push_back(std::move(vit->second.table));
    sh.map.erase(vit);
    sh.lru.pop_back();
    ++evicted;
  }
  sh.lru.push_front(key);
  Entry e;
  e.metric = metric;
  e.table = std::move(table);
  e.fp = std::move(fp);
  e.bytes = bytes;
  e.lru_it = sh.lru.begin();
  sh.map.emplace(key, std::move(e));
  sh.bytes += bytes;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stale_drops = stale_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  for (const auto& sh : shards_) {
    std::lock_guard lk(sh->mu);
    s.entries += sh->map.size();
    s.bytes += sh->bytes;
  }
  return s;
}

void ResultCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard lk(sh->mu);
    sh->map.clear();
    sh->lru.clear();
    sh->bytes = 0;
  }
}

}  // namespace oda::serve
