// Sharded LRU result cache for the serving layer (DESIGN.md §14).
//
// Entries are whole query results (sql::Table) keyed by the canonical
// query string, validated on every hit against the LAKE's epoch
// fingerprint: an append, retention trim, or series create/remove on any
// matched series makes the fingerprint stale and the entry is dropped at
// next lookup — per-series invalidation-on-append with no global flush
// and no writer-side bookkeeping.
//
// Sharding: keys hash across N independent shards, each with its own
// mutex, LRU list, and byte budget (total/N). Concurrent dashboard
// sessions hitting distinct keys never contend on one lock, and no table
// is copied or freed under a shard lock: entries hold an immutable
// shared table, so sessions hitting the same hot key copy it in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/table.hpp"
#include "storage/tsdb.hpp"

namespace oda::serve {

struct CacheConfig {
  std::size_t total_bytes = 8u << 20;  ///< byte budget across all shards
  std::size_t shards = 8;

  CacheConfig& with_total_bytes(std::size_t n) {
    total_bytes = n;
    return *this;
  }
  CacheConfig& with_shards(std::size_t n) {
    shards = n;
    return *this;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< includes stale drops
  std::uint64_t stale_drops = 0;  ///< entries invalidated by epoch mismatch
  std::uint64_t evictions = 0;    ///< LRU byte-budget evictions
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config = {});

  /// Hit iff the key is present AND its fingerprint is still fresh in
  /// `db`. A stale entry is erased and reported as a miss. The returned
  /// table is a copy, made after the shard lock is released — the caller
  /// owns it outright.
  std::optional<sql::Table> lookup(const std::string& key, const std::string& metric,
                                   const storage::TimeSeriesDb& db);

  /// Insert (or replace) an entry. Returns the number of LRU evictions
  /// the byte budget forced. Results bigger than a whole shard's budget
  /// are not cached (returns 0, inserts nothing).
  std::size_t insert(const std::string& key, const std::string& metric, const sql::Table& result,
                     storage::QueryFingerprint fp);

  CacheStats stats() const;
  std::size_t shard_count() const { return shards_.size(); }

  void clear();

 private:
  struct Entry {
    std::string metric;
    std::shared_ptr<const sql::Table> table;
    storage::QueryFingerprint fp;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;  ///< position in shard LRU
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< front = most recent
    std::size_t bytes = 0;
  };

  Shard& shard_for(const std::string& key);
  static std::size_t entry_bytes(const std::string& key, const sql::Table& t,
                                 const storage::QueryFingerprint& fp);

  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

}  // namespace oda::serve
