#include "storage/tiers.hpp"

#include "observe/metrics.hpp"
#include "observe/trace.hpp"

namespace oda::storage {

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kStream: return "STREAM";
    case Tier::kLake: return "LAKE";
    case Tier::kOcean: return "OCEAN";
    case Tier::kGlacier: return "GLACIER";
  }
  return "?";
}

TierManager::TierManager(stream::Broker& broker, TimeSeriesDb& lake, ObjectStore& ocean,
                         TapeArchive& glacier, TierRetention retention)
    : broker_(broker), lake_(lake), ocean_(ocean), glacier_(glacier), retention_(retention) {}

TierManager::RetentionOutcome TierManager::enforce(common::TimePoint now) {
  static observe::Counter* sweeps = observe::default_registry().counter("tiers.sweeps");
  static observe::Counter* migrated = observe::default_registry().counter("tiers.migrated.objects");
  static observe::Counter* migrated_bytes =
      observe::default_registry().counter("tiers.migrated.bytes");
  static observe::Counter* deferred = observe::default_registry().counter("tiers.migrations.deferred");
  static const std::uint32_t kLabel = observe::intern_label("tiers.enforce");
  observe::Span sweep_span(kLabel);
  sweeps->inc();

  RetentionOutcome out;
  // The STREAM tier owns its topics' retention: apply the tier policy
  // before sweeping so per-topic defaults can't outlive the tier config.
  broker_.set_retention_all(stream::RetentionPolicy{retention_.stream_age, -1});
  out.stream_bytes_evicted = broker_.enforce_retention(now);
  out.lake_points_evicted = lake_.evict_older_than(retention_.lake_age, now);

  // OCEAN → GLACIER migration for aged-out objects. The faultable steps
  // (the migrate seam and the object read) all precede the archive write,
  // so a retried unit never lands an object in GLACIER twice.
  chaos::Retrier retrier(migration_retry_, /*seed=*/0x71e25ull ^ static_cast<std::uint64_t>(now));
  for (const auto& meta : ocean_.list()) {
    if (meta.created < now - retention_.ocean_age) {
      static const std::uint32_t kLabel = observe::intern_label("tiers.migrate");
      observe::Span unit_span(kLabel);
      try {
        retrier.run("tiers.migrate", [&] {
          chaos::fault_point("tiers.migrate");
          if (auto data = ocean_.get(meta.key)) {
            glacier_.archive(meta.key, std::move(*data), now);
            ocean_.remove(meta.key);
            ++out.ocean_objects_migrated;
            out.ocean_bytes_migrated += meta.size_bytes;
            migrated->inc();
            migrated_bytes->inc(meta.size_bytes);
          }
        });
      } catch (const std::exception&) {
        ++out.ocean_migrations_deferred;  // stays in OCEAN for the next sweep
        deferred->inc();
      }
    }
  }
  out.migration_retries = retrier.stats().retries;
  return out;
}

std::vector<TierReport> TierManager::report() const {
  std::vector<TierReport> out;

  TierReport stream_r;
  stream_r.tier = Tier::kStream;
  stream_r.focus = "in-flight Bronze streams (FIFO buffers)";
  stream_r.retention = retention_.stream_age;
  std::size_t records = 0;
  for (const auto& name : broker_.topic_names()) {
    const auto stats = broker_.topic(name).stats();
    stream_r.bytes += stats.retained_bytes;
    records += stats.retained_records;
  }
  stream_r.items = records;
  stream_r.typical_access_latency = 5 * common::kMillisecond;
  out.push_back(stream_r);

  TierReport lake_r;
  lake_r.tier = Tier::kLake;
  lake_r.focus = "online Silver time series (real-time diagnostics)";
  lake_r.retention = retention_.lake_age;
  lake_r.bytes = lake_.memory_bytes();
  lake_r.items = lake_.point_count();
  lake_r.typical_access_latency = 50 * common::kMillisecond;
  out.push_back(lake_r);

  TierReport ocean_r;
  ocean_r.tier = Tier::kOcean;
  ocean_r.focus = "compressed Silver/Gold columnar datasets";
  ocean_r.retention = retention_.ocean_age;
  ocean_r.bytes = ocean_.total_bytes();
  ocean_r.items = ocean_.object_count();
  ocean_r.typical_access_latency = 2 * common::kSecond;
  out.push_back(ocean_r);

  TierReport glacier_r;
  glacier_r.tier = Tier::kGlacier;
  glacier_r.focus = "frozen Bronze archives (long-term preservation)";
  glacier_r.retention = 0;
  glacier_r.bytes = glacier_.total_bytes();
  glacier_r.items = glacier_.object_count();
  glacier_r.typical_access_latency = 90 * common::kSecond;
  out.push_back(glacier_r);

  return out;
}

}  // namespace oda::storage
