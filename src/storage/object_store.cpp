#include "storage/object_store.hpp"

#include "common/faults.hpp"
#include "observe/trace.hpp"

namespace oda::storage {

const char* data_class_name(DataClass c) {
  switch (c) {
    case DataClass::kBronze: return "Bronze";
    case DataClass::kSilver: return "Silver";
    case DataClass::kGold: return "Gold";
  }
  return "?";
}

void ObjectStore::put(const std::string& key, std::vector<std::uint8_t> data, const std::string& dataset,
                      DataClass data_class, common::TimePoint now) {
  static observe::Counter* puts = observe::default_registry().counter("ocean.puts");
  static observe::Counter* put_bytes = observe::default_registry().counter("ocean.put.bytes");
  static const std::uint32_t kLabel = observe::intern_label("ocean.put");
  observe::Span span(kLabel);
  // Fault seam: rejected before the write lands. put is idempotent by key
  // (last write wins), so callers may retry freely.
  chaos::fault_point("ocean.put");
  puts->inc();
  put_bytes->inc(data.size());
  std::lock_guard lk(mu_);
  Entry e;
  e.meta = ObjectMeta{key, dataset, data_class, now, data.size()};
  e.data = std::move(data);
  objects_[key] = std::move(e);
}

std::optional<std::vector<std::uint8_t>> ObjectStore::get(const std::string& key) const {
  static observe::Counter* gets = observe::default_registry().counter("ocean.gets");
  static const std::uint32_t kLabel = observe::intern_label("ocean.get");
  observe::Span span(kLabel);
  chaos::fault_point("ocean.get");
  gets->inc();
  std::lock_guard lk(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second.data;
}

bool ObjectStore::exists(const std::string& key) const {
  std::lock_guard lk(mu_);
  return objects_.count(key) > 0;
}

bool ObjectStore::remove(const std::string& key) {
  std::lock_guard lk(mu_);
  return objects_.erase(key) > 0;
}

std::vector<ObjectMeta> ObjectStore::list(const std::string& prefix) const {
  std::lock_guard lk(mu_);
  std::vector<ObjectMeta> out;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->second.meta);
  }
  return out;
}

std::size_t ObjectStore::total_bytes() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& [_, e] : objects_) total += e.meta.size_bytes;
  return total;
}

std::size_t ObjectStore::object_count() const {
  std::lock_guard lk(mu_);
  return objects_.size();
}

std::size_t ObjectStore::bytes_by_class(DataClass c) const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& [_, e] : objects_) {
    if (e.meta.data_class == c) total += e.meta.size_bytes;
  }
  return total;
}

std::size_t ObjectStore::evict_older_than(common::Duration max_age, common::TimePoint now) {
  std::lock_guard lk(mu_);
  std::size_t freed = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->second.meta.created < now - max_age) {
      freed += it->second.meta.size_bytes;
      it = objects_.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

}  // namespace oda::storage
