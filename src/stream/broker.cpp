#include "stream/broker.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/faults.hpp"
#include "observe/trace.hpp"

namespace oda::stream {

void TopicConfig::validate() const {
  if (num_partitions == 0) {
    throw std::invalid_argument("TopicConfig: num_partitions must be >= 1");
  }
  if (segment_bytes == 0) {
    throw std::invalid_argument("TopicConfig: segment_bytes must be >= 1");
  }
}

Topic::Topic(std::string name, TopicConfig config) : name_(std::move(name)), config_(config) {
  config_.validate();
  partitions_.reserve(config_.num_partitions);
  for (std::size_t i = 0; i < config_.num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>(config_.segment_bytes));
  }
  auto& reg = observe::default_registry();
  obs_produced_records_ = reg.counter("stream.produced.records", {{"topic", name_}});
  obs_produced_bytes_ = reg.counter("stream.produced.bytes", {{"topic", name_}});
  obs_fetched_records_ = reg.counter("stream.fetched.records", {{"topic", name_}});
  obs_fetched_bytes_ = reg.counter("stream.fetched.bytes", {{"topic", name_}});
  base_produced_records_ = obs_produced_records_->value();
  base_produced_bytes_ = obs_produced_bytes_->value();
  base_fetched_records_ = obs_fetched_records_->value();
  base_fetched_bytes_ = obs_fetched_bytes_->value();
}

std::size_t Topic::produce_staged(BatchBuilder& staged) {
  if (staged.empty()) return 0;
  // Fault seam before any append AND before the builder is touched: a
  // faulted flush leaves the staged batch intact, so the retry re-flushes
  // the identical bytes — no re-encode, no partial duplication.
  chaos::fault_point("stream.produce");
  const observe::TraceContext ctx = observe::current_context();
  // Trace continuation: records staged earlier carry no ids of their own,
  // so the flush stamps the producer's current span onto the whole batch
  // and the consuming micro-batch can re-home its span under it.
  const std::uint64_t trace_id = ctx.valid() ? ctx.trace_id : 0;
  const std::uint64_t span_id = ctx.valid() ? ctx.span_id : 0;
  std::size_t keyless = 0;
  for (const auto& e : staged.entries_) keyless += e.key_len == 0 ? 1 : 0;
  std::uint64_t rr = keyless == 0 ? 0 : rr_counter_.fetch_add(keyless, std::memory_order_relaxed);
  // Routing scratch lives in the builder so steady-state flushes reuse its
  // per-partition capacity and allocate nothing.
  auto& route = staged.route_;
  route.resize(partitions_.size());
  for (auto& bucket : route) bucket.clear();
  for (const auto& e : staged.entries_) {
    EncodedRecord r = staged.view(e);
    r.trace_id = trace_id;
    r.span_id = span_id;
    const std::size_t p = r.key.empty() ? rr++ % partitions_.size()
                                        : common::fnv1a(r.key) % partitions_.size();
    route[p].push_back(r);
  }
  const std::size_t n = staged.entries_.size();
  obs_produced_records_->inc(n);
  obs_produced_bytes_->inc(staged.wire_bytes());
  for (std::size_t p = 0; p < route.size(); ++p) {
    if (!route[p].empty()) partitions_[p]->append_encoded_batch(route[p]);
  }
  staged.clear();
  return n;
}

std::size_t Topic::enforce_retention(common::TimePoint now) {
  std::size_t evicted = 0;
  for (auto& p : partitions_) evicted += p->enforce_retention(config_.retention, now);
  evicted_bytes_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void Topic::count_fetched(const FetchView& out) {
  if (out.empty()) return;
  obs_fetched_records_->inc(out.size());
  std::size_t bytes = 0;
  for (const RecordView& v : out) bytes += v.wire_size();
  obs_fetched_bytes_->inc(bytes);
}

TopicStats Topic::stats() const {
  TopicStats s;
  s.produced_records = obs_produced_records_->value() - base_produced_records_;
  s.produced_bytes = obs_produced_bytes_->value() - base_produced_bytes_;
  s.fetched_records = obs_fetched_records_->value() - base_fetched_records_;
  s.fetched_bytes = obs_fetched_bytes_->value() - base_fetched_bytes_;
  s.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  for (const auto& p : partitions_) {
    s.retained_records += p->record_count();
    s.retained_bytes += p->size_bytes();
  }
  return s;
}

Topic& Broker::create_topic(const std::string& name, TopicConfig config) {
  std::lock_guard lk(mu_);
  auto it = topics_.find(name);
  if (it != topics_.end()) return *it->second;
  auto [inserted, _] = topics_.emplace(name, std::make_unique<Topic>(name, config));
  return *inserted->second;
}

Topic& Broker::topic(const std::string& name) {
  std::lock_guard lk(mu_);
  auto it = topics_.find(name);
  if (it == topics_.end()) throw std::out_of_range("Broker: unknown topic '" + name + "'");
  return *it->second;
}

const Topic* Broker::find_topic(const std::string& name) const {
  std::lock_guard lk(mu_);
  auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : it->second.get();
}

bool Broker::has_topic(const std::string& name) const { return find_topic(name) != nullptr; }

std::vector<std::string> Broker::topic_names() const {
  std::lock_guard lk(mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [n, _] : topics_) names.push_back(n);
  return names;
}

std::size_t Broker::enforce_retention(common::TimePoint now) {
  std::vector<Topic*> ts;
  {
    std::lock_guard lk(mu_);
    for (auto& [_, t] : topics_) ts.push_back(t.get());
  }
  std::size_t evicted = 0;
  for (Topic* t : ts) evicted += t->enforce_retention(now);
  return evicted;
}

void Broker::set_retention_all(const RetentionPolicy& policy) {
  std::lock_guard lk(mu_);
  for (auto& [_, t] : topics_) t->set_retention(policy);
}

bool Broker::commit_fenced(const std::string& group, const TopicPartition& tp, std::int64_t offset,
                           std::uint64_t generation) {
  std::lock_guard lk(mu_);
  auto it = groups_.find({group, tp.topic});
  if (it == groups_.end() || it->second.generation != generation) return false;
  offsets_[{group, tp}] = offset;
  return true;
}

std::optional<std::int64_t> Broker::committed(const std::string& group, const TopicPartition& tp) const {
  std::lock_guard lk(mu_);
  auto it = offsets_.find({group, tp});
  if (it == offsets_.end()) return std::nullopt;
  return it->second;
}

std::vector<CommittedOffset> Broker::committed_offsets() const {
  std::lock_guard lk(mu_);
  std::vector<CommittedOffset> out;
  out.reserve(offsets_.size());
  for (const auto& [key, offset] : offsets_) {
    out.push_back(CommittedOffset{key.first, key.second, offset});
  }
  return out;
}

std::int64_t Broker::lag(const std::string& group, const std::string& topic_name) const {
  const Topic* t = find_topic(topic_name);
  if (!t) return 0;
  std::int64_t total = 0;
  for (std::size_t p = 0; p < t->num_partitions(); ++p) {
    const std::int64_t end = t->partition(p).end_offset();
    const std::int64_t committed_off =
        committed(group, TopicPartition{topic_name, p}).value_or(t->partition(p).start_offset());
    total += end - committed_off;
  }
  return total;
}

std::size_t Broker::total_bytes() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& [_, t] : topics_) {
    for (std::size_t p = 0; p < t->num_partitions(); ++p) total += t->partition(p).size_bytes();
  }
  return total;
}

std::uint64_t Broker::join_group(const std::string& group, const std::string& topic) {
  std::lock_guard lk(mu_);
  GroupState& gs = groups_[{group, topic}];
  const std::uint64_t id = gs.next_member_id++;
  gs.members.push_back(id);
  ++gs.generation;
  gs.gen_cell->store(gs.generation, std::memory_order_release);
  return id;
}

void Broker::leave_group(const std::string& group, const std::string& topic,
                         std::uint64_t member_id) {
  std::lock_guard lk(mu_);
  auto it = groups_.find({group, topic});
  if (it == groups_.end()) return;
  auto& members = it->second.members;
  const auto pos = std::find(members.begin(), members.end(), member_id);
  if (pos == members.end()) return;
  members.erase(pos);
  ++it->second.generation;
  it->second.gen_cell->store(it->second.generation, std::memory_order_release);
}

std::shared_ptr<const std::atomic<std::uint64_t>> Broker::generation_cell(
    const std::string& group, const std::string& topic) const {
  std::lock_guard lk(mu_);
  auto it = groups_.find({group, topic});
  return it == groups_.end() ? nullptr : it->second.gen_cell;
}

std::vector<std::size_t> Broker::assignments(const std::string& group, const std::string& topic,
                                             std::uint64_t member_id,
                                             std::uint64_t* generation_out) const {
  std::size_t num_partitions = 0;
  {
    // Topic lookup uses the same mutex; read partition count first.
    auto* t = find_topic(topic);
    if (t) num_partitions = t->num_partitions();
  }
  std::lock_guard lk(mu_);
  std::vector<std::size_t> out;
  auto it = groups_.find({group, topic});
  if (it == groups_.end()) return out;
  if (generation_out) *generation_out = it->second.generation;
  const auto& members = it->second.members;
  const auto pos = std::find(members.begin(), members.end(), member_id);
  if (pos == members.end() || members.empty()) return out;
  const std::size_t index = static_cast<std::size_t>(pos - members.begin());
  for (std::size_t p = index; p < num_partitions; p += members.size()) out.push_back(p);
  return out;
}

std::uint64_t Broker::group_generation(const std::string& group, const std::string& topic) const {
  std::lock_guard lk(mu_);
  auto it = groups_.find({group, topic});
  return it == groups_.end() ? 0 : it->second.generation;
}

GroupMember::GroupMember(Broker& broker, std::string group, std::string topic)
    : broker_(broker), group_(std::move(group)), topic_(std::move(topic)) {
  member_id_ = broker_.join_group(group_, topic_);
  gen_cell_ = broker_.generation_cell(group_, topic_);
  refresh_assignments();
}

GroupMember::~GroupMember() { leave(); }

void GroupMember::leave() {
  if (left_) return;
  left_ = true;
  broker_.leave_group(group_, topic_, member_id_);
}

void GroupMember::refresh_assignments() {
  // Fast path: one relaxed load against the broker's shared generation
  // cell. Long-lived engine workers poll through here every micro-batch;
  // the broker mutex is only taken when a rebalance actually moved the
  // generation. A stale read at worst delays the re-assignment by one
  // poll — exactly the window the fenced commit already guards.
  if (gen_cell_ && gen_cell_->load(std::memory_order_acquire) == generation_) return;
  std::uint64_t generation = 0;
  auto assigned = broker_.assignments(group_, topic_, member_id_, &generation);
  if (generation == generation_) return;
  generation_ = generation;
  assigned_ = std::move(assigned);
  // Resume every newly assigned partition from the group's commit.
  Topic& t = broker_.topic(topic_);
  positions_.clear();
  for (std::size_t p : assigned_) {
    positions_[p] =
        broker_.committed(group_, TopicPartition{topic_, p}).value_or(t.partition(p).start_offset());
  }
}

std::vector<PartitionBatchView> GroupMember::poll_by_partition(std::size_t max_per_partition) {
  refresh_assignments();
  Topic& t = broker_.topic(topic_);
  std::vector<PartitionBatchView> out;
  out.reserve(assigned_.size());
  for (std::size_t p : assigned_) {
    PartitionBatchView pb;
    pb.partition = p;
    positions_[p] = t.partition(p).fetch_view(positions_[p], max_per_partition, pb.records);
    t.count_fetched(pb.records);
    if (!pb.records.empty()) out.push_back(std::move(pb));
  }
  return out;
}

FetchView GroupMember::poll(std::size_t max_per_partition) {
  std::vector<PartitionBatchView> batches = poll_by_partition(max_per_partition);
  std::size_t total = 0;
  for (const PartitionBatchView& pb : batches) total += pb.records.size();
  FetchView out;
  out.reserve(total);  // one allocation for the splice, not one per doubling
  for (PartitionBatchView& pb : batches) out.append(std::move(pb.records));
  return out;
}

void GroupMember::commit() {
  for (const auto& [p, offset] : positions_) {
    // Fenced: a rebalance since our last refresh voids these positions —
    // the new owner re-reads from the last accepted commit instead of
    // having its progress regressed by ours.
    broker_.commit_fenced(group_, TopicPartition{topic_, p}, offset, generation_);
  }
}

void GroupMember::seek_to_committed() {
  refresh_assignments();
  Topic& t = broker_.topic(topic_);
  for (std::size_t p : assigned_) {
    positions_[p] =
        broker_.committed(group_, TopicPartition{topic_, p}).value_or(t.partition(p).start_offset());
  }
}

void GroupMember::seek_to_time(common::TimePoint time) {
  refresh_assignments();
  Topic& t = broker_.topic(topic_);
  for (std::size_t p : assigned_) positions_[p] = t.partition(p).offset_for_time(time);
}

std::int64_t GroupMember::lag() const {
  const Topic* t = broker_.find_topic(topic_);
  if (!t) return 0;
  std::int64_t total = 0;
  for (std::size_t p : assigned_) {
    auto it = positions_.find(p);
    if (it == positions_.end()) continue;
    total += t->partition(p).end_offset() - it->second;
  }
  return total;
}

}  // namespace oda::stream
