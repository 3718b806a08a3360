#include "observe/flight.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace oda::observe {

namespace detail {
std::atomic<FlightRecorder*> g_flight{nullptr};
}

namespace {
thread_local std::uint32_t t_flight_ring = 0;
}  // namespace

std::uint32_t thread_flight_ring() { return t_flight_ring; }

ScopedFlightRing::ScopedFlightRing(std::uint32_t ring) : prev_(t_flight_ring) {
  t_flight_ring = ring;
}

ScopedFlightRing::~ScopedFlightRing() { t_flight_ring = prev_; }

const char* flight_event_type_name(FlightEventType t) {
  switch (t) {
    case FlightEventType::kPhaseBegin: return "phase_begin";
    case FlightEventType::kPhaseEnd: return "phase_end";
    case FlightEventType::kFault: return "fault";
    case FlightEventType::kRetry: return "retry";
    case FlightEventType::kRebalance: return "rebalance";
    case FlightEventType::kSlo: return "slo";
    case FlightEventType::kMark: return "mark";
    case FlightEventType::kSpanBegin: return "span_begin";
    case FlightEventType::kSpanEnd: return "span_end";
  }
  return "?";
}

const char* flight_phase_name(FlightPhase p) {
  switch (p) {
    case FlightPhase::kNone: return "";
    case FlightPhase::kFetch: return "fetch";
    case FlightPhase::kDecode: return "decode";
    case FlightPhase::kOperate: return "operate";
    case FlightPhase::kBarrier: return "barrier";
    case FlightPhase::kMerge: return "merge";
    case FlightPhase::kCommit: return "commit";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// The process-wide label table
// ---------------------------------------------------------------------------

namespace {

struct LabelTable {
  std::mutex mu;
  std::deque<std::string> texts{std::string{}};  ///< id -> text; deque keeps views stable
  std::unordered_map<std::string_view, std::uint32_t> ids{{std::string_view{}, 0}};
};

LabelTable& label_table() {
  static LabelTable table;
  return table;
}

std::vector<std::string> label_snapshot() {
  LabelTable& t = label_table();
  std::lock_guard lk(t.mu);
  return {t.texts.begin(), t.texts.end()};
}

}  // namespace

std::uint32_t intern_label(std::string_view text) {
  LabelTable& t = label_table();
  std::lock_guard lk(t.mu);
  if (auto it = t.ids.find(text); it != t.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(t.texts.size());
  t.ids.emplace(t.texts.emplace_back(text), id);
  return id;
}

// ---------------------------------------------------------------------------
// FlightRing
// ---------------------------------------------------------------------------

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t pack_meta(FlightEventType type, FlightPhase phase, std::uint32_t label) {
  return static_cast<std::uint64_t>(type) | (static_cast<std::uint64_t>(phase) << 8) |
         (static_cast<std::uint64_t>(label) << 32);
}

}  // namespace

FlightRing::FlightRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))) {
  mask_ = slots_.size() - 1;
}

void FlightRing::emit(FlightEventType type, FlightPhase phase, std::uint32_t label,
                      std::uint64_t arg, common::TimePoint vt, std::uint64_t wall_ns,
                      const FlightIds& ids) {
  const std::uint64_t ticket = tickets_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[(ticket - 1) & mask_];
  // Odd state marks the slot in-progress. Release payload stores order
  // that mark before them, so a reader whose acquire load sees a new
  // payload word also sees the odd state on its re-check; the even
  // publish store releases the whole payload.
  constexpr auto rel = std::memory_order_release;
  s.state.store(ticket * 2 + 1, std::memory_order_relaxed);
  s.vt.store(static_cast<std::uint64_t>(vt), rel);
  s.wall_ns.store(wall_ns, rel);
  s.meta.store(pack_meta(type, phase, label), rel);
  s.arg.store(arg, rel);
  s.span.store(ids.span, rel);
  s.parent.store(ids.parent, rel);
  s.trace.store(ids.trace, rel);
  s.state.store(ticket * 2, rel);
}

std::vector<FlightEvent> FlightRing::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t st = s.state.load(std::memory_order_acquire);
    if (st == 0 || (st & 1) != 0) continue;  // empty or mid-write
    // Acquire payload loads keep the state re-check below after them: a
    // writer lapping this slot mid-read leaves the words inconsistent,
    // and the changed state word drops the slot.
    constexpr auto acq = std::memory_order_acquire;
    FlightEvent e;
    e.vt = static_cast<common::TimePoint>(s.vt.load(acq));
    e.wall_ns = s.wall_ns.load(acq);
    const std::uint64_t meta = s.meta.load(acq);
    e.arg = s.arg.load(acq);
    e.ids = {s.span.load(acq), s.parent.load(acq), s.trace.load(acq)};
    if (s.state.load(std::memory_order_relaxed) != st) continue;
    e.seq = st / 2;
    e.type = static_cast<FlightEventType>(meta & 0xff);
    e.phase = static_cast<FlightPhase>((meta >> 8) & 0xff);
    e.label = static_cast<std::uint32_t>(meta >> 32);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  return out;
}

std::uint64_t FlightRing::dropped() const {
  const std::uint64_t total = emitted();
  return total > slots_.size() ? total - slots_.size() : 0;
}

// ---------------------------------------------------------------------------
// FlightDump
// ---------------------------------------------------------------------------

namespace {
const std::string kEmpty;
}

const std::string& FlightDump::ring_name(std::uint32_t r) const {
  return r < ring_names.size() ? ring_names[r] : kEmpty;
}

const std::string& FlightDump::label_text(std::uint32_t id) const {
  return id < labels.size() ? labels[id] : kEmpty;
}

std::string FlightSpan::name(const FlightDump& d) const {
  return is_phase() ? flight_phase_name(phase) : d.label_text(label);
}

std::vector<FlightSpan> FlightDump::spans() const {
  std::vector<FlightSpan> out;
  // Open begins: spans by id, phases by (ring, phase) — phase pairs never
  // interleave within one ring.
  std::unordered_map<std::uint64_t, const FlightEvent*> open_spans;
  std::unordered_map<std::uint64_t, const FlightEvent*> open_phases;
  auto phase_key = [](const FlightEvent& e) {
    return (static_cast<std::uint64_t>(e.ring) << 8) | static_cast<std::uint64_t>(e.phase);
  };
  for (const FlightEvent& e : events) {
    switch (e.type) {
      case FlightEventType::kSpanBegin: open_spans[e.ids.span] = &e; break;
      case FlightEventType::kPhaseBegin: open_phases[phase_key(e)] = &e; break;
      case FlightEventType::kSpanEnd:
      case FlightEventType::kPhaseEnd: {
        const bool phase = e.type == FlightEventType::kPhaseEnd;
        auto& open = phase ? open_phases : open_spans;
        const auto it = open.find(phase ? phase_key(e) : e.ids.span);
        const FlightEvent* begin = it != open.end() ? it->second : &e;
        if (it != open.end()) open.erase(it);
        FlightSpan s;
        s.ids = e.ids;
        s.ring = e.ring;
        s.label = phase ? 0 : e.label;
        s.phase = phase ? e.phase : FlightPhase::kNone;
        s.vt_begin = begin->vt;
        s.vt_end = e.vt;
        s.wall_begin_ns = begin->wall_ns;
        s.wall_end_ns = e.wall_ns;
        s.rows = phase ? e.arg : 0;
        out.push_back(s);
        break;
      }
      default: break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t rings, std::size_t capacity_per_ring)
    : epoch_(std::chrono::steady_clock::now()) {
  rings_.reserve(std::max<std::size_t>(rings, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(rings, 1); ++i) {
    rings_.push_back(std::make_unique<FlightRing>(capacity_per_ring));
  }
}

void FlightRecorder::emit(std::size_t ring, FlightEventType type, FlightPhase phase,
                          std::uint64_t arg, std::uint32_t label, const FlightIds& ids) {
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch_)
          .count());
  rings_[ring % rings_.size()]->emit(type, phase, label, arg, virtual_now(), wall_ns, ids);
}

std::uint64_t FlightRecorder::emitted() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->emitted();
  return total;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

void FlightRecorder::request_dump(std::string_view reason) {
  {
    std::lock_guard lk(reason_mu_);
    if (reason_.empty()) reason_ = std::string(reason);
  }
  dump_requested_.store(true, std::memory_order_release);
}

std::string FlightRecorder::take_dump_reason() {
  dump_requested_.store(false, std::memory_order_release);
  std::lock_guard lk(reason_mu_);
  std::string out = std::move(reason_);
  reason_.clear();
  return out;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    auto events = rings_[r]->snapshot();
    for (FlightEvent& e : events) e.ring = static_cast<std::uint32_t>(r);
    out.insert(out.end(), events.begin(), events.end());
  }
  // The single ordered timeline: wall clock first (it is monotonic and
  // shared across threads), ring then per-ring ticket break ties.
  std::sort(out.begin(), out.end(), [](const FlightEvent& a, const FlightEvent& b) {
    if (a.wall_ns != b.wall_ns) return a.wall_ns < b.wall_ns;
    if (a.ring != b.ring) return a.ring < b.ring;
    return a.seq < b.seq;
  });
  return out;
}

FlightDump FlightRecorder::dump(std::string trigger, std::vector<std::string> ring_names) {
  FlightDump d;
  const std::string pending = take_dump_reason();
  d.trigger = !trigger.empty() ? std::move(trigger) : (!pending.empty() ? pending : "explicit");
  d.vt = virtual_now();
  d.capacity = ring_capacity();
  d.emitted = emitted();
  d.dropped = dropped();
  if (ring_names.size() == rings_.size()) {
    d.ring_names = std::move(ring_names);
  } else {
    for (std::size_t i = 0; i < rings_.size(); ++i) d.ring_names.push_back("ring" + std::to_string(i));
  }
  // Events first: every label they reference was interned before they
  // were emitted, so the table snapshot taken after resolves them all.
  d.events = snapshot();
  d.labels = label_snapshot();
  return d;
}

void uninstall_flight_recorder(FlightRecorder* r) {
  FlightRecorder* expected = r;
  detail::g_flight.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

void flight_mark(std::uint32_t label, std::uint64_t arg) {
  if (FlightRecorder* fr = installed_flight_recorder()) {
    fr->emit(thread_flight_ring(), FlightEventType::kMark, FlightPhase::kNone, arg, label);
  }
}

void flight_note_slo(const std::string& name, std::uint8_t from, std::uint8_t to) {
  FlightRecorder* fr = installed_flight_recorder();
  if (fr == nullptr) return;
  const std::uint64_t arg = (static_cast<std::uint64_t>(from) << 8) | to;
  fr->emit(thread_flight_ring(), FlightEventType::kSlo, FlightPhase::kNone, arg,
           intern_label(name));
  if (to == 2) fr->request_dump("slo.breach:" + name);  // SloState::kBreached
}

}  // namespace oda::observe
