// Flight recorder — the process's one timeline. A run explains every
// stall, every fault, every microsecond after the fact from per-thread,
// fixed-capacity ring buffers of compact binary events: engine phase
// begin/end (fetch/decode/operate/barrier/merge/commit), trace span
// begin/end (observe::Span, observe/trace.hpp), row counts, retries,
// faults, rebalances, SLO transitions and marks. Writers are lock-free
// (one ticket fetch_add plus a handful of atomic stores, publish with
// release); readers snapshot concurrently without stopping the writers
// and simply skip slots caught mid-write.
//
// Recording is strictly out-of-band of the data path: events observe
// the generation protocol, they never participate in it. Committed sink
// bytes are byte-identical with the recorder on or off at any worker
// count — the golden-run invariant extends over this file (see
// DESIGN.md §13 and tests/flight_test.cpp).
//
// Labels (span names, query names, marks) live in ONE process-wide
// table: intern_label() takes a mutex and is called once per call site,
// query or operator; events carry only the id, so emitting takes no
// lock and builds no string. Dumps resolve the ids.
//
// Ring lifetime rules:
//   - Ring count and per-ring capacity are fixed at construction; slots
//     are overwritten oldest-first once a ring laps (newest events win,
//     dropped() counts the evictions).
//   - Ring 1 + w belongs to engine worker w (worker 0's phases run on
//     the driver thread but still write ring 1); ring 0 is every other
//     thread: the engine driver, framework steps, serving. A thread
//     routes its spans and marks through thread_flight_ring(), which the
//     engine sets around a worker's phases, so each ring has one writer
//     inside an engine; concurrent writers to one ring stay memory-safe
//     (every slot word is an atomic), a contended slot is at worst
//     skipped by the snapshot as in-progress.
//   - Snapshots may run at any time from any thread; they order events
//     by (wall_ns, ring, seq) into the single timeline a dump exports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "observe/metrics.hpp"

namespace oda::observe {

enum class FlightEventType : std::uint8_t {
  kPhaseBegin = 0,  ///< phase entered (arg unused)
  kPhaseEnd = 1,    ///< phase left (arg = rows handled, when meaningful)
  kFault = 2,       ///< exception surfaced (label = message)
  kRetry = 3,       ///< retry seam re-attempt (arg = attempt number)
  kRebalance = 4,   ///< partition ownership changed (arg = owned count)
  kSlo = 5,         ///< SLO transition (label = name, arg = from<<8|to)
  kMark = 6,        ///< free-form marker (label = what, arg = detail)
  kSpanBegin = 7,   ///< trace span opened (label = span name)
  kSpanEnd = 8,     ///< trace span closed (ids = final parent and trace)
};
const char* flight_event_type_name(FlightEventType t);

enum class FlightPhase : std::uint8_t {
  kNone = 0,
  kFetch = 1,
  kDecode = 2,
  kOperate = 3,
  kBarrier = 4,  ///< waiting at the generation barrier (stall time)
  kMerge = 5,    ///< driver: deterministic merge + sink writes
  kCommit = 6,   ///< driver: sinks → lanes → offsets commit
};
const char* flight_phase_name(FlightPhase p);
/// Number of distinct FlightPhase values (array sizing).
inline constexpr std::size_t kFlightPhases = 7;

/// Where an event hangs in the span forest. Span events carry their own
/// span id, its parent and its trace (the end event's parent and trace
/// are final: Span::link may re-home a span after it opened). Engine
/// phase events carry span 0 and the enclosing batch span as parent.
/// Other events carry zeros.
struct FlightIds {
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
};

/// One decoded event, as snapshots and dumps carry it.
struct FlightEvent {
  std::uint64_t seq = 0;   ///< per-ring ticket, 1-based (ring-local order)
  std::uint32_t ring = 0;  ///< which ring emitted it
  FlightEventType type = FlightEventType::kMark;
  FlightPhase phase = FlightPhase::kNone;
  std::uint32_t label = 0;  ///< interned label id (0 = none)
  std::uint64_t arg = 0;
  common::TimePoint vt = 0;   ///< virtual facility time at emit
  std::uint64_t wall_ns = 0;  ///< wall clock, ns since recorder creation
  FlightIds ids;
};

/// Intern `text` in the process-wide label table and return its stable
/// id (>= 1; the empty string is 0). Takes a mutex: call it once per
/// call site, query or operator and keep the id.
std::uint32_t intern_label(std::string_view text);

/// One fixed-capacity event ring. Writers pay one relaxed fetch_add and
/// eight atomic stores; a slot is published with a release store of its
/// even sequence word, so a concurrent snapshot either sees the whole
/// event or skips the slot.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  void emit(FlightEventType type, FlightPhase phase, std::uint32_t label, std::uint64_t arg,
            common::TimePoint vt, std::uint64_t wall_ns, const FlightIds& ids = {});

  /// Published events, oldest retained first (ordered by ticket). Safe
  /// to call concurrently with emit(); in-progress slots are skipped.
  std::vector<FlightEvent> snapshot() const;

  std::uint64_t emitted() const { return tickets_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const;
  std::size_t capacity() const { return slots_.size(); }

 private:
  // Slot encoding: state == 0 empty, odd = write in progress, even =
  // published ticket*2. Payload words are individually atomic so a
  // concurrent reader never tears a value (and TSan stays quiet).
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> state{0};
    std::atomic<std::uint64_t> vt{0};
    std::atomic<std::uint64_t> wall_ns{0};
    std::atomic<std::uint64_t> meta{0};  ///< type | phase<<8 | label<<32
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> span{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> trace{0};
  };

  std::vector<Slot> slots_;  ///< power-of-two size
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> tickets_{0};
};

struct FlightDump;

/// One interval rebuilt from a dump: a trace span (begin/end pair
/// matched by span id) or an engine phase (begin/end pair on one ring).
struct FlightSpan {
  FlightIds ids;  ///< spans: own id, parent, trace; phases: span 0
  std::uint32_t ring = 0;
  std::uint32_t label = 0;                 ///< span name (0 for phases)
  FlightPhase phase = FlightPhase::kNone;  ///< kNone for spans
  common::TimePoint vt_begin = 0;
  common::TimePoint vt_end = 0;
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::uint64_t rows = 0;  ///< phases: rows handled (the end event's arg)

  bool is_phase() const { return phase != FlightPhase::kNone; }
  /// Span name, or phase name for phases.
  std::string name(const FlightDump& d) const;
};

/// A multi-ring dump: the single ordered timeline plus everything needed
/// to render it standalone (ring names, resolved label table, trigger).
struct FlightDump {
  std::string trigger;       ///< what caused the dump ("explicit", "slo.breach:...", ...)
  common::TimePoint vt = 0;  ///< virtual time the dump was taken
  std::size_t capacity = 0;  ///< per-ring slot count
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  std::vector<std::string> ring_names;  ///< index = FlightEvent::ring
  std::vector<std::string> labels;      ///< index = FlightEvent::label; [0] = ""
  std::vector<FlightEvent> events;      ///< ordered by (wall_ns, ring, seq)

  const std::string& ring_name(std::uint32_t r) const;
  const std::string& label_text(std::uint32_t id) const;

  /// Every closed span and phase interval, in completion order (the
  /// order of their end events). A span whose begin event was evicted
  /// keeps its end's times for both ends; one still open is left out.
  std::vector<FlightSpan> spans() const;
};

/// The recorder: N rings plus a dump-request latch (chaos fault fired,
/// SLO breached, query errored — anything may raise it; the owner
/// exports when convenient).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t rings, std::size_t capacity_per_ring = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t num_rings() const { return rings_.size(); }
  std::size_t ring_capacity() const { return rings_.empty() ? 0 : rings_.front()->capacity(); }

  /// Stamp and store one event (virtual time from observe::virtual_now,
  /// wall ns since recorder creation). Hot path: no locks. Rings past
  /// num_rings() wrap.
  void emit(std::size_t ring, FlightEventType type, FlightPhase phase = FlightPhase::kNone,
            std::uint64_t arg = 0, std::uint32_t label = 0, const FlightIds& ids = {});

  std::uint64_t emitted() const;
  std::uint64_t dropped() const;

  /// Raise the dump latch (idempotent). First reason sticks until taken.
  void request_dump(std::string_view reason);
  bool dump_requested() const { return dump_requested_.load(std::memory_order_acquire); }
  /// Lower the latch and return its reason ("" when it was never raised).
  std::string take_dump_reason();

  /// All rings merged into one ordered timeline (wall_ns, ring, seq).
  std::vector<FlightEvent> snapshot() const;

  /// Snapshot + metadata. `trigger` falls back to a pending dump-request
  /// reason when empty; ring_names default to "ring<i>".
  FlightDump dump(std::string trigger = {}, std::vector<std::string> ring_names = {});

 private:
  std::vector<std::unique_ptr<FlightRing>> rings_;
  std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> dump_requested_{false};
  std::mutex reason_mu_;
  std::string reason_;
};

namespace detail {
extern std::atomic<FlightRecorder*> g_flight;
}

/// Process-wide recorder hook: spans, serving marks and SLO transitions
/// land on the installed recorder (engines install theirs). Recording
/// is off unless one is installed.
inline void install_flight_recorder(FlightRecorder* r) {
  detail::g_flight.store(r, std::memory_order_release);
}
inline FlightRecorder* installed_flight_recorder() {
  return detail::g_flight.load(std::memory_order_acquire);
}
/// Uninstall only if `r` is still the installed recorder (owner dtors).
void uninstall_flight_recorder(FlightRecorder* r);

/// RAII installation for tests and apps.
class ScopedFlightRecorder {
 public:
  explicit ScopedFlightRecorder(FlightRecorder& r) : r_(&r) { install_flight_recorder(r_); }
  ~ScopedFlightRecorder() { uninstall_flight_recorder(r_); }
  ScopedFlightRecorder(const ScopedFlightRecorder&) = delete;
  ScopedFlightRecorder& operator=(const ScopedFlightRecorder&) = delete;

 private:
  FlightRecorder* r_;
};

/// The ring the calling thread's spans and marks go to: 1 + w while it
/// runs engine worker w's phases, 0 otherwise.
std::uint32_t thread_flight_ring();

/// RAII: route this thread's spans and marks to `ring` while alive
/// (engine::Query sets it around each worker's phases).
class ScopedFlightRing {
 public:
  explicit ScopedFlightRing(std::uint32_t ring);
  ~ScopedFlightRing();
  ScopedFlightRing(const ScopedFlightRing&) = delete;
  ScopedFlightRing& operator=(const ScopedFlightRing&) = delete;

 private:
  std::uint32_t prev_;
};

/// A kMark with an interned label on the installed recorder, on the
/// calling thread's ring. No-op when no recorder is installed.
void flight_mark(std::uint32_t label, std::uint64_t arg = 0);

/// SLO-transition hook (called by Slo::transition_to): records a kSlo
/// event on the installed recorder, on the calling thread's ring, and
/// raises the dump latch when the transition lands in Breached (SloState
/// 2). No-op when no recorder is installed.
void flight_note_slo(const std::string& name, std::uint8_t from, std::uint8_t to);

}  // namespace oda::observe
