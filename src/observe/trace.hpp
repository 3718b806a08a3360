// Pipeline trace spans — the Fig 4-b "anatomy" measured per run instead
// of per design doc. A Span is an RAII timing scope; spans opened while
// another span is current (same thread) become its children, and a
// context stamped onto broker records at produce time lets the consuming
// micro-batch continue the producer's trace across the STREAM hop:
//
//   ingest (root)
//     └─ stream.produce ... record carries {trace_id, span_id} ...
//          └─ query.<name>.batch        (continued via Span::link)
//               ├─ window_agg_15s
//               ├─ sink.write
//               │    └─ ocean.put
//               └─ sink.write
//
// Spans record both wall time (perf analysis) and virtual facility time
// (deterministic; the only fields golden-run comparisons may look at).
// Completed spans land in a bounded in-memory SpanStore; exporters in
// observe/export.hpp render text trees and JSON.
//
// Tracing is off unless a Tracer is installed (install_tracer / RAII
// ScopedTracer) — an uninstrumented run pays one atomic load per
// would-be span.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "observe/metrics.hpp"

namespace oda::observe {

/// What a record (or any cross-stage hand-off) carries to continue a
/// trace: the trace it belongs to and the span that emitted it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// A completed span as stored/exported.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  std::string name;
  common::TimePoint virtual_start = 0;  ///< facility time (deterministic)
  common::TimePoint virtual_end = 0;
  double wall_us = 0.0;  ///< wall-clock duration (never compared across runs)
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Bounded ring of completed spans. Oldest spans are overwritten once
/// `capacity` is exceeded; `dropped()` counts the overwrites so exports
/// can say "showing last N of M".
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity = 65536) : capacity_(capacity ? capacity : 1) {}

  void add(SpanRecord rec);
  /// Spans in completion order (oldest retained first).
  std::vector<SpanRecord> snapshot() const;
  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;  ///< ring write cursor once full
  bool full_ = false;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Allocates trace/span ids and owns the span store. Install one
/// process-wide to turn tracing on.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 65536) : store_(capacity) {}

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  SpanStore& store() { return store_; }
  const SpanStore& store() const { return store_; }

 private:
  std::atomic<std::uint64_t> next_id_{1};
  SpanStore store_;
};

namespace detail {
extern std::atomic<Tracer*> g_tracer;
}

inline void install_tracer(Tracer* t) { detail::g_tracer.store(t, std::memory_order_release); }
inline Tracer* installed_tracer() { return detail::g_tracer.load(std::memory_order_acquire); }

/// RAII tracer installation for tests and the monitor app.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& t) { install_tracer(&t); }
  ~ScopedTracer() { install_tracer(nullptr); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
};

/// The current thread's innermost open span ({} when none / tracing off).
/// This is what Topic::produce stamps onto records.
TraceContext current_context();

/// RAII span. No-op (single pointer load) when no tracer is installed at
/// construction. While alive it is the thread's current context; on
/// destruction it records into the tracer's store.
class Span {
 public:
  explicit Span(std::string_view name);
  /// Continue a remote trace (e.g. a consumed record's context) instead
  /// of starting a new one — only applies when there is no local parent.
  Span(std::string_view name, TraceContext remote);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Late remote adoption: if this span started a fresh trace (no local
  /// parent) and `remote` is valid, re-home it under the remote span.
  /// Used by engine::Query::run_once, which only learns the incoming
  /// context after the fetch phase.
  void link(TraceContext remote);

  void tag(std::string key, std::string value);

  bool active() const { return tracer_ != nullptr; }
  TraceContext context() const { return {rec_.trace_id, rec_.span_id}; }

 private:
  void open(std::string_view name, TraceContext remote);

  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
  common::Stopwatch wall_;
};

}  // namespace oda::observe
