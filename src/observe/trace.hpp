// Pipeline trace spans — the Fig 4-b "anatomy" measured per run instead
// of per design doc. A Span is an RAII timing scope; spans opened while
// another span is current (same thread) become its children, and a
// context stamped onto broker records at produce time lets the consuming
// micro-batch continue the producer's trace across the STREAM hop:
//
//   ingest (root)
//     └─ stream.produce ... record carries {trace_id, span_id} ...
//          └─ query.<name>.batch        (continued via Span::link)
//               ├─ fetch / decode / operate / merge / commit (phases)
//               ├─ window_agg_15s
//               ├─ sink.write
//               │    └─ ocean.put
//               └─ sink.write
//
// A span is a begin/end event pair on the installed flight recorder
// (observe/flight.hpp), on the opening thread's ring, labelled with an
// id from the process-wide label table: call sites intern their name
// once and opening a span takes no lock and builds no string. The
// events carry the span's id, its parent and its trace, so a dump
// rebuilds the span forest (FlightDump::spans) with wall and virtual
// facility time (deterministic; the only fields golden-run comparisons
// may look at) for both ends. With no recorder installed a span costs
// one atomic load.
#pragma once

#include <cstdint>

#include "observe/flight.hpp"

namespace oda::observe {

/// What a record (or any cross-stage hand-off) carries to continue a
/// trace: the trace it belongs to and the span that emitted it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// The current thread's innermost open span ({} when none / recording
/// off). This is what Topic::produce_staged stamps onto records.
TraceContext current_context();

/// RAII span. Inert when no recorder is installed at construction.
/// While alive it is the thread's current context; construction and
/// destruction each emit one event.
class Span {
 public:
  /// `label` comes from intern_label(). A valid `remote` context (e.g.
  /// a consumed record's) is continued instead of starting a new trace —
  /// only when there is no local parent.
  explicit Span(std::uint32_t label, TraceContext remote = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Late remote adoption: if this span started a fresh trace (no local
  /// parent) and `remote` is valid, re-home it under the remote span.
  /// Used by engine::Query::run_once, which only learns the incoming
  /// context after the fetch phase. The end event carries the result.
  void link(TraceContext remote);

  bool active() const { return recorder_ != nullptr; }
  TraceContext context() const { return {trace_id_, span_id_}; }

 private:
  void emit(FlightEventType type) const;

  FlightRecorder* recorder_ = nullptr;
  Span* outer_ = nullptr;  ///< the thread's enclosing open span
  std::uint32_t ring_ = 0;
  std::uint32_t label_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;  ///< 0 = root of its trace
};

}  // namespace oda::observe
