#include "observe/trace.hpp"

#include <atomic>

namespace oda::observe {

namespace {
std::atomic<std::uint64_t> g_next_span_id{1};
// The thread's innermost open span; each span links to the one it
// nested in, so the stack lives in the spans themselves.
thread_local Span* t_innermost = nullptr;
}  // namespace

TraceContext current_context() {
  return t_innermost != nullptr ? t_innermost->context() : TraceContext{};
}

Span::Span(std::uint32_t label, TraceContext remote)
    : recorder_(installed_flight_recorder()), label_(label) {
  if (recorder_ == nullptr) return;
  span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  outer_ = t_innermost;
  if (outer_ != nullptr) {
    // Local parent wins: the remote context, if any, is redundant within
    // an already-open trace on this thread.
    trace_id_ = outer_->trace_id_;
    parent_id_ = outer_->span_id_;
  } else if (remote.valid()) {
    trace_id_ = remote.trace_id;
    parent_id_ = remote.span_id;
  } else {
    trace_id_ = span_id_;  // fresh trace, rooted here
  }
  t_innermost = this;
  ring_ = thread_flight_ring();
  emit(FlightEventType::kSpanBegin);
}

void Span::link(TraceContext remote) {
  // Children opened after this point read the adopted trace id from here.
  if (recorder_ == nullptr || parent_id_ != 0 || !remote.valid()) return;
  trace_id_ = remote.trace_id;
  parent_id_ = remote.span_id;
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  emit(FlightEventType::kSpanEnd);
  if (t_innermost == this) t_innermost = outer_;
}

void Span::emit(FlightEventType type) const {
  recorder_->emit(ring_, type, FlightPhase::kNone, 0, label_, {span_id_, parent_id_, trace_id_});
}

}  // namespace oda::observe
