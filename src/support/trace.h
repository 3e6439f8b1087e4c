// Zero-overhead-when-disabled tracing for the Zeus pipeline.
//
// Spans measure a phase (lex, parse, sema, elab, graph-build, levelize,
// lint, simulate) on the monotonic clock and collect into a process-wide
// buffer that renders as Chrome trace_event JSON — `zeusc --trace out.json`
// loads directly in Perfetto / chrome://tracing.
//
// Cost model:
//   * compile time: defining ZEUS_TRACE_DISABLED compiles every
//     ZEUS_TRACE_SPAN to nothing;
//   * runtime: while tracing is not enabled (the default) a span is one
//     relaxed atomic load and no clock reads — nothing is allocated and
//     nothing is locked;
//   * enabled: events append to the calling thread's slot (thread_slot.h)
//     under that slot's own (uncontended) mutex; the registry lock is
//     taken on a thread's first record and at render/clear time.
//
// Thread-safety contract (docs/observability.md): every function here may
// be called from any thread at any time.  A span that is still open when
// clear() or setEnabled(false) runs records NOTHING when it closes — the
// buffers stay empty after a clear even if worker spans straddle it, so
// phaseTimings never sees resurrected events.
//
// Spans are deliberately phase-grained, never per-cycle or per-node: the
// simulation hot loops stay untouched (per-cycle observability is the
// counter layer in src/support/metrics.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zeus::trace {

/// Globally enables/disables span recording.  Disabled spans cost one
/// relaxed atomic load.  Thread-safe.  Disabling drops every span still
/// open at that moment (they record nothing when they close, even if
/// tracing is re-enabled before then).
void setEnabled(bool on);
[[nodiscard]] bool enabled();

/// Discards every recorded event (all threads).  Spans still open when
/// clear() runs are dropped too: they record nothing when they close.
void clear();

/// Number of completed spans recorded so far (all threads).
[[nodiscard]] size_t eventCount();

/// One recorded span, exposed for the metrics layer: `--metrics` derives
/// its compile.phases block from the trace buffer.
struct Event {
  const char* name;      ///< static string: phase name
  const char* category;  ///< static string: "compile" / "sim" / ...
  uint64_t startUs;      ///< monotonic microseconds
  uint64_t durUs;
  uint32_t tid;
};

/// Snapshot of all recorded events, merged across threads in start order.
[[nodiscard]] std::vector<Event> snapshot();

/// Renders the Chrome trace_event JSON object:
///   {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":...,"dur":...,
///                    "pid":...,"tid":...}, ...]}
/// Complete ("X") duration events only; loads cleanly in Perfetto.
[[nodiscard]] std::string renderChromeJson();

/// RAII span: records one complete event from construction to destruction
/// when tracing is enabled.  `name` and `category` must be string
/// literals (stored by pointer).
class Span {
 public:
  Span(const char* name, const char* category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  uint64_t startUs_;  ///< 0 = tracing was off at entry; record nothing
  uint64_t epoch_;    ///< buffer generation at entry; stale = dropped
  bool frPushed_;     ///< on the flight-recorder open-span stack
};

}  // namespace zeus::trace

#ifdef ZEUS_TRACE_DISABLED
#define ZEUS_TRACE_SPAN(name, category)
#else
#define ZEUS_TRACE_CONCAT_(a, b) a##b
#define ZEUS_TRACE_CONCAT(a, b) ZEUS_TRACE_CONCAT_(a, b)
/// Opens a span for the rest of the enclosing scope.
#define ZEUS_TRACE_SPAN(name, category)                 \
  ::zeus::trace::Span ZEUS_TRACE_CONCAT(zeusTraceSpan_, \
                                        __LINE__)(name, category)
#endif
