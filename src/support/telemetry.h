// The one switch of the telemetry recorder (src/support/thread_slot.h):
// trace spans (trace.h) and zeus-log-v1 lines (eventlog.h) are recorded
// together or not at all.  Every function here may be called from any
// thread at any time (docs/observability.md, "Thread safety").
#pragma once

#include <cstddef>

namespace zeus::telemetry {

/// Turns recording of spans and log lines on or off.  While off, a span
/// or an emit costs one relaxed atomic load and reads no clock.  Turning
/// it off drops every span still open and every emit in flight: they
/// record nothing, even if recording is back on before they finish.
void setEnabled(bool on);

/// Discards every recorded span and line (all threads).  Spans still
/// open and emits in flight when clear() runs record nothing.
void clear();

/// Spans and lines recorded so far (all threads).
[[nodiscard]] size_t recordCount();

}  // namespace zeus::telemetry
