// Structured event log + crash flight recorder for the Zeus service
// stack (schema zeus-log-v1, documented in docs/observability.md).
//
// Every interesting moment in the pipeline — a compile phase finishing, a
// farm run starting, a serve request resolving against the compile cache,
// a budget fault — is one emit() call: monotonic timestamp, severity,
// subsystem, event name, the current request id and a handful of
// key=value fields.  Events render as JSONL (`zeusc --log out.jsonl`):
// one self-contained JSON object per line, so a service log can be
// tailed, grepped and joined on "req" without parsing state.
//
// Concurrency contract — the same one as trace spans, which share the
// recorder (thread_slot.h) and its one switch (telemetry.h): emit() may
// run from any thread at any time.  A serialized line is one record in
// the caller's slot, appended under the slot's own (uncontended) mutex;
// an emit racing telemetry::clear() or setEnabled(false) drops its line
// instead of resurrecting it into a recorder the caller believes is
// empty.  When neither the recorder nor the flight recorder is on, emit()
// costs two relaxed atomic loads and serializes nothing.
//
// The flight recorder (zeus::flightrec) is the part that survives a
// crash: every emitted event is also pre-serialized into a bounded
// global ring of fixed-size entries, and trace::Span keeps an open-span
// stack in each thread's slot.  arm() installs SIGSEGV/SIGABRT handlers
// that dump the ring + span stacks to a .zeus-crash.json file using only
// async-signal-safe calls (open/write on pre-serialized bytes — no
// malloc, no locks, no formatting); dumpNow() writes the same file from
// normal context on SimWatchdog/budget faults.  A dead farm worker or
// serve request leaves a post-mortem either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace zeus::eventlog {

enum class Severity { Debug, Info, Warn, Error };
[[nodiscard]] const char* severityName(Severity sev);

/// One key=value field of an event.  `key` must be a string literal.
/// Build with str()/num()/boolean() so quoting is decided once, here.
struct Field {
  const char* key;
  std::string value;
  bool quoted;  ///< true: JSON-escape + quote; false: raw literal
};

[[nodiscard]] Field str(const char* key, std::string_view value);
[[nodiscard]] Field num(const char* key, uint64_t value);
[[nodiscard]] Field num(const char* key, int64_t value);
[[nodiscard]] Field num(const char* key, double value);
[[nodiscard]] Field boolean(const char* key, bool value);

/// Tags every subsequent event (all threads) with this request id until
/// changed; empty clears the tag.  The serve loop sets it per request so
/// farm-worker events carry the request that caused them.
void setRequestId(std::string_view id);
[[nodiscard]] std::string requestId();

/// Records one event.  `subsystem` and `event` must be string literals
/// (e.g. "serve", "request-done").  Near-free when both the recorder and
/// the flight recorder are off; the flight-recorder ring records
/// independently of telemetry::setEnabled.
void emit(Severity sev, const char* subsystem, const char* event,
          std::initializer_list<Field> fields = {});

/// All recorded lines in the recorder's order (timestamp, tid, emit
/// order), prefixed with one zeus-log-v1 header line carrying the
/// build-info stamp.  Every line is one JSON
/// object: {"v": 1, "ts_us": ..., "sev": "...", "sub": "...",
/// "ev": "...", ["req": "...",] ["fields": {...}]}.
[[nodiscard]] std::string renderJsonl();

}  // namespace zeus::eventlog

namespace zeus::flightrec {

/// Arms the recorder: every eventlog emit is mirrored into the crash
/// ring, trace spans maintain the open-span stacks, and SIGSEGV/SIGABRT
/// dump everything to `path` before the process dies.  Idempotent; the
/// latest path wins.  `path` is copied into a fixed buffer (truncated to
/// its capacity).
void arm(const char* path);
[[nodiscard]] bool armed();

/// Restores the default signal dispositions and empties the ring (for
/// tests; the CLI stays armed for its whole life).
void disarm();

/// Writes the flight-recorder dump from normal context — the
/// SimWatchdog / budget-fault path, where the process exits deliberately
/// but the post-mortem is just as useful.  `reason` must be a short
/// literal ("watchdog", "budget", ...).  Returns false when the recorder
/// is unarmed or the file cannot be written.
bool dumpNow(const char* reason);

/// Open-span bookkeeping, called by trace::Span when armed.  `name` and
/// `category` must be string literals.
void pushSpan(const char* name, const char* category);
void popSpan();

/// Events currently held in the ring (test introspection).
[[nodiscard]] size_t ringCount();

}  // namespace zeus::flightrec
