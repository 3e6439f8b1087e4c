#include "src/support/eventlog.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/support/buildinfo.h"
#include "src/support/metrics.h"
#include "src/support/thread_slot.h"

namespace zeus::flightrec {
namespace {
std::atomic<bool> g_armed{false};
}
namespace detail {
void recordLine(const std::string& line);
}
}  // namespace zeus::flightrec

namespace zeus::eventlog {

namespace {

std::mutex g_requestIdMutex;
std::string& requestIdStorage() {
  static auto* s = new std::string;  // never freed: read at any emit
  return *s;
}

std::string formatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string serializeLine(uint64_t tsUs, Severity sev, const char* subsystem,
                          const char* event, const std::string& req,
                          std::initializer_list<Field> fields) {
  std::string out = "{\"v\": 1, \"ts_us\": " + std::to_string(tsUs);
  out += ", \"sev\": \"";
  out += severityName(sev);
  out += "\", \"sub\": \"" + metrics::jsonEscape(subsystem) + "\"";
  out += ", \"ev\": \"" + metrics::jsonEscape(event) + "\"";
  if (!req.empty()) out += ", \"req\": \"" + metrics::jsonEscape(req) + "\"";
  if (fields.size()) {
    out += ", \"fields\": {";
    bool first = true;
    for (const Field& f : fields) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + metrics::jsonEscape(f.key) + "\": ";
      if (f.quoted) {
        out += "\"" + metrics::jsonEscape(f.value) + "\"";
      } else {
        out += f.value;
      }
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace

const char* severityName(Severity sev) {
  switch (sev) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "info";
}

Field str(const char* key, std::string_view value) {
  return {key, std::string(value), true};
}
Field num(const char* key, uint64_t value) {
  return {key, std::to_string(value), false};
}
Field num(const char* key, int64_t value) {
  return {key, std::to_string(value), false};
}
Field num(const char* key, double value) {
  return {key, formatDouble(value), false};
}
Field boolean(const char* key, bool value) {
  return {key, value ? "true" : "false", false};
}

void setRequestId(std::string_view id) {
  std::lock_guard<std::mutex> lock(g_requestIdMutex);
  requestIdStorage().assign(id);
}

std::string requestId() {
  std::lock_guard<std::mutex> lock(g_requestIdMutex);
  return requestIdStorage();
}

void emit(Severity sev, const char* subsystem, const char* event,
          std::initializer_list<Field> fields) {
  const uint64_t epoch = threadslot::sink.open();
  const bool toRing = flightrec::armed();
  if (!epoch && !toRing) return;  // the cost when telemetry is off

  const uint64_t ts = threadslot::nowUs();
  std::string line =
      serializeLine(ts, sev, subsystem, event, requestId(), fields);

  if (toRing) flightrec::detail::recordLine(line);
  if (!epoch) return;

  threadslot::Slot& slot = threadslot::local();
  threadslot::sink.append(
      slot, epoch,
      {ts, slot.tid, slot.seq++, nullptr, nullptr, 0, std::move(line)});
}

std::string renderJsonl() {
  std::string out = "{\"v\": 1, \"schema\": \"zeus-log-v1\", \"build\": " +
                    buildinfo::renderJson() + "}\n";
  for (const threadslot::Record& r : threadslot::sink.collect()) {
    if (r.isSpan()) continue;
    out += r.text;
    out += "\n";
  }
  return out;
}

}  // namespace zeus::eventlog

namespace zeus::flightrec {

namespace {

// ---- crash ring -----------------------------------------------------
//
// Fixed slots holding pre-serialized event lines.  Writers claim a slot
// with one fetch_add and copy bytes under the slot's mutex; the signal
// handler reads len (acquire) and data with no locks — best-effort by
// design, a torn slot mid-overwrite is skipped via the len==0 window.
// dumpNow() (normal context) takes the slot mutexes and is exact.

constexpr size_t kRingSlots = 128;
constexpr size_t kSlotBytes = 512;

struct RingSlot {
  std::mutex mutex;  // writers + dumpNow(); the signal handler skips it
  std::atomic<uint32_t> len{0};
  char data[kSlotBytes];
};

RingSlot g_ring[kRingSlots];
std::atomic<uint64_t> g_ringHead{0};  // total events ever recorded

// ---- dump target, pre-serialized at arm() ---------------------------

constexpr size_t kPathBytes = 512;
char g_dumpPath[kPathBytes];
char g_buildJson[kSlotBytes];

// ---- async-signal-safe writer ---------------------------------------

void writeAll(int fd, const char* data, size_t n) {
  while (n) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) return;  // nothing more we can do in a handler
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void writeStr(int fd, const char* s) { writeAll(fd, s, std::strlen(s)); }

void writeU64(int fd, uint64_t v) {
  char buf[20];
  size_t i = sizeof buf;
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v);
  writeAll(fd, buf + i, sizeof buf - i);
}

/// The dump writer.  From a signal handler (`fromSignal`) it uses only
/// open/write on pre-serialized bytes; from normal context it also takes
/// the slot mutexes so the event list is exact.
bool writeDump(const char* reason, int sig, bool fromSignal) {
  if (!g_dumpPath[0]) return false;
  int fd = ::open(g_dumpPath, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;

  writeStr(fd, "{\"schema\": \"zeus-crash-v1\", \"reason\": \"");
  writeStr(fd, reason);
  writeStr(fd, "\", \"signal\": ");
  writeU64(fd, sig > 0 ? static_cast<uint64_t>(sig) : 0);
  writeStr(fd, ", \"build\": ");
  writeStr(fd, g_buildJson[0] ? g_buildJson : "{}");

  const uint64_t head = g_ringHead.load(std::memory_order_acquire);
  const uint64_t dropped = head > kRingSlots ? head - kRingSlots : 0;
  writeStr(fd, ", \"dropped\": ");
  writeU64(fd, dropped);

  writeStr(fd, ",\n \"events\": [");
  bool first = true;
  for (uint64_t seq = dropped; seq < head; ++seq) {
    RingSlot& slot = g_ring[seq % kRingSlots];
    if (!fromSignal) slot.mutex.lock();
    const uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len > 0 && len < kSlotBytes) {
      writeStr(fd, first ? "\n  " : ",\n  ");
      first = false;
      writeAll(fd, slot.data, len);
    }
    if (!fromSignal) slot.mutex.unlock();
  }
  writeStr(fd, first ? "]" : "\n ]");

  writeStr(fd, ",\n \"open_spans\": [");
  first = true;
  for (const threadslot::Slot* s = threadslot::first(); s;
       s = s->next.load(std::memory_order_acquire)) {
    const uint32_t depth = std::min<uint32_t>(
        s->spanDepth.load(std::memory_order_acquire),
        threadslot::kMaxSpanDepth);
    for (uint32_t d = 0; d < depth; ++d) {
      const char* name = s->spanNames[d].load(std::memory_order_relaxed);
      const char* cat = s->spanCats[d].load(std::memory_order_relaxed);
      if (!name || !cat) continue;  // torn push in another thread: skip
      writeStr(fd, first ? "\n  " : ",\n  ");
      first = false;
      writeStr(fd, "{\"tid\": ");
      writeU64(fd, s->tid);
      writeStr(fd, ", \"depth\": ");
      writeU64(fd, d);
      // name/cat are phase-name string literals (trace contract): no
      // escaping needed, and none is possible in a handler anyway.
      writeStr(fd, ", \"name\": \"");
      writeStr(fd, name);
      writeStr(fd, "\", \"cat\": \"");
      writeStr(fd, cat);
      writeStr(fd, "\"}");
    }
  }
  writeStr(fd, first ? "]}\n" : "\n ]}\n");
  ::close(fd);
  return true;
}

void crashHandler(int sig) {
  writeDump("signal", sig, /*fromSignal=*/true);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void installHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crashHandler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace

namespace detail {

void recordLine(const std::string& line) {
  const uint64_t seq = g_ringHead.fetch_add(1, std::memory_order_acq_rel);
  RingSlot& slot = g_ring[seq % kRingSlots];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.len.store(0, std::memory_order_release);  // close the torn window
  const size_t n = std::min(line.size(), kSlotBytes - 1);
  std::memcpy(slot.data, line.data(), n);
  slot.data[n] = '\0';
  slot.len.store(static_cast<uint32_t>(n), std::memory_order_release);
}

}  // namespace detail

void arm(const char* path) {
  if (!path || !*path) return;
  std::snprintf(g_dumpPath, sizeof g_dumpPath, "%s", path);
  std::snprintf(g_buildJson, sizeof g_buildJson, "%s",
                buildinfo::renderJson().c_str());
  installHandlers();
  g_armed.store(true, std::memory_order_release);
}

bool armed() { return g_armed.load(std::memory_order_relaxed); }

void disarm() {
  g_armed.store(false, std::memory_order_release);
  ::signal(SIGSEGV, SIG_DFL);
  ::signal(SIGABRT, SIG_DFL);
  const uint64_t head = g_ringHead.load(std::memory_order_acquire);
  for (uint64_t seq = head > kRingSlots ? head - kRingSlots : 0; seq < head;
       ++seq) {
    RingSlot& slot = g_ring[seq % kRingSlots];
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.len.store(0, std::memory_order_release);
  }
  g_ringHead.store(0, std::memory_order_release);
  g_dumpPath[0] = '\0';
}

bool dumpNow(const char* reason) {
  if (!armed()) return false;
  return writeDump(reason, 0, /*fromSignal=*/false);
}

void pushSpan(const char* name, const char* category) {
  threadslot::Slot& s = threadslot::local();
  const uint32_t d = s.spanDepth.load(std::memory_order_relaxed);
  if (d < threadslot::kMaxSpanDepth) {
    s.spanNames[d].store(name, std::memory_order_relaxed);
    s.spanCats[d].store(category, std::memory_order_relaxed);
  }
  // Count past capacity so pops balance; the reader clamps.
  s.spanDepth.store(d + 1, std::memory_order_release);
}

void popSpan() {
  threadslot::Slot& s = threadslot::local();
  const uint32_t d = s.spanDepth.load(std::memory_order_relaxed);
  if (d) s.spanDepth.store(d - 1, std::memory_order_release);
}

size_t ringCount() {
  const uint64_t head = g_ringHead.load(std::memory_order_acquire);
  return head > kRingSlots ? kRingSlots : static_cast<size_t>(head);
}

}  // namespace zeus::flightrec
