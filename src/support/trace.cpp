#include "src/support/trace.h"

#include <algorithm>

#include "src/support/eventlog.h"
#include "src/support/thread_slot.h"

namespace zeus::trace {

namespace {

/// Span events live in the per-thread slots (thread_slot.h).
constinit threadslot::Sink<Event> g_spans{&threadslot::Slot::events};

}  // namespace

void setEnabled(bool on) { g_spans.setEnabled(on); }
bool enabled() { return g_spans.enabled(); }
void clear() { g_spans.clear(); }
size_t eventCount() { return g_spans.count(); }

std::vector<Event> snapshot() {
  std::vector<Event> all = g_spans.collect();
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.startUs < b.startUs;
  });
  return all;
}

std::string renderChromeJson() {
  std::vector<Event> all = snapshot();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Event& e = all[i];
    if (i) out += ",";
    out += "\n  {\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.category;
    out += "\",\"ph\":\"X\",\"ts\":" + std::to_string(e.startUs) +
           ",\"dur\":" + std::to_string(e.durUs) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid) + "}";
  }
  out += all.empty() ? "]}\n" : "\n]}\n";
  return out;
}

Span::Span(const char* name, const char* category)
    : name_(name), category_(category), startUs_(0), epoch_(0),
      frPushed_(false) {
  // The flight recorder tracks open spans independently of whether span
  // recording is enabled: the crash dump wants "where was each thread"
  // even in a run that never asked for a trace file.
  if (flightrec::armed()) {
    flightrec::pushSpan(name, category);
    frPushed_ = true;
  }
  if (enabled()) {
    epoch_ = g_spans.generation();
    startUs_ = threadslot::nowUs();
    if (startUs_ == 0) startUs_ = 1;  // 0 means "off"; never record it
  }
}

Span::~Span() {
  if (frPushed_) flightrec::popSpan();
  if (startUs_ == 0) return;
  if (!enabled()) return;  // disabled mid-span: drop
  uint64_t end = threadslot::nowUs();
  threadslot::Slot& slot = threadslot::local();
  g_spans.append(slot, epoch_,
                 {name_, category_, startUs_,
                  end > startUs_ ? end - startUs_ : 0, slot.tid});
}

}  // namespace zeus::trace
