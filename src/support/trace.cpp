#include "src/support/trace.h"

#include "src/support/eventlog.h"
#include "src/support/thread_slot.h"

namespace zeus::trace {

std::vector<Event> snapshot() {
  std::vector<Event> spans;
  for (const threadslot::Record& r : threadslot::sink.collect()) {
    if (!r.isSpan()) continue;
    spans.push_back({r.name, r.category, r.tsUs, r.durUs, r.tid});
  }
  return spans;
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
    : name_(name), category_(category), startUs_(0), seq_(0),
      epoch_(threadslot::sink.open()), frPushed_(false) {
  // The flight recorder tracks open spans independently of whether span
  // recording is enabled: the crash dump wants "where was each thread"
  // even in a run that never asked for a trace file.
  if (flightrec::armed()) {
    flightrec::pushSpan(name, category);
    frPushed_ = true;
  }
  if (epoch_) {
    seq_ = threadslot::local().seq++;
    startUs_ = threadslot::nowUs();
  }
}

Span::~Span() {
  if (frPushed_) flightrec::popSpan();
  if (!epoch_) return;
  const uint64_t end = threadslot::nowUs();
  threadslot::Slot& slot = threadslot::local();
  threadslot::sink.append(slot, epoch_,
                          {startUs_, slot.tid, seq_, name_, category_,
                           end > startUs_ ? end - startUs_ : 0, {}});
}

}  // namespace zeus::trace
