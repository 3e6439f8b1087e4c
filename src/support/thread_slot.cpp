#include "src/support/thread_slot.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/support/telemetry.h"

namespace zeus::threadslot {

namespace {

std::mutex g_registryMutex;
std::atomic<Slot*> g_head{nullptr};  // never freed: LSan sees every slot
Slot* g_tail = nullptr;              // registry mutex
Slot* g_free = nullptr;              // registry mutex
uint32_t g_count = 0;                // registry mutex

Slot* take() {
  std::lock_guard<std::mutex> lock(g_registryMutex);
  if (Slot* s = g_free) {
    g_free = s->nextFree;
    return s;
  }
  auto* s = new Slot;
  s->tid = ++g_count;
  // Publish fully built: the crash handler follows these links unlocked.
  (g_tail ? g_tail->next : g_head).store(s, std::memory_order_release);
  g_tail = s;
  return s;
}

void giveBack(Slot* s) {
  s->spanDepth.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_registryMutex);
  s->nextFree = g_free;
  g_free = s;
}

/// The thread's claim on its slot.  A record made by a later exit-time
/// destructor takes a fresh slot that is never given back.
struct Handle {
  Slot* slot = nullptr;
  Handle() = default;
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;
  ~Handle() {
    if (slot) giveBack(slot);
    slot = nullptr;
  }
};

}  // namespace

Slot& local() {
  thread_local Handle handle;
  if (!handle.slot) handle.slot = take();
  return *handle.slot;
}

Slot* first() { return g_head.load(std::memory_order_acquire); }

size_t count() {
  std::lock_guard<std::mutex> lock(g_registryMutex);
  return g_count;
}

void forEach(const std::function<void(Slot&)>& fn) {
  std::lock_guard<std::mutex> lock(g_registryMutex);
  for (Slot* s = first(); s; s = s->next.load(std::memory_order_acquire)) {
    fn(*s);
  }
}

constinit Sink sink;

void Sink::setEnabled(bool on) {
  enabled_.store(on, std::memory_order_seq_cst);
  if (!on) epoch_.fetch_add(1, std::memory_order_seq_cst);
}

void Sink::append(Slot& slot, uint64_t generation, Record record) {
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (epoch_.load(std::memory_order_seq_cst) != generation) return;
  slot.records.push_back(std::move(record));
}

void Sink::clear() {
  // Bump FIRST: a record holding the old generation either appends
  // before we lock its slot (and is cleared) or re-checks after.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  forEach([](Slot& s) {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.records.clear();
  });
}

size_t Sink::count() const {
  size_t n = 0;
  forEach([&n](Slot& s) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.records.size();
  });
  return n;
}

std::vector<Record> Sink::collect() const {
  std::vector<Record> all;
  forEach([&all](Slot& s) {
    std::lock_guard<std::mutex> lock(s.mutex);
    all.insert(all.end(), s.records.begin(), s.records.end());
  });
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return std::tie(a.tsUs, a.tid, a.seq) < std::tie(b.tsUs, b.tid, b.seq);
  });
  return all;
}

}  // namespace zeus::threadslot

namespace zeus::telemetry {

void setEnabled(bool on) { threadslot::sink.setEnabled(on); }
void clear() { threadslot::sink.clear(); }
size_t recordCount() { return threadslot::sink.count(); }

}  // namespace zeus::telemetry
