#include "src/support/thread_slot.h"

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

}  // namespace zeus::threadslot
