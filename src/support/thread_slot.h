// Per-thread telemetry slots: the one mechanism behind trace spans,
// event-log lines, metrics counter cells and the flight recorder's
// open-span stacks (internal; docs/observability.md, "Thread safety").
//
// Slots sit on one append-only list whose nodes are never freed, so the
// crash handler walks it with acquire loads and no locks, and LSan sees
// every slot.  A thread's slot goes on a free list when the thread exits
// and the next new thread reuses it, tid included, so the slot count
// tracks peak live threads.  Counter cells are not zeroed on reuse, and
// recorded spans and lines stay until their sink's clear().
//
// Lock order: registry mutex, then slot mutex.  Recording takes only the
// own slot's mutex; taking or returning a slot takes only the registry
// mutex; readers walk the list under the registry mutex.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/trace.h"

namespace zeus::threadslot {

inline constexpr size_t kMaxCounters = 256;
inline constexpr size_t kMaxSpanDepth = 16;

/// Monotonic microseconds: the timestamp of every span and log line.
inline uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One serialized zeus-log-v1 line, timestamped for the merge.
struct Line {
  uint64_t tsUs;
  std::string text;
};

struct Slot {
  std::mutex mutex;  ///< guards `events` and `lines`
  uint32_t tid = 0;  ///< 1-based; kept when the slot is reused
  std::vector<trace::Event> events;
  std::vector<Line> lines;
  std::array<std::atomic<uint64_t>, kMaxCounters> cells{};  ///< by id
  /// Open-span stack; counts past kMaxSpanDepth so pops balance.
  std::atomic<uint32_t> spanDepth{0};
  std::array<std::atomic<const char*>, kMaxSpanDepth> spanNames{};
  std::array<std::atomic<const char*>, kMaxSpanDepth> spanCats{};
  std::atomic<Slot*> next{nullptr};  ///< list link, set once
  Slot* nextFree = nullptr;          ///< free-list link (registry mutex)
};

/// The calling thread's slot, taken on first use.
[[nodiscard]] Slot& local();
/// Head of the list in tid order.  Lock-free and async-signal-safe.
[[nodiscard]] Slot* first();
/// Slots ever allocated (test introspection).
[[nodiscard]] size_t count();
/// Calls fn on every slot under the registry mutex.
void forEach(const std::function<void(Slot&)>& fn);

/// A recording sink over one per-slot buffer, with its own enabled flag
/// and generation stamp.  clear() and setEnabled(false) bump the
/// generation; a record captures it at entry and append() re-checks it
/// under the slot mutex, so a record straddling either call is dropped
/// rather than resurrected into a buffer the caller believes is empty.
template <class T>
class Sink {
 public:
  explicit constexpr Sink(std::vector<T> Slot::*buffer) : buffer_(buffer) {}

  void setEnabled(bool on) {
    if (!on) epoch_.fetch_add(1, std::memory_order_seq_cst);
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t generation() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Appends to the caller's own slot unless the generation moved.
  void append(Slot& slot, uint64_t generation, T item) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (epoch_.load(std::memory_order_seq_cst) != generation) return;
    (slot.*buffer_).push_back(std::move(item));
  }

  void clear() {
    // Bump FIRST: a record holding the old generation either appends
    // before we lock its slot (and is cleared) or re-checks after.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    forEach([this](Slot& s) {
      std::lock_guard<std::mutex> lock(s.mutex);
      (s.*buffer_).clear();
    });
  }

  [[nodiscard]] size_t count() const {
    size_t n = 0;
    forEach([this, &n](Slot& s) {
      std::lock_guard<std::mutex> lock(s.mutex);
      n += (s.*buffer_).size();
    });
    return n;
  }

  /// Every slot's records, unsorted.
  [[nodiscard]] std::vector<T> collect() const {
    std::vector<T> all;
    forEach([this, &all](Slot& s) {
      std::lock_guard<std::mutex> lock(s.mutex);
      all.insert(all.end(), (s.*buffer_).begin(), (s.*buffer_).end());
    });
    return all;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{1};
  std::vector<T> Slot::*buffer_;
};

}  // namespace zeus::threadslot
