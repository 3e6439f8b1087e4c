// Per-thread telemetry slots and the one recorder over them: the
// mechanism behind trace spans, event-log lines, metrics counter cells
// and the flight recorder's open-span stacks (internal; the switch is
// src/support/telemetry.h, the protocol docs/observability.md, "Thread
// safety").
//
// Slots sit on one append-only list whose nodes are never freed, so the
// crash handler walks it with acquire loads and no locks, and LSan sees
// every slot.  A thread's slot goes on a free list when the thread exits
// and the next new thread reuses it, tid included, so the slot count
// tracks peak live threads.  Counter cells are not zeroed on reuse, and
// records stay until the recorder's clear().
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
#include <vector>

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

/// One record: a trace span, written whole when it closes, or one
/// serialized zeus-log-v1 line.
struct Record {
  uint64_t tsUs;         ///< a span's start; a line's emit time
  uint32_t tid;
  uint64_t seq;          ///< the slot's open/emit order
  const char* name;      ///< span: phase-name literal; line: nullptr
  const char* category;  ///< span: category literal; line: nullptr
  uint64_t durUs;        ///< span only
  std::string text;      ///< line only

  [[nodiscard]] bool isSpan() const { return name != nullptr; }
};

struct Slot {
  std::mutex mutex;  ///< guards `records`
  uint32_t tid = 0;  ///< 1-based; kept when the slot is reused
  uint64_t seq = 0;  ///< records opened or emitted; owner thread only
  std::vector<Record> records;
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

/// The recorder over every slot's `records`: one enabled flag and one
/// generation stamp.  clear() and setEnabled(false) bump the generation;
/// a span takes it when it opens and a log line at emit, and append()
/// re-checks it under the slot mutex, so a record straddling either call
/// is dropped rather than resurrected into a recorder the caller
/// believes is empty.
class Sink {
 public:
  void setEnabled(bool on);
  /// The generation a record opened now belongs to; 0 while the recorder
  /// is off, which costs one relaxed load.  The second load of the flag
  /// pairs with setEnabled(false), which clears it before bumping the
  /// generation: a record that sees the new generation sees the recorder
  /// off, so none opens after setEnabled(false) returns.
  [[nodiscard]] uint64_t open() const {
    if (!enabled_.load(std::memory_order_relaxed)) return 0;
    const uint64_t generation = epoch_.load(std::memory_order_seq_cst);
    return enabled_.load(std::memory_order_relaxed) ? generation : 0;
  }
  /// Appends to the caller's own slot unless the generation moved.
  void append(Slot& slot, uint64_t generation, Record record);
  void clear();
  [[nodiscard]] size_t count() const;
  /// Every slot's records in one total order: timestamp, then tid, then
  /// the slot's open/emit order.  A parent span therefore precedes a
  /// child opened in the same microsecond.
  [[nodiscard]] std::vector<Record> collect() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{1};
};

/// The process's one recorder: trace spans and zeus-log-v1 lines.
extern Sink sink;

}  // namespace zeus::threadslot
