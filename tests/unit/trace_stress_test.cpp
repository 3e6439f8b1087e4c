// Threaded stress tests for the trace and metrics layers — the data
// races the simulation farm exposed.  Under the ZEUS_SANITIZE=thread
// preset these run with TSan as the referee; in a plain build they still
// verify the epoch semantics (a span straddling clear()/setEnabled(false)
// records nothing) and counter exactness.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/support/metrics.h"
#include "src/support/trace.h"

// TSan serializes every instrumented access; unbounded writer loops on a
// small host would grow the span buffers to millions of events between
// clears and turn each snapshot/render into minutes of work.  Scale the
// stress budget down under TSan — the interleavings it checks show up in
// the first few thousand spans, not the millionth.
#if defined(__SANITIZE_THREAD__)
#define ZEUS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ZEUS_TSAN 1
#endif
#endif
#ifndef ZEUS_TSAN
#define ZEUS_TSAN 0
#endif

namespace zeus::test {
namespace {

constexpr int kObserverIters = ZEUS_TSAN ? 40 : 200;
constexpr uint64_t kMaxSpansPerWriter = ZEUS_TSAN ? 20000 : 2000000;
/// Per-writer span cap per observer round in the snapshot/clear stress
/// test; its worst case (two rounds per observer iteration) stays within
/// the per-writer budget above.
constexpr uint64_t kSpansPerRound = ZEUS_TSAN ? 100 : 500;
static_assert(2 * kObserverIters * kSpansPerRound <= kMaxSpansPerWriter);

/// Restores the process-wide trace state so the stress tests cannot leak
/// events into the metrics/phase-timing tests that share this binary.
struct TraceGuard {
  TraceGuard() {
    trace::setEnabled(false);
    trace::clear();
  }
  ~TraceGuard() {
    trace::setEnabled(false);
    trace::clear();
  }
};

TEST(TraceStress, ConcurrentSpansVsSnapshotAndClear) {
  TraceGuard guard;
  trace::setEnabled(true);
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  // The observer opens a round before every snapshot and every clear and
  // waits until each writer has started writing in it; a writer then
  // pushes at most kSpansPerRound spans and sleeps until the next round.
  // Writers are therefore live when each snapshot and clear begins, while
  // the buffers between clears stay a few thousand events long instead
  // of growing with however fast the writers are.
  std::atomic<int> round{0};
  std::atomic<int> entered{0};
  std::vector<std::thread> writers;
  // Writers hammer the per-thread buffers with short spans...
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop, &round, &entered] {
      for (int seen = 0;;) {
        round.wait(seen, std::memory_order_acquire);
        if (stop.load(std::memory_order_relaxed)) return;
        seen = round.load(std::memory_order_acquire);
        {
          ZEUS_TRACE_SPAN("stress-span", "test");
        }
        entered.fetch_add(1, std::memory_order_release);
        entered.notify_one();
        for (uint64_t n = 1; n < kSpansPerRound; ++n) {
          ZEUS_TRACE_SPAN("stress-span", "test");
        }
      }
    });
  }
  auto openRound = [&round, &entered] {
    const int r = round.fetch_add(1, std::memory_order_acq_rel) + 1;
    round.notify_all();
    for (int e; (e = entered.load(std::memory_order_acquire)) < kWriters * r;) {
      entered.wait(e, std::memory_order_acquire);
    }
  };
  // ...while this thread concurrently snapshots, renders and clears the
  // same buffers.  Before the per-buffer mutex, Span::~Span's push_back
  // raced the registry-only iteration here; TSan flags any regression.
  for (int i = 0; i < kObserverIters; ++i) {
    openRound();
    (void)trace::eventCount();
    std::vector<trace::Event> events = trace::snapshot();
    for (const trace::Event& e : events) {
      ASSERT_STREQ(e.name, "stress-span");
    }
    (void)trace::renderChromeJson();
    (void)metrics::phaseTimings();
    if (i % 10 == 0) {
      openRound();
      trace::clear();
    }
  }
  stop.store(true);
  round.fetch_add(1, std::memory_order_release);
  round.notify_all();
  for (std::thread& w : writers) w.join();
  trace::clear();
  EXPECT_EQ(trace::eventCount(), 0u);
}

TEST(TraceStress, SpanStraddlingClearRecordsNothing) {
  TraceGuard guard;
  trace::setEnabled(true);
  {
    ZEUS_TRACE_SPAN("before-clear", "test");
    (void)0;
  }
  ASSERT_EQ(trace::eventCount(), 1u);

  auto open = std::make_unique<trace::Span>("straddler", "test");
  trace::clear();
  open.reset();  // closes after the clear: must not resurrect
  EXPECT_EQ(trace::eventCount(), 0u);
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(TraceStress, SpanStraddlingDisableRecordsNothing) {
  TraceGuard guard;
  trace::setEnabled(true);
  auto open = std::make_unique<trace::Span>("straddler", "test");
  trace::setEnabled(false);
  trace::setEnabled(true);  // re-enabling does not revive the span
  open.reset();
  EXPECT_EQ(trace::eventCount(), 0u);

  // A span opened after the re-enable records normally.
  {
    ZEUS_TRACE_SPAN("after-reenable", "test");
    (void)0;
  }
  EXPECT_EQ(trace::eventCount(), 1u);
}

TEST(TraceStress, ConcurrentEnableDisableClear) {
  TraceGuard guard;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop] {
      for (uint64_t n = 0; n < kMaxSpansPerWriter &&
                           !stop.load(std::memory_order_relaxed);
           ++n) {
        ZEUS_TRACE_SPAN("toggle-span", "test");
      }
    });
  }
  for (int i = 0; i < kObserverIters; ++i) {
    trace::setEnabled(i % 2 == 0);
    if (i % 7 == 0) trace::clear();
    (void)trace::eventCount();
  }
  trace::setEnabled(false);
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(TraceStress, PhaseTimingsVsConcurrentClear) {
  // phaseTimings() aggregates a snapshot of the trace buffers; here it
  // races writers AND a dedicated clear() thread.  The aggregation must
  // never see torn events (name/category stay intact) and must not
  // deadlock against clear's registry+buffer lock order.
  TraceGuard guard;
  trace::setEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop] {
      for (uint64_t n = 0; n < kMaxSpansPerWriter &&
                           !stop.load(std::memory_order_relaxed);
           ++n) {
        ZEUS_TRACE_SPAN("phase-span", "stress");
      }
    });
  }
  std::thread clearer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) trace::clear();
  });
  for (int i = 0; i < kObserverIters; ++i) {
    for (const metrics::PhaseTiming& p : metrics::phaseTimings()) {
      ASSERT_EQ(p.name, "phase-span");
      ASSERT_EQ(p.category, "stress");
      ASSERT_GE(p.count, 1u);
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  clearer.join();
}

TEST(MetricsStress, CounterIsExactAcrossThreads) {
  static metrics::Counter counter("stress-counter");
  const uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  // Concurrent readers must see monotonically growing, torn-free sums.
  uint64_t last = before;
  for (int i = 0; i < 100; ++i) {
    uint64_t v = counter.value();
    EXPECT_GE(v, last);
    last = v;
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter.value(), before + kThreads * kPerThread);

  bool listed = false;
  for (const auto& [name, value] : metrics::Counter::allValues()) {
    if (name == "stress-counter") {
      listed = true;
      EXPECT_EQ(value, before + kThreads * kPerThread);
    }
  }
  EXPECT_TRUE(listed);
}

}  // namespace
}  // namespace zeus::test
