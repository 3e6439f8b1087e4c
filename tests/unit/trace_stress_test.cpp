// Threaded stress tests for the telemetry layer — trace spans and event-log
// lines (one recorder), the flight recorder and metrics counters, all
// recorded through the per-thread slots of src/support/thread_slot.h — and
// the data races the simulation farm exposed.  Under the
// ZEUS_SANITIZE=thread preset these run with TSan as the referee; in a
// plain build they still verify the epoch semantics (a record straddling
// clear()/setEnabled(false) records nothing), the recorder's one total
// order, slot reuse and counter exactness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/support/eventlog.h"
#include "src/support/metrics.h"
#include "src/support/telemetry.h"
#include "src/support/thread_slot.h"
#include "src/support/trace.h"
#include "tests/support/test_util.h"

// TSan serializes every instrumented access; unbounded writer loops on a
// small host would grow the record buffers to millions of events between
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

/// Restores the process-wide recorder and flight-recorder state so the
/// stress tests cannot leak events into the tests that share this binary.
struct TelemetryGuard {
  TelemetryGuard() { reset(); }
  ~TelemetryGuard() { reset(); }
  static void reset() {
    telemetry::setEnabled(false);
    telemetry::clear();
    flightrec::disarm();
  }
};

TEST(TelemetryStress, ConcurrentRecordsVsSnapshotAndClear) {
  // Trace spans and event-log lines race the readers, the one switch and
  // the one clear() of the recorder they share.
  TelemetryGuard guard;
  telemetry::setEnabled(true);
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  // The observer opens a round before every snapshot and every clear and
  // waits until each writer has started writing in it; a writer then
  // records at most kSpansPerRound spans and lines and sleeps until the
  // next round.  Writers are therefore live when each snapshot and clear
  // begins, while the buffers between clears stay a few thousand records
  // long instead of growing with however fast the writers are.
  std::atomic<int> round{0};
  std::atomic<int> entered{0};
  std::vector<std::thread> writers;
  // Writers hammer their slots with short spans and log lines...
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop, &round, &entered] {
      for (int seen = 0;;) {
        round.wait(seen, std::memory_order_acquire);
        if (stop.load(std::memory_order_relaxed)) return;
        seen = round.load(std::memory_order_acquire);
        {
          ZEUS_TRACE_SPAN("stress-span", "test");
          eventlog::emit(eventlog::Severity::Debug, "test", "stress");
        }
        entered.fetch_add(1, std::memory_order_release);
        entered.notify_one();
        for (uint64_t n = 1; n < kSpansPerRound; ++n) {
          ZEUS_TRACE_SPAN("stress-span", "test");
          eventlog::emit(eventlog::Severity::Debug, "test", "stress");
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
  // ...while this thread concurrently snapshots, renders, switches off
  // and clears the same slots.  Before the per-buffer mutex,
  // Span::~Span's push_back raced the registry-only iteration here; TSan
  // flags any regression.  Failures inside the loop are EXPECTs: the
  // writers must be stopped and joined on every path.
  for (int i = 0; i < kObserverIters && !HasFailure(); ++i) {
    openRound();
    (void)telemetry::recordCount();
    std::vector<trace::Event> events = trace::snapshot();
    for (size_t k = 0; k < events.size(); ++k) {
      EXPECT_STREQ(events[k].name, "stress-span");
      if (k) {
        // The recorder's order: start time, then tid.
        const trace::Event& a = events[k - 1];
        const trace::Event& b = events[k];
        EXPECT_TRUE(a.startUs < b.startUs ||
                    (a.startUs == b.startUs && a.tid <= b.tid));
      }
      if (HasFailure()) break;
    }
    (void)trace::renderChromeJson();
    (void)metrics::phaseTimings();
    std::istringstream jsonl(eventlog::renderJsonl());
    std::string line;
    std::getline(jsonl, line);  // header
    while (std::getline(jsonl, line) && !HasFailure()) {
      EXPECT_NE(line.find("\"ev\": \"stress\""), std::string::npos) << line;
    }
    if (i % 10 == 0) {
      openRound();
      telemetry::clear();
    }
    if (i % 10 == 5) {
      // The one switch stops spans and lines alike: after a switch-off
      // and a clear, a further round of live writers records nothing.
      openRound();
      telemetry::setEnabled(false);
      telemetry::clear();
      openRound();
      EXPECT_EQ(telemetry::recordCount(), 0u);
      EXPECT_TRUE(trace::snapshot().empty());
      telemetry::setEnabled(true);
    }
  }
  stop.store(true);
  round.fetch_add(1, std::memory_order_release);
  round.notify_all();
  for (std::thread& w : writers) w.join();
  telemetry::clear();
  EXPECT_EQ(telemetry::recordCount(), 0u);
}

TEST(TelemetryStress, RecordsComeOutInOneTotalOrder) {
  // Two threads each open a parent span, a nested child and a sibling of
  // the child, and emit a numbered line inside the child and inside the
  // sibling.  Records come out
  // by start time, then tid, then the order the thread opened or emitted
  // them, so a parent precedes a child opened in the same microsecond
  // (it closes, and is written, after the child).
  TelemetryGuard guard;
  telemetry::setEnabled(true);
  constexpr int kRounds = ZEUS_TSAN ? 200 : 1000;
  static const char* const kOpenOrder[] = {"parent", "child", "sibling"};
  auto record = [](uint64_t thread) {
    auto line = [thread](uint64_t i) {
      eventlog::emit(eventlog::Severity::Debug, "test", "order",
                     {eventlog::num("t", thread), eventlog::num("i", i)});
    };
    for (uint64_t i = 0; i < kRounds; ++i) {
      ZEUS_TRACE_SPAN("parent", "order");
      {
        ZEUS_TRACE_SPAN("child", "order");
        line(2 * i);
      }
      ZEUS_TRACE_SPAN("sibling", "order");
      line(2 * i + 1);
    }
  };
  std::thread other(record, uint64_t{1});
  record(0);
  other.join();

  const std::vector<trace::Event> spans = trace::snapshot();
  ASSERT_EQ(spans.size(), size_t{2 * 3 * kRounds});
  std::map<uint32_t, std::vector<trace::Event>> byTid;
  for (size_t k = 0; k < spans.size(); ++k) {
    if (k) {
      const trace::Event& a = spans[k - 1];
      const trace::Event& b = spans[k];
      ASSERT_TRUE(a.startUs < b.startUs ||
                  (a.startUs == b.startUs && a.tid <= b.tid))
          << "span " << k;
    }
    byTid[spans[k].tid].push_back(spans[k]);
  }
  ASSERT_EQ(byTid.size(), 2u);
  size_t sameMicrosecond = 0;
  for (const auto& [tid, own] : byTid) {
    for (size_t k = 0; k < own.size(); ++k) {
      ASSERT_STREQ(own[k].name, kOpenOrder[k % 3])
          << "tid " << tid << " span " << k;
      if (k && own[k].startUs == own[k - 1].startUs) ++sameMicrosecond;
    }
  }
  // Without a tie the order above would hold by start time alone.
  EXPECT_GT(sameMicrosecond, 0u);

  // Each thread's lines come out in emit order, also within one
  // microsecond.
  std::istringstream jsonl(eventlog::renderJsonl());
  std::string line;
  std::getline(jsonl, line);  // header
  uint64_t next[2] = {0, 0};
  while (std::getline(jsonl, line)) {
    const size_t t = line.find("\"t\": ");
    const size_t i = line.find("\"i\": ");
    ASSERT_NE(t, std::string::npos) << line;
    ASSERT_NE(i, std::string::npos) << line;
    const uint64_t thread = std::stoull(line.substr(t + 5));
    ASSERT_LT(thread, 2u) << line;
    uint64_t& want = next[thread];
    ASSERT_EQ(std::stoull(line.substr(i + 5)), want) << line;
    ++want;
  }
  EXPECT_EQ(next[0], uint64_t{2 * kRounds});
  EXPECT_EQ(next[1], uint64_t{2 * kRounds});

  // The order is total, so a second read repeats the first exactly.
  const std::vector<trace::Event> again = trace::snapshot();
  ASSERT_EQ(again.size(), spans.size());
  for (size_t k = 0; k < spans.size(); ++k) {
    ASSERT_STREQ(again[k].name, spans[k].name) << k;
    ASSERT_EQ(again[k].startUs, spans[k].startUs) << k;
    ASSERT_EQ(again[k].durUs, spans[k].durUs) << k;
    ASSERT_EQ(again[k].tid, spans[k].tid) << k;
  }
  EXPECT_EQ(trace::renderChromeJson(), trace::renderChromeJson());
  EXPECT_EQ(eventlog::renderJsonl(), eventlog::renderJsonl());
}

TEST(TelemetryStress, ShortLivedThreadsReuseOneSlot) {
  // A thread's slot returns to the free list when it exits, so a stream
  // of short-lived threads (farm workers, serve requests) reuses one slot
  // instead of allocating a new one per thread — without losing a count,
  // span or line recorded by the threads that have exited.
  TelemetryGuard guard;
  telemetry::setEnabled(true);
  static metrics::Counter counter("slot-reuse-counter");
  const uint64_t before = counter.value();
  (void)threadslot::local();  // this thread's own slot
  const size_t slotsBefore = threadslot::count();
  constexpr int kThreads = 200;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([] {
      counter.add();
      ZEUS_TRACE_SPAN("short-lived", "test");
      eventlog::emit(eventlog::Severity::Debug, "test", "short-lived");
    }).join();
    // Live threads: this one (already counted) plus the one just joined.
    ASSERT_LE(threadslot::count(), slotsBefore + 1) << "thread " << i;
  }
  EXPECT_EQ(counter.value(), before + kThreads);

  std::vector<trace::Event> events = trace::snapshot();
  ASSERT_EQ(events.size(), size_t{kThreads});
  std::set<uint32_t> tids;
  for (const trace::Event& e : events) {
    EXPECT_STREQ(e.name, "short-lived");
    tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 1u);  // one reused slot, one tid
  // One span and one line per thread.
  EXPECT_EQ(telemetry::recordCount(), size_t{2 * kThreads});

  telemetry::clear();
  EXPECT_EQ(telemetry::recordCount(), 0u);
  EXPECT_EQ(counter.value(), before + kThreads);  // clear() keeps counts
}

/// The one-object-per-line records of a zeus-crash-v1 list section.
std::vector<std::string> recordLines(const std::string& section) {
  std::vector<std::string> out;
  std::istringstream in(section);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  {", 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(TelemetryStress, FlightRecorderRingVsConcurrentDumps) {
  // Writers fill the crash ring and push/pop nested spans on their slots'
  // open-span stacks while this thread writes dumps from normal context.
  TelemetryGuard guard;
  const std::string path = privateTempPath("zeus_flightrec_stress.json");
  flightrec::arm(path.c_str());
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop, &started, t] {
      started.fetch_add(1, std::memory_order_release);
      for (uint64_t n = 0; n < kMaxSpansPerWriter &&
                           !stop.load(std::memory_order_relaxed);
           ++n) {
        ZEUS_TRACE_SPAN("ring-outer", "test");
        ZEUS_TRACE_SPAN("ring-inner", "test");
        eventlog::emit(eventlog::Severity::Info, "test", "ring-write",
                       {eventlog::num("writer", uint64_t(t))});
      }
    });
  }
  // A failed ASSERT returns early: stop and join the writers on every
  // exit, or their destructors abort the whole test binary.
  struct JoinWriters {
    std::atomic<bool>& stop;
    std::vector<std::thread>& writers;
    ~JoinWriters() {
      stop.store(true);
      for (std::thread& w : writers) w.join();
    }
  } joinWriters{stop, writers};
  while (started.load(std::memory_order_acquire) < kWriters) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kObserverIters; ++i) {
    ASSERT_TRUE(flightrec::dumpNow("stress"));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string dump = ss.str();
    for (const char* key :
         {"\"schema\": \"zeus-crash-v1\"", "\"reason\": \"stress\"",
          "\"signal\": 0", "\"build\": ", "\"dropped\": ",
          "\"events\": [", "\"open_spans\": ["}) {
      ASSERT_NE(dump.find(key), std::string::npos) << key << "\n" << dump;
    }
    // Every dumped event and open span is one the writers produced.
    const size_t spansAt = dump.find("\"open_spans\": [");
    for (const std::string& rec : recordLines(dump.substr(0, spansAt))) {
      EXPECT_NE(rec.find("\"ev\": \"ring-write\""), std::string::npos)
          << rec;
    }
    for (const std::string& rec : recordLines(dump.substr(spansAt))) {
      EXPECT_TRUE(rec.find("\"name\": \"ring-outer\"") != std::string::npos ||
                  rec.find("\"name\": \"ring-inner\"") != std::string::npos)
          << rec;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceStress, SpanStraddlingClearRecordsNothing) {
  TelemetryGuard guard;
  telemetry::setEnabled(true);
  {
    ZEUS_TRACE_SPAN("before-clear", "test");
    (void)0;
  }
  ASSERT_EQ(telemetry::recordCount(), 1u);

  auto open = std::make_unique<trace::Span>("straddler", "test");
  telemetry::clear();
  open.reset();  // closes after the clear: must not resurrect
  EXPECT_EQ(telemetry::recordCount(), 0u);
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(TraceStress, SpanStraddlingDisableRecordsNothing) {
  TelemetryGuard guard;
  telemetry::setEnabled(true);
  auto open = std::make_unique<trace::Span>("straddler", "test");
  telemetry::setEnabled(false);
  telemetry::setEnabled(true);  // re-enabling does not revive the span
  open.reset();
  EXPECT_EQ(telemetry::recordCount(), 0u);

  // A span opened after the re-enable records normally.
  {
    ZEUS_TRACE_SPAN("after-reenable", "test");
    (void)0;
  }
  EXPECT_EQ(telemetry::recordCount(), 1u);
}

TEST(TraceStress, ConcurrentEnableDisableClear) {
  TelemetryGuard guard;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop] {
      for (uint64_t n = 0; n < kMaxSpansPerWriter &&
                           !stop.load(std::memory_order_relaxed);
           ++n) {
        ZEUS_TRACE_SPAN("toggle-span", "test");
        eventlog::emit(eventlog::Severity::Debug, "test", "toggle");
      }
    });
  }
  for (int i = 0; i < kObserverIters; ++i) {
    telemetry::setEnabled(i % 2 == 0);
    if (i % 7 == 0) telemetry::clear();
    (void)telemetry::recordCount();
  }
  telemetry::setEnabled(false);
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

TEST(TraceStress, PhaseTimingsVsConcurrentClear) {
  // phaseTimings() aggregates a snapshot of the span records; here it
  // races writers AND a dedicated clear() thread.  The aggregation must
  // never see torn events (name/category stay intact) and must not
  // deadlock against clear's registry+buffer lock order.
  TelemetryGuard guard;
  telemetry::setEnabled(true);
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
    while (!stop.load(std::memory_order_relaxed)) telemetry::clear();
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
