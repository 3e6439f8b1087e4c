// Event-log and flight-recorder unit tests: zeus-log-v1 line shape,
// request-id tagging, the clear/disable generation rule (same contract
// as the trace buffer), and the crash-ring dump from normal context.
// The concurrent cases live with the other telemetry stress tests in
// trace_stress_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/support/eventlog.h"
#include "src/support/trace.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

using eventlog::boolean;
using eventlog::num;
using eventlog::Severity;
using eventlog::str;

/// Restores process-wide log/recorder state so these tests cannot leak
/// into the serve/metrics tests sharing this binary.
struct LogGuard {
  LogGuard() { reset(); }
  ~LogGuard() { reset(); }
  static void reset() {
    eventlog::setEnabled(false);
    eventlog::clear();
    eventlog::setRequestId("");
    flightrec::disarm();
  }
};

TEST(EventLog, DisabledEmitsNothing) {
  LogGuard guard;
  eventlog::emit(Severity::Info, "test", "dropped");
  EXPECT_EQ(eventlog::eventCount(), 0u);
}

TEST(EventLog, LineShape) {
  LogGuard guard;
  eventlog::setEnabled(true);
  eventlog::emit(Severity::Warn, "farm", "block-done",
                 {num("block", uint64_t{3}), boolean("ok", true),
                  str("note", "a \"quoted\" value")});
  ASSERT_EQ(eventlog::eventCount(), 1u);

  const std::string jsonl = eventlog::renderJsonl();
  std::vector<std::string> lines;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);  // header + one event

  // Header: schema id + build stamp.
  EXPECT_NE(lines[0].find("\"schema\": \"zeus-log-v1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"build\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"git\""), std::string::npos);

  // Event line: all envelope keys plus the typed fields.
  const std::string& e = lines[1];
  EXPECT_NE(e.find("\"v\": 1"), std::string::npos);
  EXPECT_NE(e.find("\"ts_us\": "), std::string::npos);
  EXPECT_NE(e.find("\"sev\": \"warn\""), std::string::npos);
  EXPECT_NE(e.find("\"sub\": \"farm\""), std::string::npos);
  EXPECT_NE(e.find("\"ev\": \"block-done\""), std::string::npos);
  EXPECT_NE(e.find("\"block\": 3"), std::string::npos);
  EXPECT_NE(e.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(e.find("\"note\": \"a \\\"quoted\\\" value\""),
            std::string::npos);
  EXPECT_EQ(e.find("\"req\""), std::string::npos);  // no id set
}

TEST(EventLog, RequestIdTagsEvents) {
  LogGuard guard;
  eventlog::setEnabled(true);
  eventlog::setRequestId("r42");
  EXPECT_EQ(eventlog::requestId(), "r42");
  eventlog::emit(Severity::Info, "serve", "tagged");
  eventlog::setRequestId("");
  eventlog::emit(Severity::Info, "serve", "untagged");

  const std::string jsonl = eventlog::renderJsonl();
  EXPECT_NE(jsonl.find("\"req\": \"r42\""), std::string::npos);
  // Exactly one line carries the id.
  size_t hits = 0;
  for (size_t at = jsonl.find("\"req\""); at != std::string::npos;
       at = jsonl.find("\"req\"", at + 1)) {
    ++hits;
  }
  EXPECT_EQ(hits, 1u);
}

TEST(EventLog, RenderIsTimestampSorted) {
  LogGuard guard;
  eventlog::setEnabled(true);
  // Emit from two threads; render must interleave by ts_us regardless of
  // which per-thread buffer each line landed in.
  std::thread t([] {
    for (int i = 0; i < 20; ++i) {
      eventlog::emit(Severity::Debug, "test", "from-thread");
    }
  });
  for (int i = 0; i < 20; ++i) {
    eventlog::emit(Severity::Debug, "test", "from-main");
  }
  t.join();
  ASSERT_EQ(eventlog::eventCount(), 40u);

  const std::string jsonl = eventlog::renderJsonl();
  std::istringstream in(jsonl);
  std::string line;
  std::getline(in, line);  // header
  uint64_t lastTs = 0;
  size_t events = 0;
  while (std::getline(in, line)) {
    const size_t at = line.find("\"ts_us\": ");
    ASSERT_NE(at, std::string::npos) << line;
    const uint64_t ts = std::stoull(line.substr(at + 9));
    EXPECT_GE(ts, lastTs);
    lastTs = ts;
    ++events;
  }
  EXPECT_EQ(events, 40u);
}

TEST(EventLog, ClearDropsEverythingAndEmitsKeepWorking) {
  LogGuard guard;
  eventlog::setEnabled(true);
  eventlog::emit(Severity::Info, "test", "one");
  ASSERT_EQ(eventlog::eventCount(), 1u);
  eventlog::clear();
  EXPECT_EQ(eventlog::eventCount(), 0u);
  eventlog::emit(Severity::Info, "test", "two");
  EXPECT_EQ(eventlog::eventCount(), 1u);
}

TEST(FlightRecorder, DumpNowWritesSchemaValidFile) {
  LogGuard guard;
  const std::string path = privateTempPath("zeus_flightrec_test.json");
  std::remove(path.c_str());

  EXPECT_FALSE(flightrec::dumpNow("unarmed"));  // not armed: refuses

  flightrec::arm(path.c_str());
  ASSERT_TRUE(flightrec::armed());
  // Ring records even with the JSONL sink off — crash dumps must not
  // depend on --log being passed.
  eventlog::emit(Severity::Error, "test", "ring-only",
                 {num("n", uint64_t{7})});
  EXPECT_GE(flightrec::ringCount(), 1u);

  {
    trace::Span open("open-span", "test");  // should appear in the dump
    ASSERT_TRUE(flightrec::dumpNow("watchdog"));
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("\"schema\": \"zeus-crash-v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\": \"watchdog\""), std::string::npos);
  EXPECT_NE(dump.find("\"ev\": \"ring-only\""), std::string::npos);
  EXPECT_NE(dump.find("\"open_spans\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\": \"open-span\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DisarmStopsRecording) {
  LogGuard guard;
  const std::string path = privateTempPath("zeus_flightrec_disarm.json");
  flightrec::arm(path.c_str());
  eventlog::emit(Severity::Info, "test", "recorded");
  EXPECT_GE(flightrec::ringCount(), 1u);
  flightrec::disarm();
  EXPECT_FALSE(flightrec::armed());
  EXPECT_EQ(flightrec::ringCount(), 0u);
  eventlog::emit(Severity::Info, "test", "not-recorded");
  EXPECT_EQ(flightrec::ringCount(), 0u);
  EXPECT_FALSE(flightrec::dumpNow("watchdog"));
  std::remove(path.c_str());
}

TEST(FlightRecorder, SpanStackPushPopBalance) {
  LogGuard guard;
  const std::string path = privateTempPath("zeus_flightrec_spans.json");
  flightrec::arm(path.c_str());
  {
    trace::Span a("outer", "test");
    {
      trace::Span b("inner", "test");
      ASSERT_TRUE(flightrec::dumpNow("budget"));
    }
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\": \"inner\""), std::string::npos);

  // After both spans closed, a fresh dump lists no open spans from this
  // thread at depth > 0.
  ASSERT_TRUE(flightrec::dumpNow("budget"));
  std::ifstream in2(path);
  std::stringstream ss2;
  ss2 << in2.rdbuf();
  EXPECT_EQ(ss2.str().find("\"name\": \"outer\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zeus::test
