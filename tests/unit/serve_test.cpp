// Unit tests for the batch-request mode (src/core/batch_serve.h): the
// strict JSON request parser, the content-hash compile cache, per-request
// error isolation and the zeus-serve-v1 response shape.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/core/batch_serve.h"
#include "src/support/trace.h"

namespace zeus::test {
namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(Serve, MalformedJsonYieldsStructuredError) {
  ServeStats stats;
  for (const char* bad :
       {"", "{", "not json", "{\"requests\": 3}", "[1,2]",
        "{\"requests\": [{\"id\": \"x\", \"cycles\": -1}]}",
        "{\"requests\": [\"nope\"]}"}) {
    std::string resp = runServeBatch(bad, ServeOptions{}, &stats);
    EXPECT_TRUE(contains(resp, "zeus-serve-v1")) << bad;
    EXPECT_TRUE(contains(resp, "\"error\"")) << bad;
    EXPECT_GE(stats.failures, 1u) << bad;
  }
}

TEST(Serve, RequestsShareOneCompilePerDesign) {
  const std::string req = R"({"requests": [
    {"id": "r1", "example": "adders", "cycles": 4, "lanes": 8},
    {"id": "r2", "example": "adders", "cycles": 4, "lanes": 8, "threads": 2},
    {"id": "r3", "example": "mux4", "cycles": 2, "lanes": 4}
  ]})";
  ServeStats stats;
  std::string resp = runServeBatch(req, ServeOptions{}, &stats);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.compiles, 2u);   // adders once, mux4 once
  EXPECT_EQ(stats.cacheHits, 1u);  // r2 reuses r1's design
  EXPECT_TRUE(contains(resp, "\"id\": \"r1\", \"ok\": true"));
  EXPECT_TRUE(contains(resp, "\"cache\": \"hit\""));
}

TEST(Serve, DeterministicChecksumAcrossThreadCounts) {
  const std::string req = R"({"requests": [
    {"id": "a", "example": "adders", "cycles": 6, "lanes": 96, "threads": 1},
    {"id": "b", "example": "adders", "cycles": 6, "lanes": 96, "threads": 4}
  ]})";
  ServeStats stats;
  std::string resp = runServeBatch(req, ServeOptions{}, &stats);
  ASSERT_EQ(stats.failures, 0u) << resp;
  // Both rows must print the same checksum token.
  const std::string key = "\"checksum\": ";
  size_t p1 = resp.find(key);
  ASSERT_NE(p1, std::string::npos);
  size_t p2 = resp.find(key, p1 + 1);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_EQ(resp.substr(p1, resp.find(',', p1) - p1),
            resp.substr(p2, resp.find(',', p2) - p2));
}

TEST(Serve, BadRequestsDoNotPoisonGoodOnes) {
  const std::string req = R"({"requests": [
    {"id": "good", "example": "mux4", "cycles": 2},
    {"id": "unknown", "example": "no-such-example"},
    {"id": "nosource", "cycles": 2},
    {"id": "both", "example": "mux4", "source": "x", "top": "t"},
    {"id": "badopt", "example": "mux4", "opt": 9}
  ]})";
  ServeStats stats;
  std::string resp = runServeBatch(req, ServeOptions{}, &stats);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.failures, 4u);
  EXPECT_TRUE(contains(resp, "\"id\": \"good\", \"ok\": true"));
  EXPECT_TRUE(contains(resp, "unknown example"));
}

TEST(Serve, ResponseCarriesBuildLatencyAndCounterDeltas) {
  const std::string req = R"({"requests": [
    {"id": "r1", "example": "adders", "cycles": 4, "lanes": 8},
    {"id": "r2", "example": "adders", "cycles": 4, "lanes": 8}
  ]})";
  ServeStats stats;
  std::string resp = runServeBatch(req, ServeOptions{}, &stats);
  ASSERT_EQ(stats.failures, 0u) << resp;

  // Build-info stamp: attributable artifacts (satellite of PR 8).
  EXPECT_TRUE(contains(resp, "\"build\": {\"git\": "));

  // Per-request wall time and counter DELTAS — r1 compiled, r2 hit the
  // cache, and each row reports only its own work, not process totals.
  EXPECT_TRUE(contains(resp, "\"latency_us\": "));
  EXPECT_TRUE(contains(resp, "\"serve-compiles\": 1"));
  EXPECT_TRUE(contains(resp, "\"serve-cache-hits\": 1"));
  // Every row's serve-requests delta is exactly 1 (never cumulative).
  size_t rows = 0;
  for (size_t at = resp.find("\"serve-requests\": ");
       at != std::string::npos;
       at = resp.find("\"serve-requests\": ", at + 1)) {
    ++rows;
    EXPECT_EQ(resp[at + 18], '1');
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(resp[at + 19])));
  }
  EXPECT_EQ(rows, 2u);

  // Batch-level latency histograms.
  EXPECT_TRUE(contains(resp, "\"latency\": "));
  EXPECT_TRUE(contains(resp, "\"serve.request_us\""));
  EXPECT_TRUE(contains(resp, "\"serve.cache_hit_us\""));
  EXPECT_TRUE(contains(resp, "\"serve.cache_miss_us\""));

  // Stats mirror the response: 2 requests recorded, 1 hit, 1 miss.
  EXPECT_EQ(stats.requestUs.count(), 2u);
  EXPECT_EQ(stats.cacheHitUs.count(), 1u);
  EXPECT_EQ(stats.cacheMissUs.count(), 1u);
}

TEST(Serve, InlineSourceCompilesAndFailsGracefully) {
  const std::string req = R"({"requests": [
    {"id": "broken", "source": "THIS IS NOT ZEUS", "top": "t", "cycles": 2}
  ]})";
  ServeStats stats;
  std::string resp = runServeBatch(req, ServeOptions{}, &stats);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_TRUE(contains(resp, "\"ok\": false"));
  EXPECT_TRUE(contains(resp, "compile failed"));
}

// A miss builds the semantics graph once per optimizer build and hands
// that graph to the farm: once at opt 0, twice at opt 1 (on entry and
// after the passes), and never again for serving.
TEST(Serve, MissBuildsTheGraphOnlyInTheOptimizer) {
  for (int opt : {0, 1}) {
    const std::string req =
        R"({"requests": [{"id": "m", "top": "top", "cycles": 4, "lanes": 8,)"
        R"( "opt": )" + std::to_string(opt) +
        R"(, "source": "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean))"
        R"( IS SIGNAL r: REG; BEGIN r.in := NOT a; y := AND(r.out, a) END;)"
        R"( SIGNAL top: t;"}]})";
    trace::clear();
    trace::setEnabled(true);
    ServeStats stats;
    std::string resp = runServeBatch(req, ServeOptions{}, &stats);
    trace::setEnabled(false);
    size_t builds = 0;
    for (const trace::Event& e : trace::snapshot()) {
      if (std::string(e.name) == "graph-build") ++builds;
    }
    trace::clear();
    ASSERT_EQ(stats.failures, 0u) << resp;
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(builds, opt == 1 ? 2u : 1u) << "opt " << opt;
  }
}

}  // namespace
}  // namespace zeus::test
