// Batch-request mode: many simulation requests, few compiles.
//
// `zeusc --serve-batch requests.json` reads a zeus-serve-request-v1 file,
// compiles each distinct design ONCE (keyed by a content hash of source,
// top and optimization level), fans every request across the simulation
// farm (src/core/sim_farm.h) and renders a zeus-serve-v1 response — the
// first step toward a long-lived zeusd service: N clients share one
// elaborated design and the farm's lane throughput.
//
// Request schema (all fields except the design selector optional):
//   { "requests": [
//       { "id": "r1",               // echoed in the response
//         "example": "adders",      // built-in corpus entry ...
//         "source": "TYPE ...",     // ... OR inline source
//         "top": "t",               //     (required with "source")
//         "cycles": 32, "lanes": 128, "threads": 2, "seed": 7,
//         "opt": 1 } ] }
//
// The parser is deliberately small and strict: objects, arrays, strings,
// non-negative integers, true/false/null.  Anything else is a structured
// error in the response, never a crash.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/batch_sim.h"
#include "src/support/histogram.h"

namespace zeus {

struct ServeOptions {
  size_t defaultThreads = 1;
  size_t defaultLanes = BatchSimulation::kMaxLanes;
  uint64_t defaultCycles = 16;
  uint64_t defaultSeed = 0xC0FFEEull;
  int defaultOptLevel = 1;
};

/// Aggregate outcome, for the CLI summary line and the metrics latency
/// block.
struct ServeStats {
  size_t requests = 0;
  size_t failures = 0;
  size_t compiles = 0;   ///< distinct designs actually compiled
  size_t cacheHits = 0;  ///< requests served from the compile cache
  /// Latency distributions over the batch (zeus-metrics-v1 names
  /// "serve.request_us", "serve.cache_hit_us", "serve.cache_miss_us").
  histogram::Histogram requestUs;   ///< whole-request wall time
  histogram::Histogram cacheHitUs;  ///< design resolution on a cache hit
  histogram::Histogram cacheMissUs;  ///< ... on a miss (the compile)
};

/// Runs a whole request file and returns the zeus-serve-v1 response JSON.
/// Malformed input yields a response with "ok": false entries (or a
/// top-level "error" when the file itself does not parse); the function
/// itself does not throw.
[[nodiscard]] std::string runServeBatch(const std::string& requestJson,
                                        const ServeOptions& opts,
                                        ServeStats* stats = nullptr);

}  // namespace zeus
