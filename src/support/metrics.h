// Runtime metrics for the Zeus pipeline: lock-free counters, per-phase
// timings derived from the trace buffer, per-net activity profiles and
// the stable machine-readable report behind `zeusc --metrics` (schema
// zeus-metrics-v1, documented in docs/observability.md).
//
// This layer holds plain data only — names and numbers.  The simulator
// fills SimCounters/ActivityReport (Simulation::metricsCounters(),
// Simulation::activityReport()); this header renders them, so the
// support layer stays free of sim dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/histogram.h"
#include "src/support/limits.h"

namespace zeus::metrics {

/// A process-wide named counter.  Increments go to a lock-free cell in
/// the calling thread's slot (thread_slot.h); value() sums every slot's
/// cell, exited threads' included.  Intended for coarse pipeline totals
/// (compilations run, designs elaborated), not per-cycle hot paths —
/// those use the per-evaluator EvalStats.
class Counter {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Counter(const char* name);

  void add(uint64_t n = 1);
  [[nodiscard]] uint64_t value() const;
  [[nodiscard]] const char* name() const { return name_; }

  /// Every registered counter with its current value, for reports.
  static std::vector<std::pair<std::string, uint64_t>> allValues();

 private:
  const char* name_;
  uint32_t id_;
};

/// Aggregated wall-clock of one pipeline phase (all spans with that name
/// in the trace buffer, category "compile" or "sim").
struct PhaseTiming {
  std::string name;
  std::string category;
  uint64_t micros = 0;
  uint64_t count = 0;  ///< spans aggregated
};

/// Folds the current trace buffer into one entry per (name, category),
/// in first-seen order.  Empty when tracing was never enabled.
[[nodiscard]] std::vector<PhaseTiming> phaseTimings();

/// Runtime counter snapshot of one simulation run (scalar or batch).
struct SimCounters {
  bool ran = false;
  std::string evaluator;  ///< "firing" / "naive" / "levelized" / "batch"
  uint64_t cycles = 0;
  uint64_t lanes = 1;
  uint64_t laneCycles = 0;  ///< cycles × active lanes
  uint64_t nodeFirings = 0;
  uint64_t inputEvents = 0;
  uint64_t sweeps = 0;
  uint64_t netResolutions = 0;
  uint64_t shortCircuitSkips = 0;
  uint64_t contentionChecks = 0;
  uint64_t epochResets = 0;
  /// Smallest remaining firing-watchdog budget seen in any cycle; -1 when
  /// the evaluator has no watchdog (naive, levelized, batch).
  int64_t watchdogMarginMin = -1;
  uint64_t faults = 0;            ///< SimError records (all codes)
  uint64_t contentionFaults = 0;  ///< SimContention subset
};

/// Per-net activity: toggle counts and UNDEF/NOINFL dwell, keyed to
/// netlist names.  Produced by Simulation::activityReport().
struct ActivityEntry {
  std::string net;
  uint64_t toggles = 0;       ///< value changes between profiled cycles
  uint64_t undefCycles = 0;   ///< cycles spent at UNDEF
  uint64_t noinflCycles = 0;  ///< cycles spent at NOINFL
  uint32_t depth = 0;         ///< combinational level (cone depth)
};

struct ActivityReport {
  bool ran = false;
  uint64_t cycles = 0;       ///< profiled (latched) cycles
  uint64_t netsProfiled = 0;
  uint64_t totalToggles = 0;
  std::vector<ActivityEntry> hottest;  ///< top by toggles, descending
  std::vector<ActivityEntry> deepest;  ///< top by depth, descending

  /// "activity: ..." human-readable block for --stats.
  [[nodiscard]] std::string renderText() const;
};

/// Everything `zeusc --metrics` writes for one run.
struct MetricsReport {
  std::string design;
  std::vector<PhaseTiming> phases;
  ResourceReport resources;
  SimCounters sim;
  ActivityReport activity;
  /// Latency histograms recorded during the run (farm block wall time,
  /// serve request latency, cache hit/miss timing...).  Additive
  /// zeus-metrics-v1 "latency" block; renders as {} when empty.
  std::vector<histogram::Snapshot> latency;

  /// zeus-metrics-v1 JSON object (docs/observability.md).
  [[nodiscard]] std::string renderJson() const;
  /// Aligned human-readable summary (the --stats table).
  [[nodiscard]] std::string renderText() const;
};

/// JSON string escaping shared by every machine-readable renderer.
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// The "sim" object of the zeus-metrics-v1 schema, as one line.  Shared
/// by MetricsReport::renderJson and the bench JSON emitters so the
/// embedded metrics block in BENCH_*.json keeps the same key set.
[[nodiscard]] std::string simCountersJson(const SimCounters& c);

}  // namespace zeus::metrics
