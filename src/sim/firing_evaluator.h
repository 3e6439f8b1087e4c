// Event-driven evaluator implementing the firing rules of §8.
//
// A node fires on its exiting edge as soon as its value is determined:
// AND fires 0 on the first 0 input, an IF node fires NOINFL as soon as its
// condition is 0, and so on.  Every node fires exactly once per cycle, and
// a (multiplex) signal fires once all of its drivers have contributed —
// the "strongest signal survives" resolution with the runtime
// multiple-assignment check that guards against burning transistors.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/fault.h"
#include "src/sim/graph.h"
#include "src/support/logic.h"

namespace zeus {

struct EvalStats {
  uint64_t nodeFirings = 0;   ///< nodes that produced a value
  uint64_t inputEvents = 0;   ///< node-input arrival events processed
  uint64_t sweeps = 0;        ///< naive evaluator only
  uint64_t netResolutions = 0;     ///< nets resolved to their cycle value
  uint64_t shortCircuitSkips = 0;  ///< arrivals at an already-fired node
  uint64_t contentionChecks = 0;   ///< resolutions of multi-driven nets
  uint64_t epochResets = 0;        ///< sparse-reset epoch bumps (1/cycle)
  /// Smallest remaining event budget at the end of any cycle (firing
  /// evaluator only); ~0 until a cycle completes, 0 after a trip.
  uint64_t watchdogMarginMin = ~uint64_t{0};

  /// Adds another run's counters (the watchdog margin takes the minimum).
  EvalStats& operator+=(const EvalStats& s) {
    nodeFirings += s.nodeFirings;
    inputEvents += s.inputEvents;
    sweeps += s.sweeps;
    netResolutions += s.netResolutions;
    shortCircuitSkips += s.shortCircuitSkips;
    contentionChecks += s.contentionChecks;
    epochResets += s.epochResets;
    if (s.watchdogMarginMin < watchdogMarginMin) {
      watchdogMarginMin = s.watchdogMarginMin;
    }
    return *this;
  }

  friend bool operator==(const EvalStats&, const EvalStats&) = default;
};

/// Seed of the RANDOM stream when none is set explicitly; shared by every
/// evaluator and restored by Simulation::reset().
inline constexpr uint64_t kDefaultRngSeed = 0x9E3779B97F4A7C15ull;

/// Seed values for one cycle of evaluation.
struct CycleSeeds {
  /// Per dense net: externally injected value (primary inputs); only
  /// entries with inputSet are used.
  const std::vector<Logic>* inputValues = nullptr;
  const std::vector<char>* inputSet = nullptr;
  /// Per REG node (indexed as in graph.regNodes): stored value.
  const std::vector<Logic>* regValues = nullptr;
  uint64_t rngState = 0;  ///< for RANDOM nodes
  /// Firing watchdog: abort the cycle after this many input-arrival
  /// events.  0 = automatic (a generous multiple of the edge count; on a
  /// consistent DAG every node fires exactly once, so tripping it means
  /// the evaluator — not the design — is wedged).
  uint64_t eventBudget = 0;
  /// Fault-injection overlay for this cycle (src/sim/fault.h); null or
  /// !any = fault-free.  Applied at net-resolution time by every
  /// evaluator, after the §8 strength rule and before consumers read.
  const FaultPlan* faults = nullptr;
};

/// Results of one cycle.
struct CycleResult {
  std::vector<Logic> netValues;        ///< per dense net, raw (may be NOINFL)
  std::vector<uint32_t> activeCounts;  ///< active (0/1/UNDEF) contributions
  std::vector<uint32_t> collisions;    ///< dense nets with >1 active driver
  uint64_t rngState = 0;
  bool watchdogTripped = false;  ///< cycle aborted by the firing watchdog
};

class FiringEvaluator {
 public:
  explicit FiringEvaluator(const SimGraph& graph);

  void evaluate(const CycleSeeds& seeds, CycleResult& out);
  [[nodiscard]] const EvalStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }
  /// Restores a previously captured counter state (snapshot resume), so a
  /// resumed run's cumulative stats match an uninterrupted one.
  void setStats(const EvalStats& s) { stats_ = s; }

 private:
  void fireNet(uint32_t net, Logic value);
  void contribute(uint32_t net, Logic value);
  void touchNet(uint32_t net);
  void touchNode(NodeId node);

  const SimGraph& g_;
  EvalStats stats_;

  // Per-cycle state, epoch-stamped instead of std::fill-reset each cycle:
  // a slot's contents are valid only when its stamp equals the current
  // epoch, so untouched state stays stale instead of being re-cleared.
  // Net values and active counts live directly in the caller's
  // CycleResult (no end-of-cycle copy); value_/active_ point into it.
  uint64_t epoch_ = 0;
  std::vector<uint64_t> netStamp_;
  std::vector<uint64_t> nodeStamp_;
  Logic* value_ = nullptr;
  uint32_t* active_ = nullptr;
  std::vector<uint32_t> pending_;  ///< remaining driver contributions
  std::vector<char> netFired_;
  std::vector<char> nodeFired_;
  std::vector<uint32_t> nodeKnown_;
  std::vector<uint32_t> nodeZeros_;
  std::vector<uint32_t> nodeOnes_;
  std::vector<char> nodeUndef_;  ///< saw an UNDEF/NOINFL input
  // Per-input storage for EQUAL and SWITCH, at netlist pool positions.
  std::vector<Logic> inputVal_;
  std::vector<char> inputKnown_;
  std::vector<uint32_t> inputNets_;      ///< dense nets with isInput
  std::vector<uint32_t> undrivenNets_;   ///< nets with no non-REG driver
  std::vector<uint32_t> worklist_;
  size_t firedCount_ = 0;
  std::vector<uint32_t>* collisions_ = nullptr;
  const FaultPlan* faults_ = nullptr;  ///< active only while evaluating
};

}  // namespace zeus
