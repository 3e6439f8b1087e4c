// Levelized evaluator: the cycle-compiled counterpart of the firing rules.
//
// buildSimGraph levelizes the acyclic semantics graph into
// SimGraph::schedule, a list of interleaved net-resolution and
// node-evaluation steps, and lowerTape() lowers that schedule once per
// graph into SimGraph::tape: a flat structure-of-arrays program of ops
// with pre-resolved operand slots.  A net with a single source is fused
// into it (its driver writes the net's slot; a REG or primary input is
// loaded there at cycle start), so only multi-source nets keep a resolve
// op.  A cycle is then one loop over the tape — no Node structs, no
// denseOf lookups, no worklist and no per-cycle reset: every op writes
// its slot before any later op reads it.  The results are bit-identical
// to the firing evaluator.
//
// The loop is word-parallel: up to 64 independent stimulus lanes are
// packed into two 64-bit planes per slot (four-valued logic as 2 bits per
// lane) and every gate evaluates all lanes with a handful of boolean
// ops.  It is the only levelized kernel: BatchSimulation runs it on 1..64
// lanes, and a scalar Simulation with EvaluatorKind::Levelized runs it on
// lane 0 alone.  The graph is immutable once built, so every farm thread
// runs the same tape without a lock.  The §8 at-most-one-driver check is
// still per lane: contention surfaces as a bitmask of colliding lanes on
// each multiply-driven net.  Fault overlays split the loop into segments
// at each faulted net's resolve position (BatchFaultPlan::stops).
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/firing_evaluator.h"

namespace zeus {

// ---------------------------------------------------------------------
// 64-lane batch mode
// ---------------------------------------------------------------------

/// Four-valued logic for 64 lanes in two bit-planes: p0 = "can be 0",
/// p1 = "can be 1".  Per lane: Zero=(1,0), One=(0,1), Undef=(1,1),
/// NoInfl=(0,0) — so an undriven lane contributes nothing to resolution
/// for free, and gate algebra is plain word-parallel and/or/xor.
struct LanePlanes {
  uint64_t p0 = 0;
  uint64_t p1 = 0;
};

/// The (p0, p1) plane bits of one Logic value, looked up in a 4-entry
/// bit table rather than branched on: stimulus values are random, and a
/// branch on them mispredicts about half the time.
inline constexpr uint64_t planeBit0(Logic v) {
  return (0b0101u >> static_cast<unsigned>(v)) & 1;  // Zero, Undef
}
inline constexpr uint64_t planeBit1(Logic v) {
  return (0b0110u >> static_cast<unsigned>(v)) & 1;  // One, Undef
}
/// The Logic value of plane bits (b0, b1), each 0 or 1.
inline constexpr Logic logicOfPlanes(uint64_t b0, uint64_t b1) {
  // Index b0 | b1 << 1 selects NoInfl, Zero, One, Undef (2 bits each).
  return static_cast<Logic>((0x93u >> (2 * (b0 | (b1 << 1)))) & 3);
}

/// Packs one scalar Logic into all lanes of `mask`.
inline LanePlanes lanesBroadcast(Logic v, uint64_t mask) {
  return {mask & (0 - planeBit0(v)), mask & (0 - planeBit1(v))};
}
/// Extracts one lane's Logic value.
inline Logic laneValue(const LanePlanes& p, uint32_t lane) {
  return logicOfPlanes((p.p0 >> lane) & 1, (p.p1 >> lane) & 1);
}
/// Sets one lane of `planes` to `v` (other lanes untouched).
inline void laneSet(LanePlanes& planes, uint32_t lane, Logic v) {
  const uint64_t bit = uint64_t{1} << lane;
  planes.p0 = (planes.p0 & ~bit) | (planeBit0(v) << lane);
  planes.p1 = (planes.p1 & ~bit) | (planeBit1(v) << lane);
}

struct BatchSeeds {
  /// Per dense net: externally driven lanes; lanes not driving a net
  /// carry (0,0) = NOINFL and thus contribute nothing.
  const std::vector<LanePlanes>* inputValues = nullptr;
  /// Per REG node (indexed as in graph.regNodes): stored lane values.
  const std::vector<LanePlanes>* regValues = nullptr;
  /// Per-lane RANDOM streams, indexed by lane and advanced in place (lane
  /// L draws the same sequence a scalar run seeded with rngStates[L]
  /// would).  Only the lanes of laneMask are read or advanced.
  uint64_t* rngStates = nullptr;
  /// Lanes in use.  Contention is reported and RANDOM drawn only for
  /// these; the other lanes' values are unspecified.
  uint64_t laneMask = ~uint64_t{0};
  /// Per-lane fault-injection overlay (src/sim/fault.h), sealed against
  /// this graph; null or !any = fault-free.  Lane L of each mask mirrors
  /// what a scalar run with the same FaultMode on that net would compute.
  const BatchFaultPlan* faults = nullptr;
};

struct BatchCycleResult {
  /// Per tape slot: the dense nets first (netValues[i] for dense net i,
  /// raw, may be NOINFL; a net has an active driver exactly on its
  /// non-NOINFL lanes), then the tape's private driver slots.
  std::vector<LanePlanes> netValues;
  /// Per dense net: lanes with >=2 active drivers.  Written only for
  /// multi-driven nets and nets with a Contend fault, so read it only for
  /// the nets in `collisions`.
  std::vector<uint64_t> activeMulti;
  std::vector<uint32_t> collisions;   ///< nets with activeMulti∩laneMask ≠ ∅
};

class LevelizedBatchEvaluator {
 public:
  explicit LevelizedBatchEvaluator(const SimGraph& graph);

  void evaluate(const BatchSeeds& seeds, BatchCycleResult& out);
  [[nodiscard]] const EvalStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }
  /// Restores a previously captured counter state (snapshot resume).
  void setStats(const EvalStats& s) { stats_ = s; }

 private:
  const SimGraph& g_;
  EvalStats stats_;
  /// What one cycle adds to stats_: the schedule fires every node and
  /// resolves every net exactly once, whatever the values.
  EvalStats perCycle_;
};

}  // namespace zeus
