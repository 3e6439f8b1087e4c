// Cycle-accurate simulation of an elaborated Zeus design (§5, §8).
//
// Time proceeds in discrete clock cycles.  Each step() evaluates every
// signal once (firing rules, the naive baseline or the levelized kernel),
// records runtime errors (multiple active drivers on one signal — the
// "burning transistors" check), then latches every REG: a register keeps
// its value when its input was not changed during the cycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/fault.h"
#include "src/sim/firing_evaluator.h"
#include "src/sim/levelized_evaluator.h"
#include "src/sim/naive_evaluator.h"
#include "src/support/diagnostics.h"
#include "src/support/metrics.h"

namespace zeus {

/// Firing: event-driven §8 firing rules (short-circuit, one pass); the
/// oracle every other engine is checked against.
/// Naive: sweep-to-fixpoint baseline (ablation partner).
/// Levelized: one loop over the graph's flat tape, the fastest
/// interpreter.  It is the word-parallel kernel under the 64-lane
/// BatchSimulation facade (src/core/batch_sim.h), run on lane 0 alone.
enum class EvaluatorKind { Firing, Naive, Levelized };

/// A runtime fault recorded during simulation.  Faults never abort the
/// run; they accumulate in Simulation::errors() with a stable Diag code
/// (SimContention, SimWatchdog, SimWallClock) so callers and tests can
/// match on them like any other diagnostic.
struct SimError {
  uint64_t cycle;
  Diag code;
  std::string netName;  ///< empty for faults not tied to one net
  std::string message;
  int32_t lane = -1;  ///< stimulus lane (BatchSimulation); -1 = scalar

  friend bool operator==(const SimError&, const SimError&) = default;
};

/// The metrics counter snapshot of a run of `cycles` cycles on `lanes`
/// lanes: its evaluator counters and the tally of its SimErrors.  The
/// watchdog margin is reported only when `watchdog` is set (the firing
/// evaluator) and a cycle completed.
[[nodiscard]] metrics::SimCounters simCounters(
    const char* evaluator, const EvalStats& s, uint64_t cycles,
    uint64_t lanes, const std::vector<SimError>& errors,
    bool watchdog = false);

/// Complete simulation state at a cycle boundary: everything needed to
/// resume a run bit-identically — registers, pending inputs, the RANDOM
/// stream, the cycle count, accumulated SimErrors, cumulative evaluator
/// counters, and a content hash of the design the state belongs to.
/// Binary (de)serialization with versioning lives in src/sim/snapshot.h;
/// this struct is the in-memory form.
struct SimSnapshot {
  uint64_t designHash = 0;  ///< designContentHash() of the source design
  uint64_t cycle = 0;
  uint64_t rngState = 0;
  EvalStats stats;                ///< cumulative counters at save time
  std::vector<Logic> regValues;   ///< per graph.regNodes index
  std::vector<Logic> inputValues; ///< per dense net (pending inputs)
  std::vector<char> inputSet;
  std::vector<SimError> errors;   ///< accumulated up to the snapshot
};

class Simulation {
 public:
  struct Options {
    EvaluatorKind evaluator = EvaluatorKind::Firing;
    /// Firing watchdog: abort a cycle after this many input-arrival
    /// events (0 = automatic, see CycleSeeds::eventBudget).
    uint64_t maxEventsPerCycle = 0;
    /// Wall-clock budget for step(); 0 = unlimited.  When exceeded the
    /// run stops early with a SimWallClock fault.
    uint64_t maxSimMillis = 0;
    /// Per-net activity profiling (toggle counts, UNDEF/NOINFL dwell);
    /// adds one O(nets) sweep per latched cycle, so it is off by default
    /// and the only cost when off is a single branch per cycle.
    bool profileActivity = false;
  };

  explicit Simulation(const SimGraph& graph,
                      EvaluatorKind kind = EvaluatorKind::Firing);
  Simulation(const SimGraph& graph, const Options& opts);

  /// Clears registers to UNDEF, inputs to unset, cycle count to 0.
  void reset();

  /// Resolves a port once for the handle overloads below (see
  /// PortHandle).  Throws std::invalid_argument on an unknown name.
  [[nodiscard]] PortHandle port(std::string_view name) const {
    return g_.port(name);
  }

  // -- driving inputs (persist until changed) --
  // Each string overload resolves the port and forwards to its handle
  // overload, which neither looks the name up nor allocates.
  void setInput(std::string_view port, Logic v);
  void setInput(std::string_view port, const std::vector<Logic>& bits);
  /// Sets an array port from an unsigned value; port index 1 is the LSB.
  void setInputUint(std::string_view port, uint64_t value);
  void clearInput(std::string_view port);
  void setInput(PortHandle port, Logic v);
  void setInput(PortHandle port, std::span<const Logic> bits);
  void setInputUint(PortHandle port, uint64_t value);
  void clearInput(PortHandle port);
  void setRset(bool active);
  /// Seed for RANDOM components (deterministic runs).
  void setRandomSeed(uint64_t seed);
  /// Current position of the RANDOM stream (what a snapshot would carry).
  [[nodiscard]] uint64_t randomState() const { return rngState_; }

  // -- fault injection --
  /// Injects a hardware fault (src/sim/fault.h).  The fault applies on
  /// every cycle in its [fromCycle, toCycle] window, in whichever
  /// evaluator this simulation uses; forced-contention faults surface as
  /// SimContention errors like real collisions.  Injected faults persist
  /// across reset() — clearFaults() removes them.
  void injectFault(const FaultSpec& fault);
  void clearFaults() {
    faults_.clear();
    faultWindow_.markStale();
  }
  [[nodiscard]] const std::vector<FaultSpec>& faults() const {
    return faults_;
  }

  // -- checkpointing --
  /// Captures the register state (one value per REG, in graph order).
  /// CONTRACT: this is a *partial* checkpoint.  It captures registers
  /// only — not the RANDOM stream (`rngState_`), not the cycle count, not
  /// pending inputs, not accumulated errors — so restoring it resumes a
  /// run bit-identically only for designs without RANDOM components and
  /// stimulus that does not depend on the cycle number.  For exact resume
  /// semantics use saveSnapshot()/restoreSnapshot().
  [[nodiscard]] std::vector<Logic> saveRegisters() const;
  /// Restores a previously saved register state (see the saveRegisters
  /// contract: rngState_, cycle count, pending inputs and errors keep
  /// their current values and go stale relative to the saved run).
  void restoreRegisters(const std::vector<Logic>& state);

  /// Captures the complete resumable state: registers, pending inputs,
  /// RANDOM stream, cycle count, accumulated errors, evaluator counters
  /// and the design content hash.  A run restored from this snapshot is
  /// bit-identical to one that never stopped — including RANDOM draws,
  /// error accumulation and metrics counters.  (Activity-profiling state
  /// is not part of the snapshot.)
  [[nodiscard]] SimSnapshot saveSnapshot() const;
  /// Restores a snapshot taken on a Simulation of the same design (any
  /// evaluator).  Throws std::invalid_argument when the snapshot's design
  /// hash or state sizes do not match this design.  The snapshot carries
  /// no net values, so netValue() and the outputs read UNDEF until the
  /// next step() or evaluateOnly().
  void restoreSnapshot(const SimSnapshot& snap);

  /// Evaluates `n` clock cycles (evaluate + latch each).  Stops early —
  /// recording a SimWallClock fault — when the wall-clock budget runs out.
  void step(uint64_t n = 1);
  /// Evaluates combinationally without latching registers (inspection).
  void evaluateOnly();

  // -- observing (string overloads resolve and forward) --
  [[nodiscard]] Logic output(std::string_view port) const;
  [[nodiscard]] std::vector<Logic> outputBits(std::string_view port) const;
  /// Value of an array port as an unsigned number; nullopt when any bit is
  /// UNDEF or NOINFL, or when the value does not fit 64 bits.
  [[nodiscard]] std::optional<uint64_t> outputUint(
      std::string_view port) const;
  [[nodiscard]] Logic output(PortHandle port) const;
  /// Fills `out` (out.size() == the port width) with the port's bits.
  void outputBits(PortHandle port, std::span<Logic> out) const;
  [[nodiscard]] std::optional<uint64_t> outputUint(PortHandle port) const;
  [[nodiscard]] Logic netValue(NetId net) const;
  [[nodiscard]] Logic netValueByName(const std::string& name) const;

  [[nodiscard]] uint64_t cycle() const { return cycle_; }
  [[nodiscard]] const std::vector<SimError>& errors() const {
    return errors_;
  }
  [[nodiscard]] const EvalStats& stats() const;
  void resetStats();

  /// Per-net toggle counts and UNDEF/NOINFL dwell keyed to netlist
  /// names: hottest nets by toggles, deepest cones by graph level.
  /// Empty (ran=false) unless profiling was enabled.
  [[nodiscard]] metrics::ActivityReport activityReport(
      size_t topHottest = 10, size_t topDeepest = 5) const;
  /// Counter snapshot of this run for the metrics JSON / --stats table.
  [[nodiscard]] metrics::SimCounters metricsCounters() const;

  [[nodiscard]] const SimGraph& graph() const { return g_; }
  [[nodiscard]] const Design& design() const { return *g_.design; }

 private:
  /// A port bit's observed value: NOINFL reads UNDEF on a boolean port
  /// (§4.1), and every bit reads UNDEF before the first evaluation.
  [[nodiscard]] Logic observe(const SimGraph::PortSlots& ps, size_t i) const;
  void driveInput(uint32_t dn, Logic v);
  void runCycle(bool latch);
  /// Runs the firing or naive evaluator and packs its result into lane 0
  /// of result_.
  void evaluateScalar();
  void profileCycle();
  void buildFaultPlan();
  void setStatsInternal(const EvalStats& s);

  const SimGraph& g_;
  Options opts_;
  EvaluatorKind kind_;
  std::unique_ptr<FiringEvaluator> firing_;
  std::unique_ptr<NaiveEvaluator> naive_;
  std::unique_ptr<LevelizedBatchEvaluator> levelized_;

  std::vector<Logic> inputValues_;  ///< per dense net
  std::vector<char> inputSet_;
  /// The same inputs as lane 0 of the levelized kernel's planes (unset
  /// reads NOINFL), written alongside inputValues_.
  std::vector<LanePlanes> inputPlanes_;
  std::vector<LanePlanes> regValues_;  ///< per graph.regNodes index, lane 0
  /// The last evaluated cycle in lane 0, whatever the engine: the
  /// levelized kernel writes it; the firing and naive results are packed
  /// in (values and the collision list, which is all the facade reads).
  BatchCycleResult result_;
  CycleResult scalar_;             ///< firing / naive result
  std::vector<Logic> scalarRegs_;  ///< regValues_ unpacked for them
  bool watchdogTripped_ = false;
  uint64_t cycle_ = 0;
  uint64_t rngState_ = kDefaultRngSeed;
  std::vector<SimError> errors_;
  bool evaluated_ = false;
  std::vector<FaultSpec> faults_;
  /// The overlay of faults_ for the cycles of faultWindow_: per-net modes
  /// for firing and naive, lane-0 masks for the levelized kernel.
  FaultPlan faultPlan_;
  BatchFaultPlan laneFaults_;
  FaultWindow faultWindow_;

  // Activity profiler (allocated when Options::profileActivity is set).
  bool prevValid_ = false;  ///< prevValues_ holds the last profiled cycle
  uint64_t profiledCycles_ = 0;
  std::vector<Logic> prevValues_;      ///< per dense net
  std::vector<uint64_t> toggles_;      ///< per dense net
  std::vector<uint64_t> undefCycles_;  ///< per dense net
  std::vector<uint64_t> noinflCycles_;
};

}  // namespace zeus
