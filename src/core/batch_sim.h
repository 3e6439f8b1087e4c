// 64-wide batch simulation facade over the levelized evaluator.
//
// Packs up to 64 independent stimulus vectors ("lanes") into two bit
// planes per net and evaluates all of them with one word-parallel run of
// the graph's levelized tape — corpus regression sweeps and random
// differential testing run ~lanes cycles of work per evaluated cycle.
// Lane L behaves exactly like a scalar Simulation fed lane L's inputs:
// same net values, same register trajectories, same per-lane multiplex
// contention errors (SimError::lane tells the lanes apart).
//
// Not thread-safe, reads included: the const output reads fill a per-port
// cache (see outputUint), so one BatchSimulation must not be called from
// two threads at once.  Give each thread its own, as the farm does.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulation.h"

namespace zeus {

class BatchSimulation {
 public:
  static constexpr size_t kMaxLanes = 64;

  /// `lanes` independent stimulus streams (1..64) over one graph.
  explicit BatchSimulation(const SimGraph& graph, size_t lanes = kMaxLanes);

  [[nodiscard]] size_t lanes() const { return lanes_; }

  /// Clears registers to UNDEF, inputs to unset, cycle count to 0 and the
  /// per-lane RANDOM streams to their defaults (mirrors Simulation::reset).
  void reset();

  /// Resolves a port once for the handle overloads below (see
  /// PortHandle).  Throws std::invalid_argument on an unknown name.
  [[nodiscard]] PortHandle port(std::string_view name) const {
    return g_.port(name);
  }

  // -- driving inputs (persist until changed) --
  // Each string overload resolves the port and forwards to its handle
  // overload.  The per-lane setters (setInput, setInputUint, clearInput)
  // write the lane's whole port value into a lane-major staging buffer,
  // ceil(width / 64) words per plane, without branching on the value.
  // The staged lanes of every written port move into the simulator's
  // bit planes through one 64x64 transpose per 64 port bits, at the next
  // step() or evaluateOnly() and before any other call that reads or
  // writes port input state (setInputAll, setInputUintLanes,
  // saveSnapshot, restoreSnapshot); reset() drops them.
  void setInput(size_t lane, std::string_view port, Logic v);
  void setInput(size_t lane, std::string_view port,
                const std::vector<Logic>& bits);
  /// Sets an array port from an unsigned value; port index 1 is the LSB.
  void setInputUint(size_t lane, std::string_view port, uint64_t value);
  /// Drives the same value on every bit of the port, on every lane.
  void setInputAll(std::string_view port, Logic v);
  void clearInput(size_t lane, std::string_view port);
  void setInput(size_t lane, PortHandle port, Logic v);
  void setInput(size_t lane, PortHandle port, std::span<const Logic> bits);
  void setInputUint(size_t lane, PortHandle port, uint64_t value);
  void setInputAll(PortHandle port, Logic v);
  void clearInput(size_t lane, PortHandle port);

  // -- whole-port lane words --
  /// Sets every lane of the port at once, through a 64x64 bit transpose
  /// per 64 port bits.  `values` holds one word per lane for a port of up
  /// to 64 bits, and ceil(width / 64) words per lane, least significant
  /// first, for a wider one: lane L's words start at values[L * words].
  /// Port index 1 is the LSB, as in setInputUint.
  void setInputUintLanes(PortHandle port, std::span<const uint64_t> values);
  /// Broadcast: drives the port value `bits` on every lane.
  void setInputAll(PortHandle port, std::span<const Logic> bits);

  void setRset(bool active);               ///< all lanes
  void setRset(size_t lane, bool active);  ///< one lane
  /// Seed for lane `lane`'s RANDOM stream: the lane then draws the same
  /// sequence as a scalar Simulation with setRandomSeed(seed).
  void setRandomSeed(size_t lane, uint64_t seed);
  /// Current position of lane `lane`'s RANDOM stream (the value a
  /// snapshot of that lane would carry).
  [[nodiscard]] uint64_t randomState(size_t lane) const;

  // -- fault injection (parallel fault simulation) --
  /// Injects a hardware fault (src/sim/fault.h) into one lane: that lane
  /// then simulates the faulty machine while other lanes are unaffected —
  /// the classic golden-lane-0 parallel fault simulation setup used by
  /// runFaultCampaign().  Faults persist across reset(); clearFaults()
  /// removes them.
  void injectFault(size_t lane, const FaultSpec& fault);
  void clearFaults() {
    faults_.clear();
    faultWindow_.markStale();
  }

  // -- divergence probes (vs the golden lane 0) --
  /// Lanes (excluding lane 0) whose raw planes differ from lane 0 on this
  /// net in the last evaluated cycle.
  [[nodiscard]] uint64_t laneDiffMask(NetId net) const;
  /// Union of laneDiffMask over every net: all lanes that diverged from
  /// lane 0 anywhere this cycle.
  [[nodiscard]] uint64_t divergedLanes() const;

  // -- checkpointing --
  /// Registers of one lane only — see the Simulation::saveRegisters
  /// contract: partial state, no RNG/cycle/inputs/errors.
  [[nodiscard]] std::vector<Logic> saveRegisters(size_t lane) const;
  void restoreRegisters(size_t lane, const std::vector<Logic>& state);

  /// Full resumable state of one lane, interchangeable with a scalar
  /// Simulation snapshot of the same design: registers, pending inputs
  /// (NOINFL lanes read as unset; staged per-lane writes included, which
  /// is why this is not const), the lane's RANDOM stream, the shared
  /// cycle count and the lane's SimErrors (with lane reset to -1 so they
  /// restore cleanly into a scalar run).  Evaluator counters are batch-
  /// wide, not per lane, so the snapshot's stats field is left zero.
  [[nodiscard]] SimSnapshot saveSnapshot(size_t lane);
  /// Restores a (scalar or per-lane) snapshot into one lane.  Sets the
  /// batch's SHARED cycle counter to the snapshot's cycle and appends the
  /// snapshot's errors tagged with this lane.  Throws
  /// std::invalid_argument on design-hash or size mismatch.  The snapshot
  /// carries no net values, so netValue() and the outputs of EVERY lane
  /// read UNDEF until the next step() or evaluateOnly().
  void restoreSnapshot(size_t lane, const SimSnapshot& snap);

  /// Evaluates `n` clock cycles (evaluate + latch each) on every lane.
  void step(uint64_t n = 1);
  /// Evaluates combinationally without latching registers (inspection).
  void evaluateOnly();

  // -- observing --
  // String overloads resolve and forward, as the setters do.  Reads
  // gather a lane's bits with masks and AND up a "defined" mask rather
  // than branching per bit.
  [[nodiscard]] Logic output(size_t lane, std::string_view port) const;
  [[nodiscard]] std::vector<Logic> outputBits(size_t lane,
                                              std::string_view port) const;
  /// Value of an array port as an unsigned number; nullopt when any bit is
  /// UNDEF or NOINFL, or when the value does not fit 64 bits.  The first
  /// outputUint or outputUintLanes read of a port after an evaluation
  /// transposes every lane's value into a per-port cache; later reads of
  /// that port until the next step(), evaluateOnly(), restoreSnapshot()
  /// or reset() are served from it.
  [[nodiscard]] std::optional<uint64_t> outputUint(
      size_t lane, std::string_view port) const;
  [[nodiscard]] Logic output(size_t lane, PortHandle port) const;
  /// Fills `out` (out.size() == the port width) with lane `lane`'s bits.
  void outputBits(size_t lane, PortHandle port, std::span<Logic> out) const;
  [[nodiscard]] std::optional<uint64_t> outputUint(size_t lane,
                                                   PortHandle port) const;
  /// Every lane's outputUint at once (values.size() == lanes()), from the
  /// same per-port cache.  Returns the mask of lanes whose value is
  /// defined and fits; the other lanes' values read 0.
  uint64_t outputUintLanes(PortHandle port, std::span<uint64_t> values) const;
  [[nodiscard]] Logic netValue(size_t lane, NetId net) const;
  /// Every lane's raw value of `net` (netValue for all lanes at once, in
  /// the two-plane encoding); lanes beyond lanes() read NOINFL.
  [[nodiscard]] LanePlanes lanePlanes(NetId net) const;
  [[nodiscard]] Logic netValueByName(size_t lane,
                                     const std::string& name) const;

  [[nodiscard]] uint64_t cycle() const { return cycle_; }
  /// Runtime faults across all lanes, deterministically ordered by
  /// (cycle, lane, net name); SimError::lane identifies the lane.
  [[nodiscard]] const std::vector<SimError>& errors() const {
    return errors_;
  }
  [[nodiscard]] const EvalStats& stats() const { return eval_.stats(); }
  void resetStats() { eval_.resetStats(); }

  /// Counter snapshot of this run.  Per-evaluated-cycle counters (one
  /// word-parallel firing covers every lane), so totals compare directly
  /// with a scalar levelized run of the same cycle count; lane_cycles
  /// reports the lanes × cycles of scalar-equivalent work performed.
  [[nodiscard]] metrics::SimCounters metricsCounters() const;

  [[nodiscard]] const SimGraph& graph() const { return g_; }
  [[nodiscard]] const Design& design() const { return *g_.design; }

 private:
  void checkLane(size_t lane) const {
    if (lane >= lanes_) throwLane(lane);
  }
  [[noreturn]] void throwLane(size_t lane) const;
  /// Lane `lane`'s observed value of port bit i: NOINFL reads UNDEF on a
  /// boolean port (§4.1), and every bit reads UNDEF before the first
  /// evaluation.
  [[nodiscard]] Logic observe(const SimGraph::PortSlots& ps, size_t i,
                              size_t lane) const;

  /// Per-lane writes to one port since the last flush, lane-major: for
  /// port word k, plane 0 of lane L is words[128 * k + L] and plane 1 is
  /// words[128 * k + 64 + L].  Allocated on the port's first per-lane
  /// write; the flush transposes each 64-word block in place.
  struct PortStage {
    std::vector<uint64_t> words;
    uint64_t lanes = 0;  ///< lanes staged since the last flush
    /// Staged lanes holding an UNDEF or NOINFL bit.  Every other staged
    /// lane is two-valued: its plane 0 is the complement of plane 1 and
    /// is not staged.
    uint64_t mixed = 0;
  };
  /// Marks `lane` of `port` staged and returns its plane-0 word 0 (see
  /// PortStage for the stride).  Throws like slotsOf and checkLane.
  uint64_t* stage(size_t lane, PortHandle port);
  void setMixed(size_t lane, PortHandle port, bool mixed) {
    const uint64_t bit = uint64_t{1} << lane;
    uint64_t& m = staged_[port.index].mixed;
    m = (m & ~bit) | ((0 - uint64_t{mixed}) & bit);
  }
  /// Moves every staged lane into inputValues_.
  void flushInputs() {
    if (!dirtyPorts_.empty()) flushStaged();
  }
  void flushStaged();

  /// outputUint of every lane of one port, as of the evaluation the
  /// epoch names.  `values` (64 words, lane L's value or 0 when it is
  /// undefined) is allocated on the port's first read.
  struct PortReads {
    std::vector<uint64_t> values;
    uint64_t defined = 0;  ///< lanes whose value is defined and fits
    uint64_t epoch = 0;    ///< readEpoch_ at the fill; 0 = never filled
  };
  /// The port's cache entry, filled first if stale.
  const PortReads& reads(PortHandle port) const;

  void runCycle(bool latch);
  void seedDefaults();
  void buildFaultPlan();
  /// designContentHash of the design, hashed on the first snapshot save
  /// or restore and kept: a batch hashes once, not once per lane.
  [[nodiscard]] uint64_t designHash() const;

  const SimGraph& g_;
  size_t lanes_;
  uint64_t laneMask_;
  LevelizedBatchEvaluator eval_;

  std::vector<LanePlanes> inputValues_;  ///< per dense net
  std::vector<PortStage> staged_;        ///< per Design::ports index
  std::vector<uint32_t> dirtyPorts_;     ///< ports with staged lanes
  /// Some dense slot belongs to two ports, so a staged write to one port
  /// flushes the other's first: the last write to a slot must win.
  bool portsShareSlots_ = false;
  mutable std::vector<PortReads> reads_;  ///< per Design::ports index
  /// Bumped by every evaluation, restoreSnapshot and reset: a reads_
  /// entry filled at another epoch is stale.
  uint64_t readEpoch_ = 1;
  std::vector<LanePlanes> regValues_;    ///< per graph.regNodes index
  std::array<uint64_t, kMaxLanes> rngStates_;
  BatchCycleResult result_;
  uint64_t cycle_ = 0;
  std::vector<SimError> errors_;
  bool evaluated_ = false;
  std::vector<std::pair<uint32_t, FaultSpec>> faults_;  ///< (lane, fault)
  /// Overlay of faults_ for the cycles of faultWindow_.
  BatchFaultPlan faultPlan_;
  FaultWindow faultWindow_;
  mutable std::optional<uint64_t> designHash_;  ///< see designHash()
};

}  // namespace zeus
