// Deterministic fault injection (hardware faults) and parallel fault
// simulation campaigns.
//
// A FaultSpec models a classic VLSI defect on one net of the semantics
// graph: stuck-at-0/1 (a short to a rail), stuck-UNDEF (a floating or
// metastable node), a transient bit-flip over a cycle window (a single
// event upset), or forced contention (the §8 "burning transistors" fault
// raised on demand).  Faults are injected at net-resolution time in every
// evaluator — firing, naive, levelized and the 64-lane batch engine — so
// the faulty value propagates through downstream logic and register
// latching exactly like a real defect.
//
// On top of the injection hooks sits classic *parallel fault simulation*:
// lane 0 of a BatchSimulation runs the golden (fault-free) circuit while
// each remaining lane carries one candidate fault; all lanes see identical
// stimulus and one word-parallel walk evaluates golden plus up to 63
// faulty machines per cycle.  The campaign classifies every fault as
// detected (a definite difference on a primary output), masked (the fault
// perturbed internal state but never definitely reached an output) or
// undetected (it never changed any net value at all), and renders the
// result as a stable zeus-faults-v1 JSON report
// (docs/fault-injection.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/graph.h"
#include "src/support/logic.h"

namespace zeus {

/// The fault taxonomy (docs/fault-injection.md).
enum class FaultKind : uint8_t {
  StuckAt0 = 0,       ///< net permanently shorted to 0
  StuckAt1 = 1,       ///< net permanently shorted to 1
  StuckUndef = 2,     ///< net permanently undefined (floating node)
  TransientFlip = 3,  ///< defined values invert inside the cycle window
  ForcedContention = 4,  ///< net driven as if >=2 active drivers collided
};
inline constexpr uint8_t kFaultKindCount = 5;

[[nodiscard]] std::string_view faultKindName(FaultKind kind);

/// One fault on one net.  `denseNet` indexes the dense (alias-class root)
/// numbering of the SimGraph; the fault is active on cycles in
/// [fromCycle, toCycle] (stuck faults default to the whole run).
struct FaultSpec {
  FaultKind kind = FaultKind::StuckAt0;
  uint32_t denseNet = 0;
  uint64_t fromCycle = 0;
  uint64_t toCycle = ~uint64_t{0};

  [[nodiscard]] bool activeAt(uint64_t cycle) const {
    return cycle >= fromCycle && cycle <= toCycle;
  }
};

/// Resolves a net name to a FaultSpec; nullopt when the name is unknown.
[[nodiscard]] std::optional<FaultSpec> makeFault(
    const SimGraph& graph, FaultKind kind, const std::string& netName,
    uint64_t fromCycle = 0, uint64_t toCycle = ~uint64_t{0});

// ---------------------------------------------------------------------
// Per-cycle injection overlays (the evaluator-facing representation)
// ---------------------------------------------------------------------

/// What to do to one net's resolved value this cycle.
enum class FaultMode : uint8_t {
  None = 0,
  Force0,      ///< value := 0, net counts as actively driven
  Force1,      ///< value := 1, net counts as actively driven
  ForceUndef,  ///< value := UNDEF, net counts as actively driven
  Flip,        ///< 0 <-> 1; UNDEF/NOINFL pass through unchanged
  Contend,     ///< value := UNDEF, reported as a SimContention collision
};

[[nodiscard]] FaultMode faultModeOf(FaultKind kind);

/// Scalar overlay: one mode per dense net for the cycle being evaluated.
/// Evaluators treat a null/empty plan as fault-free; the only hot-path
/// cost when no faults are injected is one pointer test per cycle.
struct FaultPlan {
  std::vector<FaultMode> mode;  ///< per dense net; empty = no faults
  bool any = false;
};

/// Batch overlay: per dense net, one 64-bit lane mask per fault mode.
struct BatchFaultPlan {
  std::vector<uint64_t> force0;
  std::vector<uint64_t> force1;
  std::vector<uint64_t> forceUndef;
  std::vector<uint64_t> flip;
  std::vector<uint64_t> contend;
  /// (resolve position, net) of every faulted net, in schedule order once
  /// seal() has run: the levelized kernel runs its tape up to each
  /// position and overlays the net's slot there (LevelizedTape::
  /// resolvePos), so a fault-free stretch of the tape pays no fault test.
  std::vector<std::pair<uint32_t, uint32_t>> stops;
  bool any = false;

  void resize(size_t denseCount) {
    force0.assign(denseCount, 0);
    force1.assign(denseCount, 0);
    forceUndef.assign(denseCount, 0);
    flip.assign(denseCount, 0);
    contend.assign(denseCount, 0);
    stops.clear();
  }
  void clearNet(uint32_t dn) {
    force0[dn] = force1[dn] = forceUndef[dn] = flip[dn] = contend[dn] = 0;
  }
  /// Adds `mode` on net `dn` for the lanes in `lanes`.
  void add(uint32_t dn, FaultMode mode, uint64_t lanes) {
    switch (mode) {
      case FaultMode::None: return;
      case FaultMode::Force0: force0[dn] |= lanes; break;
      case FaultMode::Force1: force1[dn] |= lanes; break;
      case FaultMode::ForceUndef: forceUndef[dn] |= lanes; break;
      case FaultMode::Flip: flip[dn] |= lanes; break;
      case FaultMode::Contend: contend[dn] |= lanes; break;
    }
    stops.emplace_back(0, dn);
    any = true;
  }
  /// Orders `stops` by the nets' resolve steps in `g`'s schedule, drops
  /// repeats and fills in their resolve positions.  Call it once the plan
  /// is complete.
  void seal(const SimGraph& g);
};

/// The cycles over which a fault overlay stays valid: Simulation and
/// BatchSimulation build their plan at one cycle and keep it until some
/// fault switches on or off, so a run with faults injected pays the
/// O(nets) rebuild only when a fault window opens or closes.
/// injectFault and clearFaults mark the window stale.
class FaultWindow {
 public:
  /// True while a plan built at an earlier cycle still holds at `cycle`.
  [[nodiscard]] bool covers(uint64_t cycle) const {
    return cycle >= from_ && cycle < until_;
  }
  void markStale() { until_ = 0; }
  /// Starts the window of a plan built at `cycle`.  Every injected fault
  /// must then pass through activeAt(), active or not.
  void open(uint64_t cycle) {
    from_ = cycle;
    until_ = ~uint64_t{0};
  }
  /// Whether `f` is active at the window's first cycle.  Ends the window
  /// where `f` next switches on or off.
  bool activeAt(const FaultSpec& f) {
    if (from_ < f.fromCycle) {
      until_ = std::min(until_, f.fromCycle);
    } else if (from_ <= f.toCycle && f.toCycle != ~uint64_t{0}) {
      until_ = std::min(until_, f.toCycle + 1);
    }
    return f.activeAt(from_);
  }

 private:
  uint64_t from_ = 0;
  uint64_t until_ = 0;  ///< 0 = stale
};

/// Applies one fault mode to a resolved net value (shared by the three
/// scalar evaluators so their faulty runs stay bit-identical).  Force
/// modes make the net count as actively driven (a shorted rail drives);
/// Contend raises the active count to a colliding 2 so the §8 runtime
/// check fires.  A pre-existing real collision keeps its active count —
/// the fault overrides the value, not the contention report.
inline Logic applyScalarFault(FaultMode mode, Logic v, uint32_t& active) {
  switch (mode) {
    case FaultMode::None:
      return v;
    case FaultMode::Force0:
      if (active == 0) active = 1;
      return Logic::Zero;
    case FaultMode::Force1:
      if (active == 0) active = 1;
      return Logic::One;
    case FaultMode::ForceUndef:
      if (active == 0) active = 1;
      return Logic::Undef;
    case FaultMode::Flip:
      if (v == Logic::Zero) return Logic::One;
      if (v == Logic::One) return Logic::Zero;
      return v;
    case FaultMode::Contend:
      if (active < 2) active = 2;
      return Logic::Undef;
  }
  return v;
}

// ---------------------------------------------------------------------
// Fault-simulation campaigns
// ---------------------------------------------------------------------

/// Classification of one simulated fault.
struct FaultOutcome {
  FaultSpec spec;
  std::string net;  ///< resolved name of the faulted net
  enum class Status : uint8_t { Undetected = 0, Masked = 1, Detected = 2 };
  Status status = Status::Undetected;
  uint64_t firstDetectCycle = 0;  ///< valid when status == Detected
  std::string detector;  ///< output bit that first saw the fault, "s[3]"
  uint64_t simErrors = 0;  ///< SimError records on the fault's lane
};

[[nodiscard]] std::string_view faultStatusName(FaultOutcome::Status s);

/// Resumable campaign state: how far the fault universe has been swept
/// plus every finished classification.  Serialized by
/// src/sim/snapshot.{h,cpp} as the campaign-progress checkpoint kind.
struct CampaignProgress {
  uint64_t designHash = 0;  ///< designContentHash of the campaign's design
  uint64_t cycles = 0;
  uint64_t seed = 0;
  uint32_t lanes = 0;
  uint64_t totalFaults = 0;
  uint64_t nextFault = 0;  ///< first fault index not yet classified
  std::vector<FaultOutcome> done;
};

struct FaultCampaignOptions {
  /// Clock cycles simulated per fault batch (cycle 0 pulses RSET, the
  /// rest drive seeded pseudo-random primary-input vectors).
  uint64_t cycles = 32;
  uint64_t seed = 0xC0FFEEull;
  /// Lanes per batch (2..64): lane 0 is golden, the rest carry faults.
  size_t lanes = 64;
  /// Wall-clock budget; 0 = unlimited.  Exhaustion stops the campaign at
  /// a batch boundary with report.interrupted set (the checkpoint hook
  /// fires first, so the run can resume).
  uint64_t maxMillis = 0;
  /// Emit a CampaignProgress checkpoint every N completed batches
  /// (0 = never).  Also fired on a budget interruption.
  uint64_t checkpointEveryBatches = 0;
  std::function<void(const CampaignProgress&)> onCheckpoint;
  /// Called after every evaluated batch cycle with the cumulative count —
  /// the crash-injection hook behind `zeusc --die-at-cycle`.
  std::function<void(uint64_t evaluatedCycles)> onCycle;
  /// Faults to simulate; empty = the default universe of stuck-at-0 and
  /// stuck-at-1 on every dense net, in dense order.
  std::vector<FaultSpec> universe;
};

struct FaultCampaignReport {
  std::string design;
  uint64_t cycles = 0;
  uint64_t seed = 0;
  uint32_t lanes = 0;
  uint64_t totalBatches = 0;     ///< of the full universe
  uint64_t evaluatedCycles = 0;  ///< batch cycles run by *this* process
  bool interrupted = false;      ///< stopped by the wall-clock budget
  std::vector<FaultOutcome> faults;  ///< one per universe entry, in order

  [[nodiscard]] uint64_t countOf(FaultOutcome::Status s) const;
  /// Fault coverage: detected / total (0 when the universe is empty).
  [[nodiscard]] double coverage() const;
  /// The zeus-faults-v1 JSON document (docs/fault-injection.md).  Fully
  /// deterministic — no timestamps or process-local counters — so a
  /// resumed campaign renders byte-identically to a straight run.
  [[nodiscard]] std::string renderJson() const;
};

/// The default stuck-at universe: SA0 then SA1 on every dense net.
[[nodiscard]] std::vector<FaultSpec> defaultFaultUniverse(
    const SimGraph& graph);

/// Runs (or resumes) a parallel fault-simulation campaign.  Deterministic:
/// every batch derives its stimulus from (seed, batch index) alone, so a
/// resume from a checkpoint reproduces the straight run bit-for-bit.
/// `resume`, when given, must match the campaign parameters (cycles, seed,
/// universe size) — std::invalid_argument otherwise.
[[nodiscard]] FaultCampaignReport runFaultCampaign(
    const SimGraph& graph, const FaultCampaignOptions& opts,
    const CampaignProgress* resume = nullptr);

}  // namespace zeus
