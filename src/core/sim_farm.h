// Multi-core simulation farm: N worker threads × 64-lane batch blocks.
//
// One compiled design, thousands of concurrent stimulus lanes.  The lane
// space [0, lanes) is cut into blocks of 64 lanes (the last one may be
// partial); each block is an independent BatchSimulation claimed from a
// shared queue by a pool of worker threads.  Everything a lane computes
// — its §8 RANDOM stream, its pseudo-random input stimulus, its output
// checksum — is a pure function of (root seed, global lane index[,
// cycle]) derived with the same splitmix64 used by runFaultCampaign, and
// never of the thread count or the block partition.  Consequences:
//
//   * determinism: the farm produces bit-identical results at 1, 2 or N
//     threads, and lane L matches a firing-rule Simulation given lane L's
//     derived seed and stimulus (runFarmScalarOracle is that oracle);
//   * canonical merge: per-block SimErrors are re-tagged with global lane
//     indices and merged in (cycle, lane, net) order, so errors() reads
//     the same no matter which thread simulated which block;
//   * resume: a FarmSnapshot (src/sim/snapshot.h) restores every lane
//     bit-identically because cycle-c stimulus can be replayed without
//     the history that produced cycles [0, c).
//
// Counters stay engine-invariant: each block's EvalStats equal a scalar
// levelized run of the same cycle count, so the merged farm totals equal
// blocks × scalar — invariant in the thread count, which the
// differential tests assert.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/batch_sim.h"
#include "src/sim/snapshot.h"
#include "src/support/histogram.h"

namespace zeus {

/// RANDOM-stream seed for global lane `lane` (never 0, so no lane can sit
/// in xorshift's absorbing state).
[[nodiscard]] uint64_t farmLaneRngSeed(uint64_t rootSeed, uint64_t lane);

/// Stimulus-stream seed for (global lane, cycle); the lane's input ports
/// are filled from an xorshift run of this seed each cycle.  Stateless on
/// purpose: resuming at any cycle boundary replays the exact stimulus of
/// a straight run.
[[nodiscard]] uint64_t farmStimulusSeed(uint64_t rootSeed, uint64_t lane,
                                        uint64_t cycle);

struct FarmOptions {
  size_t threads = 1;  ///< worker threads (clamped to [1, blocks])
  size_t lanes = BatchSimulation::kMaxLanes;  ///< total lanes, all blocks
  uint64_t cycles = 0;
  uint64_t seed = 0xC0FFEEull;  ///< root of every derived stream
  /// Capture a FarmSnapshot when every lane has evaluated exactly this
  /// many cycles (0 = never).  Delivered via onCheckpoint after the run.
  uint64_t checkpointAtCycle = 0;
  std::function<void(const FarmSnapshot&)> onCheckpoint;
};

struct FarmReport {
  uint64_t cycles = 0;  ///< cycles evaluated per lane (incl. pre-resume)
  size_t lanes = 0;
  size_t blocks = 0;
  size_t threads = 0;  ///< worker threads actually used
  std::vector<uint64_t> checksums;  ///< per global lane: output history
  std::vector<uint64_t> rngStates;  ///< per global lane: final RANDOM pos
  std::vector<SimError> errors;     ///< canonical (cycle, lane, net) order
  EvalStats stats;                  ///< merged across blocks
  double seconds = 0;               ///< wall clock of the parallel section
  /// Per-block wall time (microseconds), one record per block, merged
  /// after the workers join.  The merge is per-bucket sums, so the
  /// histogram state is a pure function of the recorded values — the
  /// thread count moves the values themselves (physical time), never the
  /// merge.  Snapshot name: "farm.block_us".
  histogram::Histogram blockUs;

  /// Order-sensitive fold of the per-lane checksums: one word that equals
  /// iff every lane's full output history equals.
  [[nodiscard]] uint64_t mergedChecksum() const;
  [[nodiscard]] double laneCyclesPerSec() const;
};

/// Runs the farm.  `resume` (optional) must match the design, lane
/// geometry and seed of the snapshot; the run continues at resume->cycle
/// and the report covers the whole logical run.  Throws
/// std::invalid_argument on bad options or a mismatched snapshot.
FarmReport runFarm(const SimGraph& graph, const FarmOptions& opts,
                   const FarmSnapshot* resume = nullptr);

/// The differential oracle: the same logical run, one scalar Simulation
/// per lane on the firing evaluator (the §8 oracle, which shares no code
/// with the farm's levelized kernel).  checksums / rngStates / errors
/// compare directly with runFarm; stats are the firing evaluator's, summed
/// over the lane sims.
FarmReport runFarmScalarOracle(const SimGraph& graph,
                               const FarmOptions& opts);

/// Counter snapshot for --metrics / --stats (evaluator "farm";
/// lane_cycles = lanes × cycles of scalar-equivalent work).
[[nodiscard]] metrics::SimCounters farmMetricsCounters(const FarmReport& r);

}  // namespace zeus
