#include "src/core/sim_farm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/sim/stimulus.h"
#include "src/support/eventlog.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace zeus {

namespace {

metrics::Counter farmRuns("farm-runs");
metrics::Counter farmBlocks("farm-blocks");

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

/// Draws one port's stimulus from a lane's stream: one word per 64 port
/// bits, least significant first (the farm's lane-word layout).
void stimulusWords(uint64_t& stream, uint64_t* words, size_t count) {
  for (size_t k = 0; k < count; ++k) words[k] = xorshift(stream);
}

/// The same draws as bits (pre-sized to the port width), for the scalar
/// oracle.
void stimulusBits(uint64_t& stream, std::vector<Logic>& bits) {
  uint64_t word = 0;
  for (size_t b = 0; b < bits.size(); ++b) {
    if (b % 64 == 0) stimulusWords(stream, &word, 1);
    bits[b] = logicFromBool((word >> (b % 64)) & 1);
  }
}

void foldChecksum(uint64_t& h, Logic v) {
  h = (h ^ (static_cast<uint64_t>(v) + 1)) * kFnvPrime;
}

/// Canonical farm error order: (cycle, lane, net), then code for the
/// (unlikely) case of two distinct faults on one lane-net-cycle.
void sortCanonical(std::vector<SimError>& errors) {
  std::stable_sort(errors.begin(), errors.end(),
                   [](const SimError& a, const SimError& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     if (a.lane != b.lane) return a.lane < b.lane;
                     if (a.netName != b.netName) return a.netName < b.netName;
                     return a.code < b.code;
                   });
}

void validateOptions(const FarmOptions& opts) {
  if (opts.lanes == 0) {
    throw std::invalid_argument("farm needs at least one lane");
  }
  if (opts.threads == 0) {
    throw std::invalid_argument("farm needs at least one thread");
  }
}

}  // namespace

uint64_t farmLaneRngSeed(uint64_t rootSeed, uint64_t lane) {
  uint64_t s = splitmix(rootSeed ^ ((lane + 1) * kGolden));
  return s ? s : 1;
}

uint64_t farmStimulusSeed(uint64_t rootSeed, uint64_t lane, uint64_t cycle) {
  uint64_t s = splitmix(splitmix(rootSeed ^ ((lane + 1) * kGolden)) ^
                        ((cycle + 1) * 0xBF58476D1CE4E5B9ull));
  return s ? s : 1;
}

uint64_t FarmReport::mergedChecksum() const {
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint64_t c : checksums) h = (h ^ c) * kFnvPrime;
  return h;
}

double FarmReport::laneCyclesPerSec() const {
  if (seconds <= 0) return 0;
  return static_cast<double>(cycles) * static_cast<double>(lanes) / seconds;
}

FarmReport runFarm(const SimGraph& graph, const FarmOptions& opts,
                   const FarmSnapshot* resume) {
  ZEUS_TRACE_SPAN("farm-run", "sim");
  validateOptions(opts);
  const size_t lanes = opts.lanes;
  constexpr size_t perBlock = BatchSimulation::kMaxLanes;
  const size_t blocks = (lanes + perBlock - 1) / perBlock;

  const uint64_t startCycle = resume ? resume->cycle : 0;
  const bool checkpointing = opts.checkpointAtCycle > startCycle &&
                             opts.checkpointAtCycle <= opts.cycles &&
                             opts.onCheckpoint;
  // Hashed only when a farm snapshot is read or written.
  const uint64_t designHash =
      resume || checkpointing ? designContentHash(*graph.design) : 0;
  EvalStats baseStats;
  if (resume) {
    if (resume->designHash != designHash) {
      throw std::invalid_argument(
          "farm snapshot was taken on a different design");
    }
    if (resume->totalLanes != lanes || resume->lanesPerBlock != perBlock ||
        resume->seed != opts.seed) {
      throw std::invalid_argument(
          "farm snapshot does not match this run (lanes, block size or "
          "seed differ)");
    }
    if (resume->cycle > opts.cycles) {
      throw std::invalid_argument(
          "farm snapshot is further along than the requested cycle count");
    }
    if (resume->lanes.size() != lanes || resume->checksums.size() != lanes) {
      throw std::invalid_argument("farm snapshot lane state is incomplete");
    }
    baseStats = resume->stats;
  }

  const std::vector<Observable> outputs = observableOutputs(graph);
  const std::vector<PortHandle> inputs = stimulusInputs(graph);

  FarmReport report;
  report.cycles = opts.cycles;
  report.lanes = lanes;
  report.blocks = blocks;
  report.threads = std::max<size_t>(1, std::min(opts.threads, blocks));
  report.checksums.assign(lanes, 0);
  report.rngStates.assign(lanes, 0);
  if (resume) report.checksums = resume->checksums;

  eventlog::emit(eventlog::Severity::Info, "farm", "run-start",
                 {eventlog::num("lanes", static_cast<uint64_t>(lanes)),
                  eventlog::num("blocks", static_cast<uint64_t>(blocks)),
                  eventlog::num("threads",
                                static_cast<uint64_t>(report.threads)),
                  eventlog::num("cycles", opts.cycles)});

  // Per-block result slots: each worker writes only its claimed block's
  // slot (and its block's disjoint lane range), so the merge below needs
  // no locks — just the joins.
  std::vector<std::vector<SimError>> blockErrors(blocks);
  std::vector<EvalStats> blockStats(blocks);
  std::vector<uint64_t> blockWallUs(blocks, 0);
  std::vector<EvalStats> checkpointStats(checkpointing ? blocks : 0);
  std::vector<SimSnapshot> checkpointLanes(checkpointing ? lanes : 0);
  std::vector<uint64_t> checkpointSums(checkpointing ? lanes : 0);

  std::atomic<size_t> nextBlock{0};
  std::mutex failMutex;
  std::string firstFailure;

  auto runBlock = [&](size_t b) {
    const auto blockT0 = std::chrono::steady_clock::now();
    const size_t first = b * perBlock;
    const size_t n = std::min(perBlock, lanes - first);
    BatchSimulation batch(graph, n);
    if (resume) {
      for (size_t l = 0; l < n; ++l) {
        batch.restoreSnapshot(l, resume->lanes[first + l]);
      }
    } else {
      for (size_t l = 0; l < n; ++l) {
        batch.setRandomSeed(l, farmLaneRngSeed(opts.seed, first + l));
      }
    }
    std::vector<uint64_t> streams(n);
    std::vector<uint64_t> words;  // one port's lane words
    for (uint64_t c = startCycle; c < opts.cycles; ++c) {
      batch.setRset(c == 0);  // cycle 0 is the reset pulse
      for (size_t l = 0; l < n; ++l) {
        streams[l] = farmStimulusSeed(opts.seed, first + l, c);
      }
      for (const PortHandle& p : inputs) {
        const size_t perLane = (p.width + 63) / 64;
        words.resize(n * perLane);
        for (size_t l = 0; l < n; ++l) {
          stimulusWords(streams[l], &words[l * perLane], perLane);
        }
        batch.setInputUintLanes(p, words);
      }
      batch.step(1);
      // Each lane folds the outputs in the same order as the oracle.
      for (const Observable& obs : outputs) {
        const LanePlanes v = batch.lanePlanes(obs.net);
        for (size_t l = 0; l < n; ++l) {
          foldChecksum(report.checksums[first + l],
                       laneValue(v, static_cast<uint32_t>(l)));
        }
      }
      if (checkpointing && c + 1 == opts.checkpointAtCycle) {
        checkpointStats[b] = batch.stats();
        for (size_t l = 0; l < n; ++l) {
          checkpointLanes[first + l] = batch.saveSnapshot(l);
          checkpointSums[first + l] = report.checksums[first + l];
        }
      }
    }
    for (size_t l = 0; l < n; ++l) {
      report.rngStates[first + l] = batch.randomState(l);
    }
    blockStats[b] = batch.stats();
    std::vector<SimError>& errs = blockErrors[b];
    errs = batch.errors();
    for (SimError& e : errs) {
      e.lane = static_cast<int32_t>(first) + std::max<int32_t>(e.lane, 0);
    }
    blockWallUs[b] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - blockT0)
            .count());
    eventlog::emit(eventlog::Severity::Debug, "farm", "block-done",
                   {eventlog::num("block", static_cast<uint64_t>(b)),
                    eventlog::num("lanes", static_cast<uint64_t>(n)),
                    eventlog::num("wall_us", blockWallUs[b])});
    farmBlocks.add();
  };

  auto worker = [&]() {
    for (;;) {
      size_t b = nextBlock.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      try {
        runBlock(b);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failMutex);
        if (firstFailure.empty()) firstFailure = e.what();
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    pool.reserve(report.threads - 1);
    for (size_t t = 1; t < report.threads; ++t) pool.emplace_back(worker);
    worker();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!firstFailure.empty()) {
    throw std::runtime_error("farm block failed: " + firstFailure);
  }

  report.stats = baseStats;
  for (const EvalStats& s : blockStats) report.stats += s;
  size_t total = 0;
  for (const auto& errs : blockErrors) total += errs.size();
  report.errors.reserve(total);
  for (auto& errs : blockErrors) {
    report.errors.insert(report.errors.end(),
                         std::make_move_iterator(errs.begin()),
                         std::make_move_iterator(errs.end()));
  }
  sortCanonical(report.errors);
  // Merge in block order; per-bucket sums make the result independent of
  // which worker ran which block anyway.
  for (uint64_t us : blockWallUs) report.blockUs.record(us);
  farmRuns.add();
  eventlog::emit(
      eventlog::Severity::Info, "farm", "run-done",
      {eventlog::num("seconds", report.seconds),
       eventlog::num("faults", static_cast<uint64_t>(report.errors.size())),
       eventlog::num("block_us_p99", report.blockUs.percentile(99))});

  if (checkpointing) {
    FarmSnapshot snap;
    snap.designHash = designHash;
    snap.cycle = opts.checkpointAtCycle;
    snap.seed = opts.seed;
    snap.totalLanes = static_cast<uint32_t>(lanes);
    snap.lanesPerBlock = static_cast<uint32_t>(perBlock);
    snap.stats = baseStats;
    for (const EvalStats& s : checkpointStats) snap.stats += s;
    snap.checksums = std::move(checkpointSums);
    snap.lanes = std::move(checkpointLanes);
    opts.onCheckpoint(snap);
  }
  return report;
}

FarmReport runFarmScalarOracle(const SimGraph& graph,
                               const FarmOptions& opts) {
  ZEUS_TRACE_SPAN("farm-oracle", "sim");
  validateOptions(opts);
  const size_t lanes = opts.lanes;
  const std::vector<Observable> outputs = observableOutputs(graph);
  const std::vector<PortHandle> inputs = stimulusInputs(graph);

  FarmReport report;
  report.cycles = opts.cycles;
  report.lanes = lanes;
  report.blocks = lanes;  // one scalar sim per lane
  report.threads = 1;
  report.checksums.assign(lanes, 0);
  report.rngStates.assign(lanes, 0);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Logic> bits;
  for (size_t lane = 0; lane < lanes; ++lane) {
    Simulation sim(graph, EvaluatorKind::Firing);
    sim.setRandomSeed(farmLaneRngSeed(opts.seed, lane));
    uint64_t& h = report.checksums[lane];
    for (uint64_t c = 0; c < opts.cycles; ++c) {
      sim.setRset(c == 0);
      uint64_t stream = farmStimulusSeed(opts.seed, lane, c);
      for (const PortHandle& p : inputs) {
        bits.resize(p.width);
        stimulusBits(stream, bits);
        sim.setInput(p, bits);
      }
      sim.step(1);
      for (const Observable& obs : outputs) {
        foldChecksum(h, sim.netValue(obs.net));
      }
    }
    report.rngStates[lane] = sim.randomState();
    for (const SimError& e : sim.errors()) {
      SimError tagged = e;
      tagged.lane = static_cast<int32_t>(lane);
      report.errors.push_back(std::move(tagged));
    }
    report.stats += sim.stats();
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sortCanonical(report.errors);
  return report;
}

metrics::SimCounters farmMetricsCounters(const FarmReport& r) {
  return simCounters("farm", r.stats, r.cycles, r.lanes, r.errors);
}

}  // namespace zeus
