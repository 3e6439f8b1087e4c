// E9 — levelized simulation: the statically scheduled evaluator against
// the firing rules and the naive fixpoint baseline, scalar and 64-lane
// batch, on the paper's ripple-carry adder (§3.2/§10).
//
// Unlike the google-benchmark binaries this one has a plain main() so the
// ctest smoke target can run it with a tiny cycle count and validate the
// emitted BENCH_sim.json.  Every evaluator is driven with the same
// pseudo-random stimulus and must produce the same checksum — the bench
// doubles as a coarse differential test.
//
// With --overhead it instead times the levelized engine in three
// configurations — a raw evaluator loop ("bare"), the Simulation facade
// with all observability off ("disabled") and with the telemetry recorder
// + activity profiling on ("enabled") — and writes a zeus-bench-overhead-v1 JSON;
// the bench_metrics_smoke ctest asserts disabled stays within 5% of bare
// (the zero-overhead-when-disabled claim).  Its cycle count grows from
// --cycles until every timed rep lasts at least 0.2 s.
//
// Usage: bench_levelized [--cycles N] [--width W] [--out FILE] [--overhead]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sim_farm.h"
#include "src/core/zeus.h"
#include "src/corpus/corpus.h"
#include "src/support/buildinfo.h"
#include "src/support/metrics.h"
#include "src/support/telemetry.h"

namespace {

using Clock = std::chrono::steady_clock;

struct RunResult {
  std::string name;
  uint64_t lanes = 1;
  uint64_t evaluatedCycles = 0;  ///< calls into the evaluator
  uint64_t laneCycles = 0;       ///< stimulus vectors simulated
  double seconds = 0;
  uint64_t checksum = 0;  ///< sum of `s` outputs over all lane cycles
  zeus::metrics::SimCounters counters;  ///< embedded in BENCH_sim.json

  [[nodiscard]] double cyclesPerSec() const {
    return seconds > 0 ? static_cast<double>(laneCycles) / seconds : 0;
  }
};

uint64_t xorshift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

RunResult runScalar(const zeus::SimGraph& g, zeus::EvaluatorKind kind,
                    const char* name, int width, uint64_t cycles) {
  zeus::Simulation sim(g, kind);
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t rng = 0xFEED;
  RunResult r;
  r.name = name;
  sim.setInput("cin", zeus::Logic::Zero);
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < cycles; ++i) {
    uint64_t x = xorshift(rng);
    sim.setInputUint("a", x & mask);
    sim.setInputUint("b", (x >> 17) & mask);
    sim.step();
    r.checksum += *sim.outputUint("s");
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.evaluatedCycles = cycles;
  r.laneCycles = cycles;
  r.counters = sim.metricsCounters();
  return r;
}

RunResult runBatch(const zeus::SimGraph& g, int width, uint64_t cycles) {
  constexpr size_t kLanes = zeus::BatchSimulation::kMaxLanes;
  zeus::BatchSimulation sim(g, kLanes);
  const uint64_t mask =
      width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t rng = 0xFEED;
  RunResult r;
  r.name = "levelized-batch";
  r.lanes = kLanes;
  sim.setInputAll("cin", zeus::Logic::Zero);
  const uint64_t evalCycles = (cycles + kLanes - 1) / kLanes;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < evalCycles; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      uint64_t x = xorshift(rng);
      sim.setInputUint(l, "a", x & mask);
      sim.setInputUint(l, "b", (x >> 17) & mask);
    }
    sim.step();
    for (size_t l = 0; l < kLanes; ++l) {
      r.checksum += *sim.outputUint(l, "s");
    }
  }
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.evaluatedCycles = evalCycles;
  r.laneCycles = evalCycles * kLanes;
  r.counters = sim.metricsCounters();
  return r;
}

/// Parallel fault simulation throughput: sweep the full stuck-at universe
/// of the adder and report classified faults per second plus how full the
/// 63 fault lanes of each batch actually were.
struct CampaignResult {
  uint64_t faults = 0;
  uint64_t cycles = 0;
  uint64_t batches = 0;
  double seconds = 0;
  double laneUtilization = 0;  ///< faults / (batches * (lanes-1))
  uint64_t detected = 0;
  uint64_t masked = 0;
  uint64_t undetected = 0;
  double coverage = 0;

  [[nodiscard]] double faultsPerSec() const {
    return seconds > 0 ? static_cast<double>(faults) / seconds : 0;
  }
};

// ---------------------------------------------------------------------
// Optimizer benefit: the same stimulus through the levelized evaluator
// with the pass pipeline off and on.  The bench design wraps rippleCarry
// in a top that also instantiates a second, unread adder — exactly the
// kind of dead cone -O1 deletes — so the node-count delta (and the
// cycles/sec win that follows from it) is structural, not noise.
// Checksums must match across the two builds: this is the optimizer's
// differential test at bench scale.
// ---------------------------------------------------------------------

struct OptBenchResult {
  uint64_t nodesBefore = 0, nodesAfter = 0;
  uint64_t netsBefore = 0, netsAfter = 0;
  uint64_t folded = 0, removed = 0, dropped = 0;
  RunResult off;  ///< levelized scalar, -O0 build
  RunResult on;   ///< levelized scalar, -O1 build

  [[nodiscard]] double speedup() const {
    return off.cyclesPerSec() > 0 ? on.cyclesPerSec() / off.cyclesPerSec()
                                  : 0;
  }
};

/// benchtop = the live adder the outputs observe, plus a structurally
/// identical adder nothing reads.  DCE removes the spare's whole cone.
std::string optBenchSource(int width) {
  return std::string(zeus::corpus::kAdders) + R"(
benchtop(length) = COMPONENT (
    IN a,b: ARRAY[1..length] OF boolean; IN cin: boolean;
    OUT cout: boolean; OUT s: ARRAY[1..length] OF boolean) IS
  SIGNAL live, spare: rippleCarry(length);
BEGIN
  live(a,b,cin,cout,s);
  spare(a,b,0,*,*)
END;
SIGNAL bench: benchtop()" +
         std::to_string(width) + ");\n";
}

/// One build of the bench design at a given -O level.  The report's
/// SimGraph borrows the Design (g.design), so both live here together.
struct OptBuild {
  std::unique_ptr<zeus::Compilation> comp;
  std::unique_ptr<zeus::Design> design;
  zeus::OptReport rep;
};

bool buildAtLevel(const std::string& src, int level, OptBuild& b) {
  b.comp = zeus::Compilation::fromSource("benchopt.zeus", src);
  if (!b.comp->ok()) {
    std::fprintf(stderr, "%s", b.comp->diagnosticsText().c_str());
    return false;
  }
  b.design = b.comp->elaborate("bench");
  if (!b.design) return false;
  zeus::OptOptions opts;
  opts.level = level;
  b.rep = b.comp->optimize(*b.design, opts);
  if (!b.rep.verified) {
    std::fprintf(stderr, "opt verifier failed at -O%d: %s\n", level,
                 b.rep.verifyError.c_str());
    return false;
  }
  return b.rep.graph != nullptr;
}

bool runOptBench(int width, uint64_t cycles, OptBenchResult& r) {
  const std::string src = optBenchSource(width);
  OptBuild off, on;
  if (!buildAtLevel(src, 0, off) || !buildAtLevel(src, 1, on)) return false;
  const zeus::SimGraph& gOff = *off.rep.graph;
  const zeus::SimGraph& gOn = *on.rep.graph;
  const zeus::OptReport& repOn = on.rep;

  r.nodesBefore = repOn.nodesBefore;
  r.nodesAfter = repOn.nodesAfter;
  r.netsBefore = repOn.denseBefore;
  r.netsAfter = repOn.denseAfter;
  r.folded = repOn.totalFolded();
  r.removed = repOn.totalRemoved();
  r.dropped = repOn.totalDropped();
  r.off = runScalar(gOff, zeus::EvaluatorKind::Levelized, "opt-off", width,
                    cycles);
  r.on = runScalar(gOn, zeus::EvaluatorKind::Levelized, "opt-on", width,
                   cycles);
  if (r.off.checksum != r.on.checksum) {
    std::fprintf(stderr, "optimizer changed behaviour: checksum %llu != %llu\n",
                 static_cast<unsigned long long>(r.off.checksum),
                 static_cast<unsigned long long>(r.on.checksum));
    return false;
  }
  if (r.nodesAfter >= r.nodesBefore) {
    std::fprintf(stderr,
                 "optimizer removed nothing from the bench design "
                 "(%llu -> %llu nodes); the dead cone was not dead\n",
                 static_cast<unsigned long long>(r.nodesBefore),
                 static_cast<unsigned long long>(r.nodesAfter));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Multi-core farm scaling: the same design at 1/2/4 worker threads over
// 4 blocks × 64 lanes, against one 64-lane BatchSimulation running the
// same lane-cycle volume.  The farm's determinism contract means every
// row must produce the same merged checksum — the thread sweep is also a
// differential test.
//
// The sweep is sized by time, not by --cycles: cycles per lane grow until
// every thread row lasts at least kFarmRowMinSeconds, so the rows time
// simulation rather than thread start-up.  Three sweeps run and the one
// with the median farm-vs-batch64 speedup is reported.  Scaling itself is
// only meaningful when the host has the cores; BENCH_sim.json records
// host_cores so the checker can gate the speedup assertion on it.
//
// The oracle check has its own fixed size, kOracleCycles per lane: the
// firing-rule oracle (runFarmScalarOracle) runs once, and the farm at 1,
// 2 and 4 threads must match it bit for bit.  The time-sized sweeps then
// only have to agree with each other, so the oracle's cost does not grow
// with the host's speed.
// ---------------------------------------------------------------------

constexpr double kFarmRowMinSeconds = 0.2;
constexpr int kFarmSweeps = 3;
constexpr uint64_t kOracleCycles = 256;

/// The cycle count to try next when a run of `cycles` lasted `seconds`
/// but must last at least `minSeconds`: aim 1.5x past the floor, growing
/// by at least one cycle and at most 64-fold per try.
uint64_t grownCycles(uint64_t cycles, double seconds, double minSeconds) {
  const double factor = seconds > 0 ? 1.5 * minSeconds / seconds : 64;
  return std::max<uint64_t>(
      cycles + 1, static_cast<uint64_t>(static_cast<double>(cycles) *
                                        std::min(factor, 64.0)));
}

struct FarmThreadRun {
  size_t threads = 0;
  double seconds = 0;
  double laneCyclesPerSec = 0;
  uint64_t checksum = 0;
};

struct FarmSweep {
  std::vector<FarmThreadRun> runs;  ///< threads = 1, 2, 4
  double batch64LaneCyclesPerSec = 0;
  /// Per-block wall times over the sweep's three thread rows.
  zeus::histogram::Histogram blockUs;

  [[nodiscard]] double minRowSeconds() const {
    double m = 1e99;
    for (const FarmThreadRun& run : runs) m = std::min(m, run.seconds);
    return m;
  }
  [[nodiscard]] double speedupVsBatch64() const {
    return batch64LaneCyclesPerSec > 0 && !runs.empty()
               ? runs.back().laneCyclesPerSec / batch64LaneCyclesPerSec
               : 0;
  }
};

struct FarmBenchResult {
  size_t lanes = 0;
  size_t lanesPerBlock = 0;
  size_t blocks = 0;
  uint64_t cyclesPerLane = 0;
  unsigned hostCores = 0;
  FarmSweep median;                     ///< the reported sweep
  std::vector<double> sweepSpeedups;    ///< speedup_vs_batch64, run order
  uint64_t oracleChecksum = 0;          ///< kOracleCycles per lane
  std::vector<uint64_t> oracleFarmChecksums;  ///< same size, 1/2/4 threads

  [[nodiscard]] double speedup4v1() const {
    const std::vector<FarmThreadRun>& runs = median.runs;
    return !runs.empty() && runs.front().laneCyclesPerSec > 0
               ? runs.back().laneCyclesPerSec / runs.front().laneCyclesPerSec
               : 0;
  }
};

FarmSweep runFarmSweep(const zeus::SimGraph& g, int width,
                       zeus::FarmOptions opts) {
  FarmSweep s;
  s.batch64LaneCyclesPerSec =
      runBatch(g, width, opts.lanes * opts.cycles).cyclesPerSec();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    opts.threads = threads;
    zeus::FarmReport rep = zeus::runFarm(g, opts);
    s.runs.push_back({threads, rep.seconds, rep.laneCyclesPerSec(),
                      rep.mergedChecksum()});
    s.blockUs.merge(rep.blockUs);
  }
  return s;
}

bool runFarmBench(const zeus::SimGraph& g, int width, FarmBenchResult& r) {
  r.lanes = 4 * zeus::BatchSimulation::kMaxLanes;
  r.lanesPerBlock = zeus::BatchSimulation::kMaxLanes;
  r.blocks = 4;
  r.hostCores = std::thread::hardware_concurrency();
  zeus::FarmOptions opts;
  opts.lanes = r.lanes;
  // Size on the fastest row (4 threads) with headroom, then re-size any
  // sweep whose shortest row still came in under the floor.
  auto grow = [&opts](double seconds) {
    opts.cycles = grownCycles(opts.cycles, seconds, kFarmRowMinSeconds);
  };
  opts.cycles = 1;
  opts.threads = 4;
  for (double sec = 0; sec < kFarmRowMinSeconds;) {
    sec = zeus::runFarm(g, opts).seconds;
    if (sec < kFarmRowMinSeconds) grow(sec);
  }
  std::vector<FarmSweep> sweeps;
  while (sweeps.size() < kFarmSweeps) {
    FarmSweep s = runFarmSweep(g, width, opts);
    if (s.minRowSeconds() < kFarmRowMinSeconds) {
      grow(s.minRowSeconds());
      sweeps.clear();  // every reported sweep shares one cycle count
      continue;
    }
    sweeps.push_back(std::move(s));
  }
  r.cyclesPerLane = opts.cycles;
  for (const FarmSweep& s : sweeps) {
    r.sweepSpeedups.push_back(s.speedupVsBatch64());
  }
  std::sort(sweeps.begin(), sweeps.end(),
            [](const FarmSweep& a, const FarmSweep& b) {
              return a.speedupVsBatch64() < b.speedupVsBatch64();
            });
  r.median = sweeps[sweeps.size() / 2];
  const uint64_t sweepChecksum = sweeps[0].runs[0].checksum;
  for (const FarmSweep& s : sweeps) {
    for (const FarmThreadRun& run : s.runs) {
      if (run.checksum != sweepChecksum) {
        std::fprintf(stderr,
                     "farm checksum mismatch at %zu thread(s): %llx != "
                     "%llx at 1 thread\n",
                     run.threads,
                     static_cast<unsigned long long>(run.checksum),
                     static_cast<unsigned long long>(sweepChecksum));
        return false;
      }
    }
  }

  opts.cycles = kOracleCycles;
  const zeus::FarmReport oracle = zeus::runFarmScalarOracle(g, opts);
  r.oracleChecksum = oracle.mergedChecksum();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    opts.threads = threads;
    const zeus::FarmReport rep = zeus::runFarm(g, opts);
    r.oracleFarmChecksums.push_back(rep.mergedChecksum());
    if (rep.checksums != oracle.checksums ||
        rep.rngStates != oracle.rngStates || rep.errors != oracle.errors) {
      std::fprintf(stderr,
                   "farm at %zu thread(s) differs from the firing oracle "
                   "over %llu cycles per lane\n",
                   threads, static_cast<unsigned long long>(kOracleCycles));
      return false;
    }
  }
  return true;
}

CampaignResult runCampaign(const zeus::SimGraph& g, uint64_t cycles) {
  zeus::FaultCampaignOptions opts;
  opts.cycles = cycles;
  CampaignResult r;
  const Clock::time_point t0 = Clock::now();
  zeus::FaultCampaignReport rep = zeus::runFaultCampaign(g, opts);
  r.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.faults = rep.faults.size();
  r.cycles = rep.cycles;
  r.batches = rep.totalBatches;
  const uint64_t laneSlots = rep.totalBatches * (rep.lanes - 1);
  r.laneUtilization =
      laneSlots ? static_cast<double>(r.faults) / laneSlots : 0;
  r.detected = rep.countOf(zeus::FaultOutcome::Status::Detected);
  r.masked = rep.countOf(zeus::FaultOutcome::Status::Masked);
  r.undetected = rep.countOf(zeus::FaultOutcome::Status::Undetected);
  r.coverage = rep.coverage();
  return r;
}

// ---------------------------------------------------------------------
// Kernel cost per schedule op: the levelized kernel alone (no facade, no
// port I/O, no latch) at one live lane and at 64, each cycle divided by
// the schedule's length.  Both arms run the same word ops, so this is
// like for like across lane counts; dividing by schedule steps rather
// than tape ops keeps the figure comparable with a kernel that walked the
// schedule itself.
// ---------------------------------------------------------------------

struct KernelResult {
  uint64_t scheduleOps = 0;
  uint64_t tapeOps = 0;
  uint64_t cycles = 0;  ///< per arm per rep
  double nsPerOp1 = 0;
  double nsPerOp64 = 0;
};

constexpr double kKernelRepMinSeconds = 0.05;
constexpr int kKernelReps = 5;

KernelResult runKernelBench(const zeus::SimGraph& g) {
  std::vector<zeus::LanePlanes> inputs(g.denseCount);
  std::vector<zeus::LanePlanes> regs(
      g.regNodes.size(), zeus::lanesBroadcast(zeus::Logic::Undef, ~0ull));
  uint64_t x = 0xFEED;
  for (size_t i = 0; i < g.denseCount; ++i) {
    if (!g.nets[i].isInput) continue;
    const uint64_t ones = xorshift(x);  // two-valued, different per lane
    inputs[i] = {~ones, ones};
  }
  std::vector<uint64_t> rng(64, zeus::kDefaultRngSeed);
  zeus::BatchSeeds seeds;
  seeds.inputValues = &inputs;
  seeds.regValues = &regs;
  seeds.rngStates = rng.data();
  zeus::LevelizedBatchEvaluator eval(g);
  zeus::BatchCycleResult out;
  auto timeArm = [&](uint64_t laneMask, uint64_t n) {
    seeds.laneMask = laneMask;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; ++i) eval.evaluate(seeds, out);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // The arms alternate in chunks so both see the same host speed; each
  // keeps its best rep.
  uint64_t cycles = 256;
  double best1 = 1e99, best64 = 1e99;
  for (int kept = 0; kept < kKernelReps;) {
    double t1 = 0, t64 = 0;
    for (uint64_t done = 0; done < cycles; done += 64) {
      const uint64_t n = std::min<uint64_t>(64, cycles - done);
      t1 += timeArm(1, n);
      t64 += timeArm(~uint64_t{0}, n);
    }
    if (std::min(t1, t64) < kKernelRepMinSeconds) {
      cycles = grownCycles(cycles, std::min(t1, t64), kKernelRepMinSeconds);
      best1 = best64 = 1e99;
      kept = 0;
      continue;
    }
    best1 = std::min(best1, t1);
    best64 = std::min(best64, t64);
    ++kept;
  }
  KernelResult r;
  r.scheduleOps = g.schedule.size();
  r.tapeOps = g.tape.code.size();
  r.cycles = cycles;
  const double perCycleOps =
      static_cast<double>(cycles) * static_cast<double>(r.scheduleOps);
  r.nsPerOp1 = best1 * 1e9 / perCycleOps;
  r.nsPerOp64 = best64 * 1e9 / perCycleOps;
  return r;
}

void emitJson(const std::string& path, int width, uint64_t cycles,
              const std::vector<RunResult>& runs,
              const CampaignResult& campaign, const OptBenchResult& opt,
              const FarmBenchResult& farm, const KernelResult& kernel,
              double speedupLevelized) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"zeus-bench-sim-v1\",\n"
      << "  \"build\": " << zeus::buildinfo::renderJson() << ",\n"
      << "  \"design\": \"rippleCarry\",\n"
      << "  \"width\": " << width << ",\n"
      << "  \"cycles\": " << cycles << ",\n"
      << "  \"evaluators\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"name\": \"" << r.name << "\", \"lanes\": " << r.lanes
        << ", \"evaluated_cycles\": " << r.evaluatedCycles
        << ", \"lane_cycles\": " << r.laneCycles
        << ", \"seconds\": " << r.seconds
        << ", \"cycles_per_sec\": " << r.cyclesPerSec()
        << ", \"checksum\": " << r.checksum << ",\n     \"metrics\": "
        << zeus::metrics::simCountersJson(r.counters) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"fault_campaign\": {\"faults\": " << campaign.faults
      << ", \"cycles\": " << campaign.cycles
      << ", \"batches\": " << campaign.batches
      << ", \"seconds\": " << campaign.seconds
      << ", \"faults_per_sec\": " << campaign.faultsPerSec()
      << ", \"lane_utilization\": " << campaign.laneUtilization
      << ", \"detected\": " << campaign.detected
      << ", \"masked\": " << campaign.masked
      << ", \"undetected\": " << campaign.undetected
      << ", \"coverage\": " << campaign.coverage << "},\n"
      << "  \"optimization\": {\n"
      << "    \"design\": \"benchtop\",\n"
      << "    \"nodes\": {\"before\": " << opt.nodesBefore
      << ", \"after\": " << opt.nodesAfter << "},\n"
      << "    \"nets\": {\"before\": " << opt.netsBefore
      << ", \"after\": " << opt.netsAfter << "},\n"
      << "    \"folded\": " << opt.folded
      << ", \"removed\": " << opt.removed
      << ", \"dropped\": " << opt.dropped << ",\n"
      << "    \"off\": {\"seconds\": " << opt.off.seconds
      << ", \"cycles_per_sec\": " << opt.off.cyclesPerSec()
      << ", \"checksum\": " << opt.off.checksum << "},\n"
      << "    \"on\": {\"seconds\": " << opt.on.seconds
      << ", \"cycles_per_sec\": " << opt.on.cyclesPerSec()
      << ", \"checksum\": " << opt.on.checksum << "},\n"
      << "    \"speedup_on_vs_off\": " << opt.speedup() << "\n"
      << "  },\n"
      << "  \"farm\": {\n"
      << "    \"lanes\": " << farm.lanes
      << ", \"lanes_per_block\": " << farm.lanesPerBlock
      << ", \"blocks\": " << farm.blocks
      << ", \"cycles_per_lane\": " << farm.cyclesPerLane
      << ", \"host_cores\": " << farm.hostCores << ",\n"
      << "    \"threads\": [\n";
  const std::vector<FarmThreadRun>& rows = farm.median.runs;
  for (size_t i = 0; i < rows.size(); ++i) {
    const FarmThreadRun& t = rows[i];
    out << "      {\"threads\": " << t.threads
        << ", \"seconds\": " << t.seconds
        << ", \"lane_cycles_per_sec\": " << t.laneCyclesPerSec
        << ", \"checksum\": " << t.checksum << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  std::vector<zeus::histogram::Snapshot> latency;
  latency.push_back(
      zeus::histogram::snapshot(farm.median.blockUs, "farm.block_us", "us"));
  out << "    ],\n"
      << "    \"batch64_lane_cycles_per_sec\": "
      << farm.median.batch64LaneCyclesPerSec << ",\n"
      << "    \"oracle_cycles_per_lane\": " << kOracleCycles << ",\n"
      << "    \"oracle_checksum\": " << farm.oracleChecksum << ",\n"
      << "    \"oracle_farm_checksums\": [";
  for (size_t i = 0; i < farm.oracleFarmChecksums.size(); ++i) {
    out << (i ? ", " : "") << farm.oracleFarmChecksums[i];
  }
  out << "],\n"
      << "    \"speedup_4_vs_1\": " << farm.speedup4v1() << ",\n"
      << "    \"speedup_vs_batch64\": " << farm.median.speedupVsBatch64()
      << ",\n"
      << "    \"speedup_vs_batch64_sweeps\": [";
  for (size_t i = 0; i < farm.sweepSpeedups.size(); ++i) {
    out << (i ? ", " : "") << farm.sweepSpeedups[i];
  }
  out << "]\n"
      << "  },\n";
  out << "  \"latency\": "
      << zeus::histogram::renderLatencyBlock(latency, "  ") << ",\n"
      << "  \"kernel\": {\"schedule_ops\": " << kernel.scheduleOps
      << ", \"tape_ops\": " << kernel.tapeOps
      << ", \"cycles\": " << kernel.cycles
      << ", \"ns_per_op_1_lane\": " << kernel.nsPerOp1
      << ", \"ns_per_op_64_lanes\": " << kernel.nsPerOp64 << "},\n"
      << "  \"speedup_levelized_vs_firing\": " << speedupLevelized << "\n"
      << "}\n";
}

// ---------------------------------------------------------------------
// Overhead mode (--overhead): the zero-overhead-when-disabled guard.
// ---------------------------------------------------------------------

/// Raw levelized loop: the kernel on lane 0 + two-phase register latch,
/// nothing else.  This is the uninstrumented wall-clock the facade
/// competes with.
class BareLoop {
 public:
  explicit BareLoop(const zeus::SimGraph& g)
      : g_(g),
        eval_(g),
        inputValues_(g.denseCount),
        regValues_(g.regNodes.size(),
                   zeus::lanesBroadcast(zeus::Logic::Undef, 1)) {
    inputValues_[g.dense(g.design->clk)] =
        zeus::lanesBroadcast(zeus::Logic::One, 1);
    inputValues_[g.dense(g.design->rset)] =
        zeus::lanesBroadcast(zeus::Logic::Zero, 1);
    seeds_.inputValues = &inputValues_;
    seeds_.regValues = &regValues_;
    seeds_.rngStates = &rngState_;
    seeds_.laneMask = 1;
  }

  void run(uint64_t cycles) {
    for (uint64_t i = 0; i < cycles; ++i) {
      eval_.evaluate(seeds_, result_);
      for (size_t k = 0; k < g_.regNodes.size(); ++k) {
        const zeus::LanePlanes& v = result_.netValues[g_.regInput[k]];
        const uint64_t act = (v.p0 | v.p1) & 1;
        zeus::LanePlanes& r = regValues_[k];
        r.p0 = (v.p0 & act) | (r.p0 & ~act);
        r.p1 = (v.p1 & act) | (r.p1 & ~act);
      }
    }
  }

 private:
  const zeus::SimGraph& g_;
  zeus::LevelizedBatchEvaluator eval_;
  std::vector<zeus::LanePlanes> inputValues_;
  std::vector<zeus::LanePlanes> regValues_;
  uint64_t rngState_ = zeus::kDefaultRngSeed;
  zeus::BatchSeeds seeds_;
  zeus::BatchCycleResult result_;
};

/// Every arm of every rep lasts at least this long: the reps are sized by
/// time, as the farm sweep is, because a ratio of two ~10 ms timings
/// swings by 10% with one scheduler hiccup.
constexpr double kOverheadRepMinSeconds = 0.2;
constexpr int kOverheadReps = 7;
/// Within a rep the three arms take turns every this many cycles (about a
/// millisecond each), so all three see the same host speed: a shared
/// host's speed can swing by 2x within a second, which decided the
/// comparison when each arm ran as one block.
constexpr uint64_t kOverheadChunkCycles = 128;

struct OverheadRep {
  double bare = 1e99;      ///< raw evaluator loop
  double disabled = 1e99;  ///< Simulation facade, observability off
  double enabled = 1e99;   ///< recorder + activity profiling on
};

/// One rep: `cycles` cycles on each arm, interleaved chunk by chunk.
/// Inputs stay constant (the levelized schedule walks every node
/// regardless), so the measured difference is exactly the facade +
/// instrumentation cost.
OverheadRep timeOverheadRep(const zeus::SimGraph& g, uint64_t cycles) {
  BareLoop bare(g);
  zeus::Simulation::Options opts;
  opts.evaluator = zeus::EvaluatorKind::Levelized;
  zeus::Simulation disabled(g, opts);
  opts.profileActivity = true;
  zeus::Simulation enabled(g, opts);
  auto timed = [](auto&& run) {
    const Clock::time_point t0 = Clock::now();
    run();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  OverheadRep r{0, 0, 0};
  for (uint64_t done = 0; done < cycles; done += kOverheadChunkCycles) {
    const uint64_t n = std::min(kOverheadChunkCycles, cycles - done);
    zeus::telemetry::setEnabled(false);
    r.bare += timed([&] { bare.run(n); });
    r.disabled += timed([&] { disabled.step(n); });
    zeus::telemetry::setEnabled(true);
    r.enabled += timed([&] { enabled.step(n); });
  }
  zeus::telemetry::setEnabled(false);
  return r;
}

int runOverhead(const zeus::SimGraph& g, uint64_t cycles,
                const std::string& outPath) {
  // Best of N reps (the one with the least bare + disabled time), so a
  // rep spoilt by a scheduler hiccup or a parallel build cannot decide
  // the comparison.  The reps are sized by time; `cycles` is only the
  // starting point.
  OverheadRep best;
  for (int kept = 0; kept < kOverheadReps;) {
    const OverheadRep r = timeOverheadRep(g, cycles);
    const double shortest = std::min({r.bare, r.disabled, r.enabled});
    if (shortest < kOverheadRepMinSeconds) {
      // Too short (the first reps, or the host sped up): grow and start
      // over, so every reported rep shares one cycle count.
      cycles = grownCycles(cycles, shortest, kOverheadRepMinSeconds);
      best = OverheadRep{};
      kept = 0;
      continue;
    }
    if (r.bare + r.disabled < best.bare + best.disabled) best = r;
    ++kept;
  }
  const double bare = best.bare, disabled = best.disabled;
  const double enabled = best.enabled;
  const double disabledOverBare = bare > 0 ? disabled / bare : 0;
  const double enabledOverBare = bare > 0 ? enabled / bare : 0;

  std::ofstream out(outPath);
  out << "{\n"
      << "  \"schema\": \"zeus-bench-overhead-v1\",\n"
      << "  \"cycles\": " << cycles << ",\n"
      << "  \"bare_seconds\": " << bare << ",\n"
      << "  \"disabled_seconds\": " << disabled << ",\n"
      << "  \"enabled_seconds\": " << enabled << ",\n"
      << "  \"disabled_over_bare\": " << disabledOverBare << ",\n"
      << "  \"enabled_over_bare\": " << enabledOverBare << "\n"
      << "}\n";
  std::printf("bare      %.6fs\ndisabled  %.6fs (%.3fx)\nenabled   %.6fs "
              "(%.3fx)\nwrote %s\n",
              bare, disabled, disabledOverBare, enabled, enabledOverBare,
              outPath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t cycles = 20480;  // multiple of 64: batch checksum is comparable
  int width = 32;
  bool overhead = false;
  std::string outPath;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      const char* v = next();
      if (v) cycles = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(argv[i], "--width")) {
      const char* v = next();
      if (v) width = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--out")) {
      const char* v = next();
      if (v) outPath = v;
    } else if (!std::strcmp(argv[i], "--overhead")) {
      overhead = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_levelized [--cycles N] [--width W] "
                   "[--out FILE] [--overhead]\n");
      return 2;
    }
  }
  if (outPath.empty()) {
    outPath = overhead ? "BENCH_overhead.json" : "BENCH_sim.json";
  }

  std::string src = std::string(zeus::corpus::kAdders) +
                    "SIGNAL adder: rippleCarry(" + std::to_string(width) +
                    ");\n";
  auto comp = zeus::Compilation::fromSource("bench.zeus", src);
  if (!comp->ok()) {
    std::fprintf(stderr, "%s", comp->diagnosticsText().c_str());
    return 1;
  }
  auto design = comp->elaborate("adder");
  if (!design) return 1;
  zeus::SimGraph g = zeus::buildSimGraph(*design, comp->diags());
  if (g.hasCycle) return 1;

  if (overhead) return runOverhead(g, cycles, outPath);

  std::vector<RunResult> runs;
  runs.push_back(
      runScalar(g, zeus::EvaluatorKind::Naive, "naive", width, cycles));
  runs.push_back(
      runScalar(g, zeus::EvaluatorKind::Firing, "firing", width, cycles));
  runs.push_back(runScalar(g, zeus::EvaluatorKind::Levelized, "levelized",
                           width, cycles));
  runs.push_back(runBatch(g, width, cycles));

  // Identical stimulus must give identical checksums everywhere; a
  // mismatch means an evaluator is wrong, so fail loudly.
  for (const RunResult& r : runs) {
    if (r.laneCycles == cycles && r.checksum != runs[0].checksum) {
      std::fprintf(stderr, "checksum mismatch: %s\n", r.name.c_str());
      return 1;
    }
  }

  // Fault-campaign throughput on the same design: 16 stimulus cycles per
  // fault keeps the smoke run fast while exercising full batches.
  CampaignResult campaign = runCampaign(g, /*cycles=*/16);

  // Optimizer benefit: levelized cycles/sec with the pass pipeline off
  // and on, over a design carrying a provably dead adder cone.
  OptBenchResult opt;
  if (!runOptBench(width, cycles, opt)) return 1;

  // Farm scaling sweeps (1/2/4 threads, 4 blocks × 64 lanes, sized by
  // time) plus the fixed-size firing-oracle cross-check.
  FarmBenchResult farm;
  if (!runFarmBench(g, width, farm)) return 1;

  const KernelResult kernel = runKernelBench(g);

  const double firing = runs[1].cyclesPerSec();
  const double speedupLevelized =
      firing > 0 ? runs[2].cyclesPerSec() / firing : 0;
  emitJson(outPath, width, cycles, runs, campaign, opt, farm, kernel,
           speedupLevelized);

  for (const RunResult& r : runs) {
    std::printf("%-18s %12.0f cycles/s  (%llu lane-cycles in %.3fs)\n",
                r.name.c_str(), r.cyclesPerSec(),
                static_cast<unsigned long long>(r.laneCycles), r.seconds);
  }
  std::printf("levelized vs firing: %.2fx\n", speedupLevelized);
  std::printf("kernel             %.2f ns/op at 1 lane, %.2f ns/op at 64 "
              "lanes (%llu schedule ops, %llu tape ops)\n",
              kernel.nsPerOp1, kernel.nsPerOp64,
              static_cast<unsigned long long>(kernel.scheduleOps),
              static_cast<unsigned long long>(kernel.tapeOps));
  for (const FarmThreadRun& t : farm.median.runs) {
    std::printf("farm %zut            %12.0f lane-cycles/s  (%zu lanes x "
                "%llu cycles in %.3fs)\n",
                t.threads, t.laneCyclesPerSec, farm.lanes,
                static_cast<unsigned long long>(farm.cyclesPerLane),
                t.seconds);
  }
  std::printf("farm 4t vs 1t:       %.2fx (%u host cores)\n",
              farm.speedup4v1(), farm.hostCores);
  std::printf("farm 4t vs batch64:  %.2fx (median of",
              farm.median.speedupVsBatch64());
  for (double sp : farm.sweepSpeedups) std::printf(" %.2fx", sp);
  std::printf(")\n");
  std::printf(
      "fault campaign     %12.0f faults/s  (%llu faults, %.0f%% lanes "
      "used, %.1f%% coverage)\n",
      campaign.faultsPerSec(),
      static_cast<unsigned long long>(campaign.faults),
      100.0 * campaign.laneUtilization, 100.0 * campaign.coverage);
  std::printf(
      "optimizer          %12.0f -> %.0f cycles/s (%.2fx; %llu -> %llu "
      "nodes, %llu folded, %llu removed, %llu nets dropped)\n",
      opt.off.cyclesPerSec(), opt.on.cyclesPerSec(), opt.speedup(),
      static_cast<unsigned long long>(opt.nodesBefore),
      static_cast<unsigned long long>(opt.nodesAfter),
      static_cast<unsigned long long>(opt.folded),
      static_cast<unsigned long long>(opt.removed),
      static_cast<unsigned long long>(opt.dropped));
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
