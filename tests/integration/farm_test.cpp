// Differential tests for the multi-core simulation farm (src/core/
// sim_farm.h): farm vs the scalar-oracle lane sims across the whole
// corpus, thread-count invariance of every observable (checksums, RANDOM
// stream positions, canonical SimError order, merged counters), the
// FarmSnapshot binary round-trip, resume bit-identity, and the seed-0
// RNG normalization parity between the scalar and batch evaluators.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/batch_sim.h"
#include "src/core/sim_farm.h"
#include "src/sim/snapshot.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

/// RANDOM draws, a REG trajectory and input-dependent contention — under
/// the farm's pseudo-random stimulus some lanes hit a AND b, so SimError
/// merge order is actually exercised (the corpus designs are fault-free).
const char* kRandomized = R"(
TYPE t = COMPONENT (IN en, a, b: boolean; OUT o, q: boolean) IS
  SIGNAL r: REG;
  SIGNAL m: multiplex;
BEGIN
  IF en THEN r.in := RANDOM() END;
  IF a THEN m := 1 END;
  IF b THEN m := 0 END;
  o := r.out;
  q := m
END;
SIGNAL top: t;
)";

struct FarmFixture {
  Built built;
  SimGraph graph;

  FarmFixture(const std::string& src, const std::string& top)
      : built(buildOk(src, top)),
        graph(buildSimGraph(*built.design, built.comp->diags())) {
    EXPECT_FALSE(graph.hasCycle);
  }
};

void expectReportsEqual(const FarmReport& a, const FarmReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.checksums, b.checksums) << what;
  EXPECT_EQ(a.rngStates, b.rngStates) << what;
  EXPECT_EQ(a.errors, b.errors) << what;
}

/// stats scaled block-wise: additive counters × n, watchdog margin kept.
EvalStats scaleStats(const EvalStats& s, uint64_t n) {
  EvalStats out = s;
  out.nodeFirings *= n;
  out.inputEvents *= n;
  out.sweeps *= n;
  out.netResolutions *= n;
  out.shortCircuitSkips *= n;
  out.contentionChecks *= n;
  out.epochResets *= n;
  return out;
}

TEST(Farm, MatchesScalarOracleAtEveryThreadCount) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 200;  // 4 blocks: 64+64+64+8, the last one partial
  opts.cycles = 24;
  opts.seed = 0xFEEDFACEull;
  const FarmReport oracle = runFarmScalarOracle(f.graph, opts);
  ASSERT_EQ(oracle.checksums.size(), 200u);
  // The stimulus provokes real contention on some lanes; without it the
  // canonical-merge assertions below would be vacuous.
  EXPECT_FALSE(oracle.errors.empty());

  FarmReport first;
  for (size_t threads : {1u, 2u, 4u}) {
    opts.threads = threads;
    FarmReport r = runFarm(f.graph, opts);
    expectReportsEqual(r, oracle,
                       "farm@" + std::to_string(threads) + " vs oracle");
    EXPECT_EQ(r.mergedChecksum(), oracle.mergedChecksum());
    if (threads == 1) {
      first = r;
    } else {
      // Merged counters are invariant in the thread count too.
      EXPECT_EQ(r.stats, first.stats)
          << "stats changed at " << threads << " threads";
    }
  }
}

TEST(Farm, ErrorsArriveInCanonicalOrder) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 128;
  opts.cycles = 32;
  opts.threads = 4;
  FarmReport r = runFarm(f.graph, opts);
  ASSERT_FALSE(r.errors.empty());
  for (size_t i = 1; i < r.errors.size(); ++i) {
    const SimError& a = r.errors[i - 1];
    const SimError& b = r.errors[i];
    const bool ordered =
        a.cycle < b.cycle ||
        (a.cycle == b.cycle &&
         (a.lane < b.lane || (a.lane == b.lane && a.netName <= b.netName)));
    EXPECT_TRUE(ordered) << "errors " << i - 1 << "/" << i << " out of order";
    EXPECT_GE(a.lane, 0) << "block-local lane escaped un-retagged";
  }
}

TEST(Farm, MergedCountersEqualBlocksTimesScalarRun) {
  FarmFixture f(kRandomized, "top");
  // One 64-lane block's counters must equal a scalar levelized run of the
  // same cycle count (the engine-invariance guarantee), so the merged
  // farm counters equal blocks × that run — regardless of lane fill.
  FarmOptions scalarOpts;
  scalarOpts.lanes = 1;
  scalarOpts.cycles = 16;
  const EvalStats perBlock = runFarm(f.graph, scalarOpts).stats;

  FarmOptions opts;
  opts.lanes = 150;  // 3 blocks: 64+64+22
  opts.cycles = 16;
  opts.threads = 2;
  FarmReport r = runFarm(f.graph, opts);
  EXPECT_EQ(r.stats, scaleStats(perBlock, 3));
}

TEST(Farm, RejectsBadOptions) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 0;
  EXPECT_THROW(runFarm(f.graph, opts), std::invalid_argument);
  opts.lanes = 64;
  opts.threads = 0;
  EXPECT_THROW(runFarm(f.graph, opts), std::invalid_argument);
}

TEST(Farm, SnapshotBinaryRoundTrip) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 96;
  opts.cycles = 12;
  opts.threads = 2;
  opts.checkpointAtCycle = 7;
  FarmSnapshot snap;
  bool saw = false;
  opts.onCheckpoint = [&](const FarmSnapshot& s) {
    snap = s;
    saw = true;
  };
  runFarm(f.graph, opts);
  ASSERT_TRUE(saw);
  EXPECT_EQ(snap.cycle, 7u);
  EXPECT_EQ(snap.totalLanes, 96u);
  ASSERT_EQ(snap.lanes.size(), 96u);

  std::vector<uint8_t> bytes = farmToBytes(snap);
  SnapshotKind kind;
  std::string err;
  ASSERT_TRUE(snapshotKindOfBytes(bytes.data(), bytes.size(), kind, err))
      << err;
  EXPECT_EQ(kind, SnapshotKind::FarmState);
  FarmSnapshot back;
  ASSERT_TRUE(farmFromBytes(bytes.data(), bytes.size(), back, err)) << err;
  EXPECT_EQ(back.designHash, snap.designHash);
  EXPECT_EQ(back.cycle, snap.cycle);
  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.totalLanes, snap.totalLanes);
  EXPECT_EQ(back.lanesPerBlock, snap.lanesPerBlock);
  EXPECT_EQ(back.stats, snap.stats);
  EXPECT_EQ(back.checksums, snap.checksums);
  ASSERT_EQ(back.lanes.size(), snap.lanes.size());
  for (size_t l = 0; l < back.lanes.size(); ++l) {
    EXPECT_EQ(back.lanes[l].rngState, snap.lanes[l].rngState) << l;
    EXPECT_EQ(back.lanes[l].regValues, snap.lanes[l].regValues) << l;
    EXPECT_EQ(back.lanes[l].errors, snap.lanes[l].errors) << l;
  }

  // Truncations must fail cleanly, never crash (the fuzz contract).
  for (size_t cut : {size_t{0}, size_t{4}, size_t{9}, bytes.size() / 2,
                     bytes.size() - 1}) {
    FarmSnapshot junk;
    EXPECT_FALSE(farmFromBytes(bytes.data(), cut, junk, err)) << cut;
  }
}

TEST(Farm, ResumeIsBitIdenticalToStraightRun) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 96;
  opts.cycles = 20;
  opts.threads = 2;
  opts.seed = 0xABCDEFull;
  const FarmReport straight = runFarm(f.graph, opts);

  FarmOptions half = opts;
  half.checkpointAtCycle = 9;
  FarmSnapshot snap;
  half.onCheckpoint = [&](const FarmSnapshot& s) { snap = s; };
  runFarm(f.graph, half);
  ASSERT_EQ(snap.cycle, 9u);

  // Resume through the serialized form, at a different thread count.
  std::vector<uint8_t> bytes = farmToBytes(snap);
  FarmSnapshot restored;
  std::string err;
  ASSERT_TRUE(farmFromBytes(bytes.data(), bytes.size(), restored, err))
      << err;
  FarmOptions rest = opts;
  rest.threads = 4;
  const FarmReport resumed = runFarm(f.graph, rest, &restored);
  expectReportsEqual(resumed, straight, "resumed vs straight");
  EXPECT_EQ(resumed.stats, straight.stats);
  EXPECT_EQ(resumed.cycles, straight.cycles);
}

TEST(Farm, ResumeRejectsMismatchedSnapshots) {
  FarmFixture f(kRandomized, "top");
  FarmOptions opts;
  opts.lanes = 64;
  opts.cycles = 8;
  opts.checkpointAtCycle = 4;
  FarmSnapshot snap;
  opts.onCheckpoint = [&](const FarmSnapshot& s) { snap = s; };
  runFarm(f.graph, opts);

  FarmSnapshot bad = snap;
  bad.designHash ^= 1;
  EXPECT_THROW(runFarm(f.graph, opts, &bad), std::invalid_argument);
  bad = snap;
  bad.seed ^= 1;
  EXPECT_THROW(runFarm(f.graph, opts, &bad), std::invalid_argument);
  bad = snap;
  bad.totalLanes = 32;
  EXPECT_THROW(runFarm(f.graph, opts, &bad), std::invalid_argument);
  FarmOptions shorter = opts;
  shorter.cycles = 2;  // snapshot already past the requested end
  EXPECT_THROW(runFarm(f.graph, shorter, &snap), std::invalid_argument);
}

// A restored rngState of 0 must not absorb (xorshift(0) == 0 forever):
// the firing evaluator substitutes kDefaultRngSeed at evaluate time, and
// the batch evaluator normalizes restored lane states the same way, so a
// firing-rule run and a batch lane resumed from the same zero-state
// snapshot stay bit-identical.
TEST(Farm, ZeroRngStateRestoresIdenticallyScalarAndBatch) {
  FarmFixture f(kRandomized, "top");

  Simulation scalar(f.graph, EvaluatorKind::Firing);
  SimSnapshot snap = scalar.saveSnapshot();
  snap.rngState = 0;  // hand-built snapshot in the absorbing state

  scalar.restoreSnapshot(snap);
  BatchSimulation batch(f.graph, 4);
  batch.restoreSnapshot(2, snap);

  const std::vector<Logic> on(1, Logic::One);
  for (int c = 0; c < 8; ++c) {
    scalar.setInput("en", on);
    batch.setInput(2, "en", on);
    scalar.step(1);
    batch.step(1);
    EXPECT_EQ(scalar.netValueByName("top.o"), batch.netValueByName(2, "top.o"))
        << "cycle " << c;
  }
  EXPECT_EQ(scalar.randomState(), batch.randomState(2));
  EXPECT_NE(batch.randomState(2), 0u) << "lane stuck in the absorbing state";
}

// Full-corpus differential: every built-in program through the farm at
// 1 and 2 threads against the scalar oracle.  Partial trailing blocks
// (96 = 64 + 32) ride along on every entry.
class FarmCorpus : public ::testing::TestWithParam<corpus::CorpusEntry> {};

std::string entryName(
    const ::testing::TestParamInfo<corpus::CorpusEntry>& info) {
  std::string n = info.param.name;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(All, FarmCorpus, ::testing::ValuesIn(corpus::all()),
                         entryName);

TEST_P(FarmCorpus, FarmMatchesScalarOracle) {
  std::string top;
  const std::string src = corpusSource(GetParam(), &top);
  FarmFixture f(src, top);
  if (f.graph.hasCycle) GTEST_SKIP() << "cyclic design";
  FarmOptions opts;
  opts.lanes = 96;
  opts.cycles = 8;
  const FarmReport oracle = runFarmScalarOracle(f.graph, opts);
  for (size_t threads : {1u, 2u}) {
    opts.threads = threads;
    FarmReport r = runFarm(f.graph, opts);
    expectReportsEqual(r, oracle,
                       std::string(GetParam().name) + " @" +
                           std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace zeus::test
