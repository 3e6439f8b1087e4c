// Differential test: the blackjack FSM and a parameterized ripple-carry
// adder are driven with random stimulus for many cycles through the
// naive, firing and levelized evaluators plus the 64-lane batch engine,
// asserting identical net values, contention errors and register
// trajectories on every lane and every cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "tests/support/paper_examples.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

/// Per lane: one batch lane plus three scalar simulations (firing, naive,
/// levelized) fed the same stimulus.  Agreement is checked net-by-net.
class DifferentialRig {
 public:
  DifferentialRig(const std::string& src, const std::string& top,
                  size_t lanes)
      : built_(buildOk(src, top)),
        graph_(buildSimGraph(*built_.design, built_.comp->diags())),
        lanes_(lanes),
        batch_(graph_, lanes) {
    EXPECT_FALSE(graph_.hasCycle);
    scalars_.reserve(lanes * 3);
    for (size_t l = 0; l < lanes; ++l) {
      for (EvaluatorKind k : {EvaluatorKind::Firing, EvaluatorKind::Naive,
                              EvaluatorKind::Levelized}) {
        scalars_.emplace_back(graph_, k);
      }
    }
  }

  Simulation& scalar(size_t lane, size_t which) {
    return scalars_[lane * 3 + which];
  }

  void setInput(size_t lane, const std::string& port, Logic v) {
    batch_.setInput(lane, port, v);
    for (size_t j = 0; j < 3; ++j) scalar(lane, j).setInput(port, v);
  }

  void setInputUint(size_t lane, const std::string& port, uint64_t v) {
    batch_.setInputUint(lane, port, v);
    for (size_t j = 0; j < 3; ++j) scalar(lane, j).setInputUint(port, v);
  }

  void setRset(bool active) {
    batch_.setRset(active);
    for (Simulation& s : scalars_) s.setRset(active);
  }

  void step() {
    batch_.step();
    for (Simulation& s : scalars_) s.step();
  }

  /// Every net value and every register must agree across the three
  /// scalar evaluators and the matching batch lane.
  void checkAgreement(int cyc) {
    const Netlist& nl = built_.design->netlist;
    for (size_t l = 0; l < lanes_; ++l) {
      Simulation& ref = scalar(l, 0);
      std::vector<Logic> refRegs = ref.saveRegisters();
      for (size_t j = 1; j < 3; ++j) {
        ASSERT_EQ(refRegs, scalar(l, j).saveRegisters())
            << "registers, lane " << l << " evaluator " << j << " cycle "
            << cyc;
      }
      ASSERT_EQ(refRegs, batch_.saveRegisters(l))
          << "registers, batch lane " << l << " cycle " << cyc;
      for (NetId n = 0; n < nl.netCount(); ++n) {
        Logic want = ref.netValue(n);
        for (size_t j = 1; j < 3; ++j) {
          ASSERT_EQ(want, scalar(l, j).netValue(n))
              << "net " << nl.net(n).name << " lane " << l << " evaluator "
              << j << " cycle " << cyc;
        }
        ASSERT_EQ(want, batch_.netValue(l, n))
            << "net " << nl.net(n).name << " batch lane " << l << " cycle "
            << cyc;
      }
    }
  }

  /// Contention faults must agree as (cycle, net) multisets — evaluators
  /// legitimately discover collisions in different orders.
  void checkErrors() {
    using Key = std::tuple<uint64_t, std::string>;
    auto keysOf = [](const std::vector<SimError>& errs, int32_t lane) {
      std::vector<Key> keys;
      for (const SimError& e : errs) {
        if (lane >= 0 && e.lane != lane) continue;
        keys.emplace_back(e.cycle, e.netName);
      }
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    for (size_t l = 0; l < lanes_; ++l) {
      std::vector<Key> want = keysOf(scalar(l, 0).errors(), -1);
      for (size_t j = 1; j < 3; ++j) {
        EXPECT_EQ(want, keysOf(scalar(l, j).errors(), -1))
            << "errors, lane " << l << " evaluator " << j;
      }
      EXPECT_EQ(want, keysOf(batch_.errors(), static_cast<int32_t>(l)))
          << "errors, batch lane " << l;
    }
  }

  BatchSimulation& batch() { return batch_; }

 private:
  Built built_;
  SimGraph graph_;
  size_t lanes_;
  BatchSimulation batch_;
  std::vector<Simulation> scalars_;
};

TEST(Differential, RippleCarryAdderAllEvaluatorsAllLanes) {
  constexpr int kWidth = 12;
  constexpr size_t kLanes = 64;
  constexpr int kCycles = 16;
  DifferentialRig rig(
      std::string(kAdders) + "SIGNAL adder: rippleCarry(12);\n", "adder",
      kLanes);
  std::mt19937_64 rng(7);
  for (int cyc = 0; cyc < kCycles; ++cyc) {
    std::vector<uint64_t> as(kLanes), bs(kLanes), cins(kLanes);
    for (size_t l = 0; l < kLanes; ++l) {
      as[l] = rng() & ((1u << kWidth) - 1);
      bs[l] = rng() & ((1u << kWidth) - 1);
      cins[l] = rng() & 1;
      rig.setInputUint(l, "a", as[l]);
      rig.setInputUint(l, "b", bs[l]);
      rig.setInput(l, "cin", logicFromBool(cins[l]));
    }
    rig.step();
    rig.checkAgreement(cyc);
    // Ground truth on every lane, not just cross-evaluator agreement.
    for (size_t l = 0; l < kLanes; ++l) {
      uint64_t sum = as[l] + bs[l] + cins[l];
      ASSERT_EQ(rig.batch().outputUint(l, "s"),
                std::optional<uint64_t>(sum & ((1u << kWidth) - 1)))
          << "lane " << l << " cycle " << cyc;
      ASSERT_EQ(rig.batch().output(l, "cout"),
                logicFromBool((sum >> kWidth) & 1));
    }
  }
  rig.checkErrors();
}

TEST(Differential, BlackjackFsmAllEvaluatorsAllLanes) {
  constexpr size_t kLanes = 8;
  constexpr int kCycles = 48;
  DifferentialRig rig(kBlackjack, "bj", kLanes);
  // Bring every engine out of reset the same way.
  for (size_t l = 0; l < kLanes; ++l) {
    rig.setInput(l, "ycard", Logic::Zero);
    rig.setInputUint(l, "value", 0);
  }
  rig.setRset(true);
  rig.step();
  rig.setRset(false);
  // Random card stream per lane: ycard toggles at random, values 0..31.
  std::mt19937_64 rng(11);
  for (int cyc = 0; cyc < kCycles; ++cyc) {
    for (size_t l = 0; l < kLanes; ++l) {
      rig.setInput(l, "ycard", logicFromBool(rng() & 1));
      rig.setInputUint(l, "value", rng() % 32);
    }
    rig.step();
    rig.checkAgreement(cyc);
  }
  rig.checkErrors();
}

// The batch engine fires every node and resolves every net once per
// evaluated cycle with one word-parallel operation covering all lanes, so
// its counter totals must equal a scalar firing-rule run (the §8 oracle,
// which counts as it fires) of the same cycle count — and contention
// checks count the static multi-driven property, not per-lane value
// accidents, so they cannot drift between engines.
void checkCounterTotals(const std::string& src, const std::string& top,
                        uint64_t cycles, bool pulseRset,
                        bool optimize = false) {
  Built b = buildOk(src, top);
  if (optimize) {
    // Counter invariance must survive -O1: the pipeline recomputes
    // NetInfo (multiDriven in particular) on the rebuilt graph, and the
    // contentionChecks counter is derived from that static flag — a
    // stale bit would make scalar and batch totals drift apart.
    OptReport rep = b.comp->optimize(*b.design);
    ASSERT_TRUE(rep.ran);
    ASSERT_TRUE(rep.verified) << rep.verifyError;
  }
  SimGraph graph = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(graph.hasCycle);
  Simulation scalar(graph, EvaluatorKind::Firing);
  BatchSimulation batch(graph, BatchSimulation::kMaxLanes);

  std::mt19937_64 rng(23);
  auto drive = [&]() {
    for (const Port& p : b.design->ports) {
      if (p.mode != ast::ParamMode::In) continue;
      uint64_t v = rng();
      scalar.setInputUint(p.name, v);
      for (size_t l = 0; l < batch.lanes(); ++l) {
        batch.setInputUint(l, p.name, rng());  // lanes diverge on purpose
      }
    }
  };
  if (pulseRset) {
    drive();
    scalar.setRset(true);
    batch.setRset(true);
    scalar.step();
    batch.step();
    scalar.setRset(false);
    batch.setRset(false);
  }
  for (uint64_t c = 0; c < cycles; ++c) {
    drive();
    scalar.step();
    batch.step();
  }

  metrics::SimCounters sc = scalar.metricsCounters();
  metrics::SimCounters bc = batch.metricsCounters();
  EXPECT_EQ(sc.evaluator, "firing");
  EXPECT_EQ(bc.evaluator, "batch");
  EXPECT_EQ(sc.cycles, bc.cycles);
  EXPECT_EQ(bc.lanes, BatchSimulation::kMaxLanes);
  EXPECT_EQ(bc.laneCycles, bc.cycles * bc.lanes);
  // The per-lane totals the two engines share: firing, resolution,
  // contention-check and epoch-reset counts must be identical.
  EXPECT_EQ(sc.nodeFirings, bc.nodeFirings);
  EXPECT_EQ(sc.netResolutions, bc.netResolutions);
  EXPECT_EQ(sc.contentionChecks, bc.contentionChecks);
  EXPECT_EQ(sc.epochResets, bc.epochResets);
  EXPECT_GT(sc.nodeFirings, 0u);
  EXPECT_GT(sc.netResolutions, 0u);
}

TEST(Differential, AdderScalarAndBatchCounterTotalsAgree) {
  checkCounterTotals(
      std::string(kAdders) + "SIGNAL adder: rippleCarry(12);\n", "adder",
      /*cycles=*/16, /*pulseRset=*/false);
}

TEST(Differential, BlackjackScalarAndBatchCounterTotalsAgree) {
  checkCounterTotals(kBlackjack, "bj", /*cycles=*/32, /*pulseRset=*/true);
}

TEST(Differential, AdderCounterTotalsAgreeAtO1) {
  checkCounterTotals(
      std::string(kAdders) + "SIGNAL adder: rippleCarry(12);\n", "adder",
      /*cycles=*/16, /*pulseRset=*/false, /*optimize=*/true);
}

TEST(Differential, BlackjackCounterTotalsAgreeAtO1) {
  checkCounterTotals(kBlackjack, "bj", /*cycles=*/32, /*pulseRset=*/true,
                     /*optimize=*/true);
}

// The levelized kernel adds its counters once per cycle, as constants
// counted from the schedule; the firing evaluator counts every firing and
// every resolution as it happens.  On every corpus program at -O0 and -O1
// the kernel's totals must equal the firing totals, both on lane 0 of a
// scalar levelized run and on a one-lane batch.
TEST(Differential, LevelizedCountersEqualFiringOnTheCorpus) {
  for (const corpus::CorpusEntry& e : corpus::all()) {
    for (int level : {0, 1}) {
      SCOPED_TRACE(std::string(e.name) + " -O" + std::to_string(level));
      std::string top;
      Built b = buildOk(corpusSource(e, &top), top);
      OptOptions opts;
      opts.level = level;
      OptReport rep = b.comp->optimize(*b.design, opts);
      if (!rep.graph) continue;  // cyclic: not simulated
      const SimGraph& g = *rep.graph;
      Simulation firing(g, EvaluatorKind::Firing);
      Simulation levelized(g, EvaluatorKind::Levelized);
      BatchSimulation batch(g, 1);
      std::mt19937_64 rng(7);
      for (int c = 0; c < 8; ++c) {
        for (const Port& p : b.design->ports) {
          if (p.mode != ast::ParamMode::In) continue;
          const uint64_t v = rng();
          firing.setInputUint(p.name, v);
          levelized.setInputUint(p.name, v);
          batch.setInputUint(0, p.name, v);
        }
        firing.setRset(c == 0);
        levelized.setRset(c == 0);
        batch.setRset(c == 0);
        firing.step();
        levelized.step();
        batch.step();
      }
      const EvalStats& want = firing.stats();
      ASSERT_GT(want.nodeFirings, 0u);
      for (const EvalStats* got : {&levelized.stats(), &batch.stats()}) {
        EXPECT_EQ(got->nodeFirings, want.nodeFirings);
        EXPECT_EQ(got->netResolutions, want.netResolutions);
        EXPECT_EQ(got->contentionChecks, want.contentionChecks);
        EXPECT_EQ(got->epochResets, want.epochResets);
      }
    }
  }
}

// The register latch of both facades reads a net's activity off its value:
// a lane latches where its input is not NOINFL.  That needs an active net
// never to read NOINFL and an inactive one always to, which is what the
// kernel computes.  Firing and naive report activity separately; on every
// corpus program at -O0 and -O1, on every cycle that latches, it must be
// the same thing.
TEST(Differential, ActiveNetsAreExactlyTheNonNoinflNets) {
  for (const corpus::CorpusEntry& e : corpus::all()) {
    for (int level : {0, 1}) {
      SCOPED_TRACE(std::string(e.name) + " -O" + std::to_string(level));
      std::string top;
      Built b = buildOk(corpusSource(e, &top), top);
      OptOptions opts;
      opts.level = level;
      OptReport rep = b.comp->optimize(*b.design, opts);
      if (!rep.graph) continue;  // cyclic: not simulated
      const SimGraph& g = *rep.graph;
      FiringEvaluator firing(g);
      NaiveEvaluator naive(g);
      std::vector<Logic> inputs(g.denseCount, Logic::Undef);
      std::vector<char> inputSet(g.denseCount, 0);
      std::vector<Logic> regs(g.regNodes.size());
      CycleSeeds seeds;
      seeds.inputValues = &inputs;
      seeds.inputSet = &inputSet;
      seeds.regValues = &regs;
      std::mt19937_64 rng(11);
      const Logic kValues[] = {Logic::Zero, Logic::One, Logic::Undef};
      CycleResult out;
      for (int c = 0; c < 16; ++c) {
        for (size_t i = 0; i < g.denseCount; ++i) {
          if (!g.nets[i].isInput) continue;
          inputSet[i] = rng() % 5 != 0;  // now and then undriven
          inputs[i] = kValues[rng() % 3];
        }
        for (Logic& r : regs) r = kValues[rng() % 3];
        seeds.rngState = rng() | 1;
        for (int engine = 0; engine < 2; ++engine) {
          if (engine == 0) firing.evaluate(seeds, out);
          else naive.evaluate(seeds, out);
          if (out.watchdogTripped) continue;  // does not latch
          for (size_t i = 0; i < g.denseCount; ++i) {
            ASSERT_EQ(out.activeCounts[i] > 0,
                      out.netValues[i] != Logic::NoInfl)
                << (engine ? "naive" : "firing") << " net "
                << b.design->netlist.net(g.rootOf[i]).name << " cycle "
                << c;
          }
        }
      }
    }
  }
}

// A design exercising everything a checkpoint must capture: RANDOM draws,
// a REG trajectory, and input-dependent multiplex contention (SimErrors).
const char* kResumable = R"(
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

struct Stimulus {
  Logic en, a, b;
};

std::vector<Stimulus> randomStimulus(int cycles, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Stimulus> s(cycles);
  for (Stimulus& x : s) {
    x.en = logicFromBool(rng() & 1);
    x.a = logicFromBool(rng() & 1);
    x.b = logicFromBool(rng() & 1);
  }
  return s;
}

void drive(Simulation& sim, const Stimulus& s) {
  sim.setInput("en", s.en);
  sim.setInput("a", s.a);
  sim.setInput("b", s.b);
  sim.step();
}

/// Interrupt-at-cycle-k resume must be bit-identical to the straight run:
/// net values, registers, RANDOM draws, SimErrors, the cycle count and
/// every evaluator counter.  That is exactly what saveRegisters() alone
/// cannot provide (its documented partial-state contract), so this test
/// routes through the full SimSnapshot.
TEST(Differential, SnapshotResumeIsBitIdenticalOnEveryEvaluator) {
  constexpr int kCycles = 24;
  constexpr int kStopAt = 10;
  std::vector<Stimulus> stim = randomStimulus(kCycles, 99);
  for (EvaluatorKind k : {EvaluatorKind::Firing, EvaluatorKind::Naive,
                          EvaluatorKind::Levelized}) {
    Built b = buildOk(kResumable, "top");
    SimGraph g = buildSimGraph(*b.design, b.comp->diags());
    ASSERT_FALSE(g.hasCycle);

    Simulation straight(g, k);
    for (int c = 0; c < kCycles; ++c) drive(straight, stim[c]);
    ASSERT_FALSE(straight.errors().empty()) << "stimulus never contended";

    Simulation first(g, k);
    for (int c = 0; c < kStopAt; ++c) drive(first, stim[c]);
    SimSnapshot snap = first.saveSnapshot();
    Simulation resumed(g, k);
    resumed.restoreSnapshot(snap);
    for (int c = kStopAt; c < kCycles; ++c) drive(resumed, stim[c]);

    EXPECT_EQ(resumed.cycle(), straight.cycle());
    EXPECT_EQ(resumed.errors(), straight.errors());
    EXPECT_TRUE(resumed.stats() == straight.stats())
        << "evaluator counters diverged, kind " << static_cast<int>(k);
    EXPECT_EQ(resumed.saveRegisters(), straight.saveRegisters());
    const Netlist& nl = b.design->netlist;
    for (NetId n = 0; n < nl.netCount(); ++n) {
      ASSERT_EQ(resumed.netValue(n), straight.netValue(n))
          << nl.net(n).name << " kind " << static_cast<int>(k);
    }
    metrics::SimCounters rc = resumed.metricsCounters();
    metrics::SimCounters sc = straight.metricsCounters();
    EXPECT_EQ(rc.cycles, sc.cycles);
    EXPECT_EQ(rc.nodeFirings, sc.nodeFirings);
    EXPECT_EQ(rc.netResolutions, sc.netResolutions);
    EXPECT_EQ(rc.faults, sc.faults);
    EXPECT_EQ(rc.contentionFaults, sc.contentionFaults);
  }
}

/// Scalar snapshots restore into batch lanes and vice versa: the same
/// interrupted run continues bit-identically in the other engine.  The
/// scalar side runs the firing evaluator, which shares no code with the
/// batch kernel.
TEST(Differential, SnapshotsInterchangeBetweenScalarAndBatchLanes) {
  constexpr int kCycles = 20;
  constexpr int kStopAt = 8;
  std::vector<Stimulus> stim = randomStimulus(kCycles, 123);
  Built b = buildOk(kResumable, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);

  Simulation straight(g, EvaluatorKind::Firing);
  for (int c = 0; c < kCycles; ++c) drive(straight, stim[c]);

  // Scalar -> batch lane 2.
  Simulation first(g, EvaluatorKind::Firing);
  for (int c = 0; c < kStopAt; ++c) drive(first, stim[c]);
  BatchSimulation batch(g, 4);
  batch.restoreSnapshot(2, first.saveSnapshot());
  EXPECT_EQ(batch.cycle(), static_cast<uint64_t>(kStopAt));
  for (int c = kStopAt; c < kCycles; ++c) {
    batch.setInput(2, "en", stim[c].en);
    batch.setInput(2, "a", stim[c].a);
    batch.setInput(2, "b", stim[c].b);
    batch.step();
  }
  const Netlist& nl = b.design->netlist;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    ASSERT_EQ(batch.netValue(2, n), straight.netValue(n)) << nl.net(n).name;
  }
  // The lane's errors match the straight scalar run as (cycle, net) pairs.
  auto laneKeys = [](const std::vector<SimError>& errs, int32_t lane) {
    std::vector<std::pair<uint64_t, std::string>> keys;
    for (const SimError& e : errs) {
      if (lane >= 0 && e.lane != lane) continue;
      keys.emplace_back(e.cycle, e.netName);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(laneKeys(batch.errors(), 2), laneKeys(straight.errors(), -1));

  // Batch lane -> scalar.
  BatchSimulation bfirst(g, 4);
  for (int c = 0; c < kStopAt; ++c) {
    for (size_t l = 0; l < bfirst.lanes(); ++l) {
      bfirst.setInput(l, "en", stim[c].en);
      bfirst.setInput(l, "a", stim[c].a);
      bfirst.setInput(l, "b", stim[c].b);
    }
    bfirst.step();
  }
  Simulation cont(g, EvaluatorKind::Firing);
  cont.restoreSnapshot(bfirst.saveSnapshot(1));
  for (int c = kStopAt; c < kCycles; ++c) drive(cont, stim[c]);
  for (NetId n = 0; n < nl.netCount(); ++n) {
    ASSERT_EQ(cont.netValue(n), straight.netValue(n)) << nl.net(n).name;
  }
  EXPECT_EQ(laneKeys(cont.errors(), -1), laneKeys(straight.errors(), -1));
}

}  // namespace
}  // namespace zeus::test
