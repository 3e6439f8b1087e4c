// Unit tests for the levelized evaluator, the 64-lane batch facade and
// the simulator fixes that rode along with them: reset() restores the
// RANDOM stream, a watchdog-tripped cycle neither latches registers nor
// counts, and net lookup by name goes through the Netlist index.
#include <gtest/gtest.h>

#include "tests/support/paper_examples.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

const char* kRandomReg = R"(
TYPE t = COMPONENT (IN en: boolean; OUT o: boolean) IS
  SIGNAL r: REG;
BEGIN
  IF en THEN r.in := RANDOM() END;
  o := r.out
END;
SIGNAL top: t;
)";

const char* kRegBuf = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL r: REG;
BEGIN
  r.in := a;
  o := r.out
END;
SIGNAL top: t;
)";

const char* kTwoDriverMux = R"(
TYPE t = COMPONENT (IN a, b: boolean; OUT o: boolean) IS
  SIGNAL m: multiplex;
BEGIN
  IF a THEN m := 1 END;
  IF b THEN m := 0 END;
  o := m
END;
SIGNAL top: t;
)";

// The kernel runs the graph's tape, which buildSimGraph lowers; a graph
// from levelizeGraph has none until lowerTape runs.
TEST(Levelized, RefusesAGraphWithoutItsTape) {
  Built b = buildOk(kRegBuf, "top");
  SimGraph g = levelizeGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  EXPECT_THROW(Simulation(g, EvaluatorKind::Levelized), std::invalid_argument);
  EXPECT_THROW(BatchSimulation(g, 2), std::invalid_argument);
  Simulation firing(g, EvaluatorKind::Firing);  // reads no tape
  lowerTape(g);
  Simulation levelized(g, EvaluatorKind::Levelized);
  for (Simulation* s : {&firing, &levelized}) {
    s->setInput("a", Logic::One);
    s->step(2);
    EXPECT_EQ(s->output("o"), Logic::One);
  }
}

TEST(LanePlanes, BroadcastSetGetRoundtrip) {
  for (Logic v : {Logic::Zero, Logic::One, Logic::Undef, Logic::NoInfl}) {
    LanePlanes all = lanesBroadcast(v, ~uint64_t{0});
    for (uint32_t lane : {0u, 1u, 31u, 63u}) {
      EXPECT_EQ(laneValue(all, lane), v);
    }
    LanePlanes one;
    laneSet(one, 7, v);
    EXPECT_EQ(laneValue(one, 7), v);
    EXPECT_EQ(laneValue(one, 8), Logic::NoInfl);  // untouched lanes
  }
}

// Satellite fix: Simulation::reset() restores the RANDOM stream, so a
// reset simulation replays exactly like a freshly constructed one.
TEST(SimulationReset, RestoresRandomStream) {
  Built b = buildOk(kRandomReg, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (EvaluatorKind kind : {EvaluatorKind::Firing, EvaluatorKind::Naive,
                             EvaluatorKind::Levelized}) {
    Simulation sim(g, kind);
    auto record = [&] {
      sim.setInput("en", Logic::One);
      std::vector<Logic> out;
      for (int i = 0; i < 48; ++i) {
        sim.step();
        out.push_back(sim.output("o"));
      }
      return out;
    };
    std::vector<Logic> first = record();
    sim.reset();
    std::vector<Logic> second = record();
    EXPECT_EQ(first, second) << "evaluator " << static_cast<int>(kind);
    // The stream must actually vary, or the test proves nothing.
    EXPECT_NE(first, std::vector<Logic>(first.size(), first[0]));
  }
}

// Satellite fix: a cycle aborted by the firing watchdog must not latch
// its (unreliable) net values into registers, and must not be counted.
TEST(Watchdog, TrippedCycleDoesNotLatchOrCount) {
  Built b = buildOk(kRegBuf, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation::Options opts;
  opts.evaluator = EvaluatorKind::Firing;
  opts.maxEventsPerCycle = 1;  // trips on the very first propagation
  Simulation sim(g, opts);
  sim.setInput("a", Logic::One);
  sim.restoreRegisters({Logic::Zero});
  sim.step(4);
  ASSERT_FALSE(sim.errors().empty());
  EXPECT_EQ(sim.errors()[0].code, Diag::SimWatchdog);
  EXPECT_EQ(sim.cycle(), 0u) << "aborted cycles must not count";
  EXPECT_EQ(sim.saveRegisters(), std::vector<Logic>{Logic::Zero})
      << "aborted cycles must not latch";
}

// netValueByName resolves names through Netlist::findByName.
TEST(Netlist, FindByNameIndex) {
  Built b = buildOk(std::string(kAdders) + "SIGNAL adder: rippleCarry(8);\n",
                    "adder");
  const Netlist& nl = b.design->netlist;
  for (NetId i = 0; i < nl.netCount(); ++i) {
    NetId f = nl.findByName(nl.net(i).name);
    ASSERT_NE(f, kNoNet) << nl.net(i).name;
    EXPECT_EQ(nl.net(f).name, nl.net(i).name);
  }
  EXPECT_EQ(nl.findByName("no.such.net"), kNoNet);
}

TEST(Simulation, NetValueByNameAgreesWithNetValue) {
  Built b = buildOk(kRegBuf, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g, EvaluatorKind::Levelized);
  sim.setInput("a", Logic::One);
  sim.step();
  const Netlist& nl = b.design->netlist;
  for (NetId i = 0; i < nl.netCount(); ++i) {
    EXPECT_EQ(sim.netValueByName(nl.net(i).name), sim.netValue(i))
        << nl.net(i).name;
  }
  EXPECT_THROW((void)sim.netValueByName("no.such.net"), std::invalid_argument);
}

// Multiplex contention (§8 at-most-one-driver) is detected per lane.
TEST(Batch, PerLaneContention) {
  Built b = buildOk(kTwoDriverMux, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  BatchSimulation batch(g, 4);
  // lane 0: neither driver; lane 1: m := 1; lane 2: m := 0; lane 3: both.
  const Logic a[4] = {Logic::Zero, Logic::One, Logic::Zero, Logic::One};
  const Logic bb[4] = {Logic::Zero, Logic::Zero, Logic::One, Logic::One};
  for (size_t l = 0; l < 4; ++l) {
    batch.setInput(l, "a", a[l]);
    batch.setInput(l, "b", bb[l]);
  }
  batch.step();
  EXPECT_EQ(batch.output(0, "o"), Logic::Undef);  // NOINFL observed as UNDEF
  EXPECT_EQ(batch.output(1, "o"), Logic::One);
  EXPECT_EQ(batch.output(2, "o"), Logic::Zero);
  EXPECT_EQ(batch.output(3, "o"), Logic::Undef);  // burned
  ASSERT_EQ(batch.errors().size(), 1u);
  EXPECT_EQ(batch.errors()[0].code, Diag::SimContention);
  EXPECT_EQ(batch.errors()[0].lane, 3);
}

// Lane L of a batch draws the same RANDOM sequence as a scalar run with
// the same seed, whether or not the batch fills its 64-bit lane word
// (the kernel draws only for the lanes in use).
TEST(Batch, RandomStreamsMatchScalarPerLane) {
  Built b = buildOk(kRandomReg, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (size_t lanes : {size_t{8}, size_t{5}}) {
    BatchSimulation batch(g, lanes);
    batch.setInputAll("en", Logic::One);
    std::vector<Simulation> refs;
    refs.reserve(lanes);
    for (size_t l = 0; l < lanes; ++l) {
      batch.setRandomSeed(l, 1000 + l);
      refs.emplace_back(g, EvaluatorKind::Firing);
      refs[l].setRandomSeed(1000 + l);
      refs[l].setInput("en", Logic::One);
    }
    for (int cyc = 0; cyc < 32; ++cyc) {
      batch.step();
      for (size_t l = 0; l < lanes; ++l) {
        refs[l].step();
        ASSERT_EQ(batch.output(l, "o"), refs[l].output("o"))
            << lanes << " lanes, lane " << l << " cycle " << cyc;
      }
    }
    for (size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(batch.randomState(l), refs[l].randomState())
          << lanes << " lanes, lane " << l;
    }
  }
}

TEST(Batch, LaneAndSizeValidation) {
  Built b = buildOk(kRegBuf, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  EXPECT_THROW(BatchSimulation(g, 0), std::invalid_argument);
  EXPECT_THROW(BatchSimulation(g, 65), std::invalid_argument);
  BatchSimulation batch(g, 2);
  EXPECT_THROW(batch.setInput(2, "a", Logic::One), std::invalid_argument);
  EXPECT_THROW(batch.setRandomSeed(63, 1), std::invalid_argument);
}

}  // namespace
}  // namespace zeus::test
