// Fault injection (src/sim/fault.h): every evaluator applies stuck-at /
// flip / contention overlays identically, the batch engine's golden-lane
// divergence probes see exactly the faulty lanes, and parallel fault
// campaigns classify, checkpoint and resume deterministically.
#include <gtest/gtest.h>

#include <algorithm>

#include "tests/support/paper_examples.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

const char* kNotChain = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL m: boolean;
BEGIN
  m := NOT a;
  o := NOT m
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

constexpr EvaluatorKind kAllKinds[] = {
    EvaluatorKind::Firing, EvaluatorKind::Naive, EvaluatorKind::Levelized};

TEST(Fault, MakeFaultResolvesNamesAndRejectsUnknown) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  auto f = makeFault(g, FaultKind::StuckAt1, "top.m");
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::StuckAt1);
  EXPECT_FALSE(makeFault(g, FaultKind::StuckAt1, "no.such.net").has_value());
}

TEST(Fault, StuckAtForcesValueOnEveryEvaluator) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (EvaluatorKind k : kAllKinds) {
    for (FaultKind fk : {FaultKind::StuckAt0, FaultKind::StuckAt1,
                         FaultKind::StuckUndef}) {
      Simulation sim(g, k);
      sim.injectFault(*makeFault(g, fk, "top.m"));
      sim.setInput("a", Logic::Zero);  // fault-free m would be 1, o = 0
      sim.step();
      Logic wantM = fk == FaultKind::StuckAt0   ? Logic::Zero
                    : fk == FaultKind::StuckAt1 ? Logic::One
                                                : Logic::Undef;
      Logic wantO = fk == FaultKind::StuckAt0   ? Logic::One
                    : fk == FaultKind::StuckAt1 ? Logic::Zero
                                                : Logic::Undef;
      EXPECT_EQ(sim.netValueByName("top.m"), wantM)
          << "evaluator " << static_cast<int>(k);
      // The faulty value propagates through downstream logic.
      EXPECT_EQ(sim.output("o"), wantO) << "evaluator " << static_cast<int>(k);
      EXPECT_TRUE(sim.errors().empty());
    }
  }
}

TEST(Fault, TransientFlipHonoursItsCycleWindow) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (EvaluatorKind k : kAllKinds) {
    Simulation sim(g, k);
    sim.injectFault(*makeFault(g, FaultKind::TransientFlip, "top.m",
                               /*fromCycle=*/1, /*toCycle=*/2));
    sim.setInput("a", Logic::Zero);
    sim.step();  // cycle 0: window not open yet
    EXPECT_EQ(sim.output("o"), Logic::Zero);
    sim.step();  // cycle 1: flipped
    EXPECT_EQ(sim.output("o"), Logic::One);
    sim.step();  // cycle 2: still flipped
    EXPECT_EQ(sim.output("o"), Logic::One);
    sim.step();  // cycle 3: window closed
    EXPECT_EQ(sim.output("o"), Logic::Zero);
  }
}

TEST(Fault, ForcedContentionRaisesSimContention) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (EvaluatorKind k : kAllKinds) {
    Simulation sim(g, k);
    sim.injectFault(*makeFault(g, FaultKind::ForcedContention, "top.m"));
    sim.setInput("a", Logic::Zero);
    sim.step();
    EXPECT_EQ(sim.netValueByName("top.m"), Logic::Undef);
    ASSERT_FALSE(sim.errors().empty()) << "evaluator " << static_cast<int>(k);
    EXPECT_EQ(sim.errors()[0].code, Diag::SimContention);
  }
}

TEST(Fault, ClearFaultsRestoresGoldenBehaviour) {
  // Golden with a = 0: m = NOT a = 1, o = NOT m = 0.  m stuck-at-0 flips
  // the output to 1.
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g);
  sim.injectFault(*makeFault(g, FaultKind::StuckAt0, "top.m"));
  sim.setInput("a", Logic::Zero);
  sim.step();
  EXPECT_EQ(sim.output("o"), Logic::One);
  // Faults survive reset() by contract...
  sim.reset();
  sim.setInput("a", Logic::Zero);
  sim.step();
  EXPECT_EQ(sim.output("o"), Logic::One);
  // ...and only clearFaults() removes them.
  sim.clearFaults();
  sim.reset();
  sim.setInput("a", Logic::Zero);
  sim.step();
  EXPECT_EQ(sim.output("o"), Logic::Zero);
}

TEST(Fault, FaultyRegisterStateLatches) {
  // A stuck-at on a register's input net corrupts the latched state, not
  // just the combinational cone.
  Built b = buildOk(kRegBuf, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (EvaluatorKind k : kAllKinds) {
    Simulation sim(g, k);
    sim.injectFault(
        *makeFault(g, FaultKind::StuckAt0, "top.r.in", 0, 0));
    sim.setInput("a", Logic::One);
    sim.step();  // faulted cycle: r latches 0 instead of 1
    sim.step();  // fault window over; r re-latches the true input
    std::vector<Logic> regs = sim.saveRegisters();
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0], Logic::One);
    // After reset() the window [0,0] re-opens: cycle 0 latches the faulty
    // 0, which r.out exposes during cycle 1.
    sim.reset();
    sim.setInput("a", Logic::One);
    sim.step(2);
    EXPECT_EQ(sim.output("o"), Logic::Zero)
        << "evaluator " << static_cast<int>(k);
  }
}

TEST(Fault, BatchLaneMatchesScalarFaultySimulation) {
  // Lane 1 carries the fault; lane 0 stays golden.  Both must equal the
  // corresponding firing-rule runs net-for-net on every cycle.
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  for (FaultKind fk :
       {FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::StuckUndef,
        FaultKind::TransientFlip, FaultKind::ForcedContention}) {
    FaultSpec spec = *makeFault(g, fk, "top.m", 1, 2);
    BatchSimulation batch(g, 4);
    batch.injectFault(1, spec);
    Simulation golden(g, EvaluatorKind::Firing);
    Simulation faulty(g, EvaluatorKind::Firing);
    faulty.injectFault(spec);
    const Netlist& nl = b.design->netlist;
    for (int cyc = 0; cyc < 4; ++cyc) {
      Logic a = cyc % 2 ? Logic::One : Logic::Zero;
      batch.setInputAll("a", a);
      golden.setInput("a", a);
      faulty.setInput("a", a);
      batch.step();
      golden.step();
      faulty.step();
      for (NetId n = 0; n < nl.netCount(); ++n) {
        ASSERT_EQ(batch.netValue(0, n), golden.netValue(n))
            << nl.net(n).name << " cycle " << cyc;
        ASSERT_EQ(batch.netValue(1, n), faulty.netValue(n))
            << nl.net(n).name << " kind " << faultKindName(fk) << " cycle "
            << cyc;
      }
    }
    // Contention surfaces per lane with the right lane tag.
    if (fk == FaultKind::ForcedContention) {
      ASSERT_FALSE(batch.errors().empty());
      for (const SimError& e : batch.errors()) {
        EXPECT_EQ(e.lane, 1);
        EXPECT_EQ(e.code, Diag::SimContention);
      }
    }
  }
}

TEST(Fault, BatchFaultChangesMidRunTakeEffectNextCycle) {
  // The batch keeps its fault overlay across cycles in which no fault
  // switches on or off; injecting or clearing a fault mid-run must still
  // act on the very next cycle, as it does on a scalar run.
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  const FaultSpec m1 = *makeFault(g, FaultKind::StuckAt1, "top.m");
  const FaultSpec o1 = *makeFault(g, FaultKind::StuckAt1, "top.o");
  BatchSimulation batch(g, 2);
  Simulation faulty(g, EvaluatorKind::Firing);
  const Netlist& nl = b.design->netlist;
  for (int cyc = 0; cyc < 6; ++cyc) {
    if (cyc == 1) {  // m stuck at 1: o reads 0 instead of 1
      batch.injectFault(1, m1);
      faulty.injectFault(m1);
    } else if (cyc == 3) {  // o stuck at 1 on top of it
      batch.injectFault(1, o1);
      faulty.injectFault(o1);
    } else if (cyc == 5) {
      batch.clearFaults();
      faulty.clearFaults();
    }
    batch.setInputAll("a", Logic::One);  // golden: m = 0, o = 1
    faulty.setInput("a", Logic::One);
    batch.step();
    faulty.step();
    for (NetId n = 0; n < nl.netCount(); ++n) {
      ASSERT_EQ(batch.netValue(1, n), faulty.netValue(n))
          << nl.net(n).name << " cycle " << cyc;
    }
  }
}

TEST(Fault, DivergenceProbesSeeExactlyTheFaultyLanes) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  BatchSimulation batch(g, 8);
  batch.injectFault(3, *makeFault(g, FaultKind::StuckAt1, "top.m"));
  batch.injectFault(5, *makeFault(g, FaultKind::StuckAt0, "top.o"));
  // With a = 0 the golden circuit already has m = 1 and o = 0, so both
  // stuck-ats coincide with the fault-free values: nothing diverges.
  batch.setInputAll("a", Logic::Zero);
  batch.step();
  EXPECT_EQ(batch.divergedLanes(), 0u);
  batch.setInputAll("a", Logic::One);  // golden: m = 0, o = 1
  batch.step();
  uint64_t diverged = batch.divergedLanes();
  EXPECT_TRUE(diverged & (uint64_t{1} << 3));
  EXPECT_TRUE(diverged & (uint64_t{1} << 5));
  EXPECT_FALSE(diverged & (uint64_t{1} << 1));
  // laneDiffMask pinpoints the net.
  std::optional<FaultSpec> fo = makeFault(g, FaultKind::StuckAt1, "top.m");
  ASSERT_TRUE(fo.has_value());
  EXPECT_TRUE(batch.laneDiffMask(g.rootOf[fo->denseNet]) &
              (uint64_t{1} << 3));
}

TEST(Fault, DefaultUniverseCoversEveryDenseNetTwice) {
  Built b = buildOk(kNotChain, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  std::vector<FaultSpec> u = defaultFaultUniverse(g);
  EXPECT_EQ(u.size(), 2 * g.denseCount);
  for (size_t i = 0; i + 1 < u.size(); i += 2) {
    EXPECT_EQ(u[i].kind, FaultKind::StuckAt0);
    EXPECT_EQ(u[i + 1].kind, FaultKind::StuckAt1);
    EXPECT_EQ(u[i].denseNet, u[i + 1].denseNet);
  }
}

TEST(Fault, CampaignOnAddersDetectsAndClassifies) {
  Built b = buildOk(std::string(kAdders) + "SIGNAL adder: rippleCarry(8);\n",
                    "adder");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  FaultCampaignOptions opts;
  opts.cycles = 8;
  FaultCampaignReport r = runFaultCampaign(g, opts);
  EXPECT_EQ(r.faults.size(), 2 * g.denseCount);
  EXPECT_FALSE(r.interrupted);
  uint64_t det = r.countOf(FaultOutcome::Status::Detected);
  uint64_t mask = r.countOf(FaultOutcome::Status::Masked);
  uint64_t undet = r.countOf(FaultOutcome::Status::Undetected);
  EXPECT_EQ(det + mask + undet, r.faults.size());
  // The acceptance bar: at least one detected and one undetected stuck-at
  // (CLK stuck-at-1 can never diverge from the golden always-1 clock).
  EXPECT_GE(det, 1u);
  EXPECT_GE(undet, 1u);
  EXPECT_GT(r.coverage(), 0.0);
  EXPECT_LE(r.coverage(), 1.0);
  for (const FaultOutcome& f : r.faults) {
    if (f.status == FaultOutcome::Status::Detected) {
      EXPECT_FALSE(f.detector.empty()) << f.net;
      EXPECT_LT(f.firstDetectCycle, opts.cycles) << f.net;
    } else {
      EXPECT_TRUE(f.detector.empty()) << f.net;
    }
  }
  std::string json = r.renderJson();
  EXPECT_NE(json.find("\"zeus-faults\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"detectors\""), std::string::npos);
}

TEST(Fault, CampaignIsDeterministicAndResumable) {
  Built b = buildOk(std::string(kAdders) + "SIGNAL adder: rippleCarry(8);\n",
                    "adder");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  FaultCampaignOptions opts;
  opts.cycles = 6;
  opts.lanes = 16;  // many batches, so the checkpoint lands mid-sweep
  opts.checkpointEveryBatches = 1;
  CampaignProgress atBatch2;
  opts.onCheckpoint = [&](const CampaignProgress& p) {
    if (p.nextFault <= 2 * (opts.lanes - 1)) atBatch2 = p;
  };
  FaultCampaignReport straight = runFaultCampaign(g, opts);
  ASSERT_GT(atBatch2.totalFaults, 0u);
  ASSERT_LT(atBatch2.nextFault, atBatch2.totalFaults);

  FaultCampaignOptions resumeOpts;
  resumeOpts.cycles = opts.cycles;
  resumeOpts.lanes = opts.lanes;
  FaultCampaignReport resumed = runFaultCampaign(g, resumeOpts, &atBatch2);
  EXPECT_EQ(straight.renderJson(), resumed.renderJson());

  // Mismatched parameters must be rejected, not silently mis-resumed.
  resumeOpts.cycles = opts.cycles + 1;
  EXPECT_THROW((void)runFaultCampaign(g, resumeOpts, &atBatch2),
               std::invalid_argument);
}

TEST(Fault, CampaignWallClockBudgetInterruptsAtBatchBoundary) {
  Built b = buildOk(std::string(kAdders) + "SIGNAL adder: rippleCarry(8);\n",
                    "adder");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  FaultCampaignOptions opts;
  opts.cycles = 6;
  opts.lanes = 4;
  opts.maxMillis = 1;  // trips almost immediately
  bool checkpointed = false;
  CampaignProgress last;
  opts.onCheckpoint = [&](const CampaignProgress& p) {
    checkpointed = true;
    last = p;
  };
  FaultCampaignReport r = runFaultCampaign(g, opts);
  if (r.interrupted) {
    // The checkpoint hook fired before the early return, and resuming
    // from it completes the sweep with the straight-run classifications.
    EXPECT_TRUE(checkpointed);
    FaultCampaignOptions rest;
    rest.cycles = opts.cycles;
    rest.lanes = opts.lanes;
    FaultCampaignReport full = runFaultCampaign(g, rest, &last);
    FaultCampaignOptions straightOpts;
    straightOpts.cycles = opts.cycles;
    straightOpts.lanes = opts.lanes;
    FaultCampaignReport straight = runFaultCampaign(g, straightOpts);
    EXPECT_EQ(full.renderJson(), straight.renderJson());
  } else {
    // Machine fast enough to finish inside 1ms: nothing to assert beyond
    // a complete classification.
    EXPECT_EQ(r.faults.size(), 2 * g.denseCount);
  }
}

}  // namespace
}  // namespace zeus::test
