// Versioned binary checkpoints (src/sim/snapshot.h): byte-exact
// roundtrips, atomic file saves, the design content hash guarding
// restores, and defensive decoding of truncated / corrupt / mismatched
// snapshot files.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "src/sim/snapshot.h"
#include "tests/support/paper_examples.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

const char* kContender = R"(
TYPE t = COMPONENT (IN a, b: boolean; OUT o: boolean) IS
  SIGNAL m: multiplex;
  SIGNAL r: REG;
BEGIN
  IF a THEN m := 1 END;
  IF b THEN m := 0 END;
  r.in := m;
  o := r.out
END;
SIGNAL top: t;
)";

SimSnapshot sampleSnapshot(const SimGraph& g) {
  Simulation sim(g, EvaluatorKind::Firing);
  sim.setInput("a", Logic::One);
  sim.setInput("b", Logic::One);  // contention -> SimErrors accumulate
  sim.step(3);
  sim.setInput("b", Logic::Zero);
  return sim.saveSnapshot();
}

TEST(Snapshot, BytesRoundtripExactly) {
  Built b = buildOk(kContender, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  SimSnapshot snap = sampleSnapshot(g);
  ASSERT_FALSE(snap.errors.empty());
  EXPECT_EQ(snap.cycle, 3u);
  EXPECT_NE(snap.designHash, 0u);

  std::vector<uint8_t> bytes = snapshotToBytes(snap);
  SimSnapshot back;
  std::string err;
  ASSERT_TRUE(snapshotFromBytes(bytes.data(), bytes.size(), back, err))
      << err;
  EXPECT_EQ(back.designHash, snap.designHash);
  EXPECT_EQ(back.cycle, snap.cycle);
  EXPECT_EQ(back.rngState, snap.rngState);
  EXPECT_TRUE(back.stats == snap.stats);
  EXPECT_EQ(back.regValues, snap.regValues);
  EXPECT_EQ(back.inputValues, snap.inputValues);
  EXPECT_EQ(back.inputSet, snap.inputSet);
  EXPECT_EQ(back.errors, snap.errors);

  SnapshotKind kind;
  ASSERT_TRUE(snapshotKindOfBytes(bytes.data(), bytes.size(), kind, err));
  EXPECT_EQ(kind, SnapshotKind::SimState);
}

TEST(Snapshot, EveryTruncationFailsCleanly) {
  Built b = buildOk(kContender, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  std::vector<uint8_t> bytes = snapshotToBytes(sampleSnapshot(g));
  for (size_t len = 0; len < bytes.size(); ++len) {
    SimSnapshot out;
    std::string err;
    EXPECT_FALSE(snapshotFromBytes(bytes.data(), len, out, err))
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(err.empty());
  }
}

TEST(Snapshot, CorruptHeadersAreRejected) {
  Built b = buildOk(kContender, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  std::vector<uint8_t> good = snapshotToBytes(sampleSnapshot(g));
  SimSnapshot out;
  std::string err;

  std::vector<uint8_t> badMagic = good;
  badMagic[0] ^= 0xFF;
  EXPECT_FALSE(snapshotFromBytes(badMagic.data(), badMagic.size(), out, err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;

  std::vector<uint8_t> badVersion = good;
  badVersion[4] = 99;
  EXPECT_FALSE(
      snapshotFromBytes(badVersion.data(), badVersion.size(), out, err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;

  // A campaign checkpoint must not decode as a sim snapshot.
  std::vector<uint8_t> wrongKind = good;
  wrongKind[8] = 1;
  EXPECT_FALSE(
      snapshotFromBytes(wrongKind.data(), wrongKind.size(), out, err));

  // Huge element counts are rejected by the byte-budget check before any
  // allocation happens (no OOM on adversarial input).  The regValues
  // count sits right after the 17-byte header, cycle, rngState and the
  // eight stats words: bytes 97..104.
  std::vector<uint8_t> hugeCount = good;
  for (size_t i = 97; i < 105 && i < hugeCount.size(); ++i) {
    hugeCount[i] = 0xFF;
  }
  EXPECT_FALSE(
      snapshotFromBytes(hugeCount.data(), hugeCount.size(), out, err));
}

TEST(Snapshot, FileSaveLoadAndAtomicity) {
  Built b = buildOk(kContender, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  SimSnapshot snap = sampleSnapshot(g);
  std::string path = testing::TempDir() + "zeus_snapshot_test.snap";
  std::string err;
  ASSERT_TRUE(saveSnapshotFile(path, snap, err)) << err;
  // The .tmp staging file was renamed away, not left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  SimSnapshot back;
  ASSERT_TRUE(loadSnapshotFile(path, back, err)) << err;
  EXPECT_EQ(back.errors, snap.errors);
  EXPECT_FALSE(loadSnapshotFile(path + ".missing", back, err));
  std::remove(path.c_str());
}

TEST(Snapshot, DesignHashGuardsRestore) {
  Built b1 = buildOk(kContender, "top");
  SimGraph g1 = buildSimGraph(*b1.design, b1.comp->diags());
  Built b2 = buildOk(std::string(kAdders) + "SIGNAL adder: rippleCarry(4);\n",
                     "adder");
  SimGraph g2 = buildSimGraph(*b2.design, b2.comp->diags());
  EXPECT_NE(designContentHash(*b1.design), designContentHash(*b2.design));

  SimSnapshot snap = sampleSnapshot(g1);
  Simulation other(g2);
  EXPECT_THROW(other.restoreSnapshot(snap), std::invalid_argument);
  BatchSimulation batch(g2, 2);
  EXPECT_THROW(batch.restoreSnapshot(1, snap), std::invalid_argument);
  // A zero hash means "unchecked" (hand-built snapshots).
  Simulation same(g1);
  snap.designHash = 0;
  same.restoreSnapshot(snap);
  EXPECT_EQ(same.cycle(), snap.cycle);
}

// Checkpoints depend on the optimization level: Design::optFingerprint is
// folded into the content hash at -O1, so a snapshot taken from an
// unoptimized simulation must not restore into an optimized one (nor the
// reverse) — the dense state layouts differ even for the same source.
TEST(Snapshot, OptimizationLevelGuardsRestore) {
  Built b0 = buildOk(kContender, "top");
  SimGraph g0 = buildSimGraph(*b0.design, b0.comp->diags());
  Built b1 = buildOk(kContender, "top");
  OptReport rep = b1.comp->optimize(*b1.design);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  ASSERT_NE(b1.design->optFingerprint, 0u);
  SimGraph g1 = buildSimGraph(*b1.design, b1.comp->diags());
  EXPECT_NE(designContentHash(*b0.design), designContentHash(*b1.design));

  // -O0 snapshot into -O1 simulation: rejected, scalar and batch alike.
  SimSnapshot snap0 = sampleSnapshot(g0);
  Simulation opt(g1);
  EXPECT_THROW(opt.restoreSnapshot(snap0), std::invalid_argument);
  BatchSimulation batch(g1, 2);
  EXPECT_THROW(batch.restoreSnapshot(1, snap0), std::invalid_argument);

  // -O1 snapshot into -O0 simulation: same rejection.
  SimSnapshot snap1 = sampleSnapshot(g1);
  Simulation plain(g0);
  EXPECT_THROW(plain.restoreSnapshot(snap1), std::invalid_argument);

  // Matching levels keep round-tripping.
  Simulation same(g1);
  same.restoreSnapshot(snap1);
  EXPECT_EQ(same.cycle(), snap1.cycle);
}

/// RANDOM draws, a REG trajectory and input-dependent contention: the
/// state a resumed run must carry across a serialized snapshot.
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

/// Cycle c's (en, a, b) inputs, a fixed pseudo-random pattern.
Logic resumableInput(int c, int bit) {
  return logicFromBool(((c * 0x9E3779B9u) >> (7 + bit)) & 1);
}

void driveResumable(Simulation& sim, int c) {
  sim.setInput("en", resumableInput(c, 0));
  sim.setInput("a", resumableInput(c, 1));
  sim.setInput("b", resumableInput(c, 2));
  sim.step();
}

SimSnapshot throughBytes(const SimSnapshot& snap) {
  std::vector<uint8_t> bytes = snapshotToBytes(snap);
  SimSnapshot back;
  std::string err;
  EXPECT_TRUE(snapshotFromBytes(bytes.data(), bytes.size(), back, err))
      << err;
  return back;
}

// The content hash of every corpus entry at -O0 and -O1, pinned: a
// checkpoint written by an earlier build must keep restoring, so a change
// to how the netlist stores its nets and nodes may not move these values.
TEST(Snapshot, DesignHashIsPinnedOnTheCorpus) {
  const std::map<std::string, std::array<uint64_t, 2>> want = {
      {"adders", {0xa257c6c753b8fca9ull, 0x44601c5f4d4a8a3bull}},
      {"mux4", {0xb383a67579a3eb8bull, 0x41bf6f45d7e20982ull}},
      {"blackjack", {0xc33fdf451fabec0full, 0x8296facdb529d83bull}},
      {"tree-iterative", {0x1e212e151610865aull, 0xcbeb344e8c53ec56ull}},
      {"tree-recursive", {0x475d2e3fd56c6597ull, 0x625fb1ce41497da9ull}},
      {"htree", {0x5007a0becfbeab66ull, 0x961ea2aef7ba7c89ull}},
      {"routing", {0xad233262f89dd5e7ull, 0xb5eda50e69738f0full}},
      {"ram", {0x7ef200791dd46316ull, 0x773a852ec50c3c19ull}},
      {"patternmatch", {0xe474dd5cd0929767ull, 0x7bddb044b24e6eb4ull}},
      {"am2901", {0x8c96c76ec9e1d282ull, 0xe701dcdf1b40a66dull}},
      {"systolic-stack", {0xd7cf367797447a2eull, 0x592cb09e405478a6ull}},
      {"dictionary", {0x2fdd4ef74a46daedull, 0xd3167627b66092b9ull}},
      {"snake", {0x78d4d4c6e19bd735ull, 0x161a4154205f7351ull}},
      {"sorter", {0xd07e06da64cd349dull, 0xea6ff9baeb987b71ull}},
      {"matvec", {0x47f146cda863119full, 0x2d75995737b1e724ull}},
      {"chessboard", {0xcdf1320ac3f9bb89ull, 0x899dcffedb83bc3aull}},
  };
  ASSERT_EQ(want.size(), corpus::all().size());
  for (const corpus::CorpusEntry& e : corpus::all()) {
    for (int level : {0, 1}) {
      std::string top;
      Built b = buildOk(corpusSource(e, &top), top);
      ASSERT_NE(b.design, nullptr) << e.name;
      OptOptions opts;
      opts.level = level;
      (void)b.comp->optimize(*b.design, opts);
      EXPECT_EQ(designContentHash(*b.design), want.at(e.name)[level])
          << e.name << " -O" << level;
    }
  }
}

// A mid-run snapshot that goes through its ZSNP byte form resumes
// bit-identically: registers, RANDOM stream position, SimErrors and
// evaluator counters, from a scalar run and from a batch lane alike.  The
// scalar runs use the firing evaluator, so the batch half is checked
// against an engine that shares no code with the batch kernel.
TEST(Snapshot, SerializedResumeIsBitIdentical) {
  constexpr int kCycles = 24;
  constexpr int kStopAt = 10;
  constexpr uint64_t kSeed = 0xABCDEF;
  Built b = buildOk(kResumable, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);

  Simulation straight(g, EvaluatorKind::Firing);
  straight.setRandomSeed(kSeed);
  for (int c = 0; c < kCycles; ++c) driveResumable(straight, c);
  ASSERT_FALSE(straight.errors().empty()) << "stimulus never contended";

  // Scalar -> ZSNP bytes -> scalar.
  Simulation first(g, EvaluatorKind::Firing);
  first.setRandomSeed(kSeed);
  for (int c = 0; c < kStopAt; ++c) driveResumable(first, c);
  Simulation resumed(g, EvaluatorKind::Firing);
  resumed.restoreSnapshot(throughBytes(first.saveSnapshot()));
  for (int c = kStopAt; c < kCycles; ++c) driveResumable(resumed, c);
  EXPECT_EQ(resumed.cycle(), straight.cycle());
  EXPECT_EQ(resumed.errors(), straight.errors());
  EXPECT_EQ(resumed.randomState(), straight.randomState());
  EXPECT_EQ(resumed.saveRegisters(), straight.saveRegisters());
  EXPECT_TRUE(resumed.stats() == straight.stats())
      << "evaluator counters diverged across the byte form";

  // Batch lane -> ZSNP bytes -> scalar.
  BatchSimulation batch(g, 4);
  for (size_t l = 0; l < batch.lanes(); ++l) batch.setRandomSeed(l, kSeed);
  for (int c = 0; c < kStopAt; ++c) {
    for (size_t l = 0; l < batch.lanes(); ++l) {
      batch.setInput(l, "en", resumableInput(c, 0));
      batch.setInput(l, "a", resumableInput(c, 1));
      batch.setInput(l, "b", resumableInput(c, 2));
    }
    batch.step();
  }
  Simulation cont(g, EvaluatorKind::Firing);
  cont.restoreSnapshot(throughBytes(batch.saveSnapshot(2)));
  for (int c = kStopAt; c < kCycles; ++c) driveResumable(cont, c);
  EXPECT_EQ(cont.cycle(), straight.cycle());
  EXPECT_EQ(cont.randomState(), straight.randomState());
  EXPECT_EQ(cont.saveRegisters(), straight.saveRegisters());
}

// A snapshot carries no net values: a restored simulator reads UNDEF on
// its outputs until its first step, on both facades, and from that step
// on it matches the run that never stopped.
TEST(Snapshot, RestoredSimulatorReadsUndefUntilItsFirstStep) {
  constexpr int kCycles = 16;
  constexpr int kStopAt = 8;
  constexpr uint64_t kSeed = 0xABCDEF;
  Built b = buildOk(kResumable, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);

  Simulation straight(g, EvaluatorKind::Firing);
  straight.setRandomSeed(kSeed);
  for (int c = 0; c < kStopAt; ++c) driveResumable(straight, c);
  const SimSnapshot snap = straight.saveSnapshot();
  ASSERT_TRUE(straight.output("o") != Logic::Undef ||
              straight.output("q") != Logic::Undef)
      << "no defined output to lose";

  Simulation resumed(g, EvaluatorKind::Levelized);
  resumed.restoreSnapshot(snap);
  BatchSimulation batch(g, 2);
  batch.restoreSnapshot(0, snap);
  batch.restoreSnapshot(1, snap);
  for (const char* port : {"o", "q"}) {
    EXPECT_EQ(resumed.output(port), Logic::Undef) << port;
    for (size_t l = 0; l < batch.lanes(); ++l) {
      EXPECT_EQ(batch.output(l, port), Logic::Undef) << port << " lane " << l;
    }
  }

  for (int c = kStopAt; c < kCycles; ++c) {
    driveResumable(straight, c);
    driveResumable(resumed, c);
    for (size_t l = 0; l < batch.lanes(); ++l) {
      batch.setInput(l, "en", resumableInput(c, 0));
      batch.setInput(l, "a", resumableInput(c, 1));
      batch.setInput(l, "b", resumableInput(c, 2));
    }
    batch.step();
    for (const char* port : {"o", "q"}) {
      EXPECT_EQ(resumed.output(port), straight.output(port))
          << port << " cycle " << c;
      for (size_t l = 0; l < batch.lanes(); ++l) {
        EXPECT_EQ(batch.output(l, port), straight.output(port))
            << port << " cycle " << c << " lane " << l;
      }
    }
  }
  EXPECT_EQ(resumed.saveRegisters(), straight.saveRegisters());
  EXPECT_EQ(batch.saveRegisters(1), straight.saveRegisters());
}

TEST(Snapshot, CampaignProgressRoundtrip) {
  CampaignProgress p;
  p.designHash = 0xDEADBEEFu;
  p.cycles = 12;
  p.seed = 99;
  p.lanes = 16;
  p.totalFaults = 3;
  p.nextFault = 2;
  FaultOutcome a;
  a.spec.kind = FaultKind::StuckAt1;
  a.spec.denseNet = 7;
  a.net = "top.m";
  a.status = FaultOutcome::Status::Detected;
  a.firstDetectCycle = 4;
  a.detector = "o[2]";
  a.simErrors = 1;
  FaultOutcome u;
  u.spec.kind = FaultKind::ForcedContention;
  u.net = "CLK";
  p.done = {a, u};

  std::vector<uint8_t> bytes = campaignToBytes(p);
  SnapshotKind kind;
  std::string err;
  ASSERT_TRUE(snapshotKindOfBytes(bytes.data(), bytes.size(), kind, err));
  EXPECT_EQ(kind, SnapshotKind::CampaignProgress);

  CampaignProgress back;
  ASSERT_TRUE(campaignFromBytes(bytes.data(), bytes.size(), back, err))
      << err;
  EXPECT_EQ(back.designHash, p.designHash);
  EXPECT_EQ(back.cycles, p.cycles);
  EXPECT_EQ(back.seed, p.seed);
  EXPECT_EQ(back.lanes, p.lanes);
  EXPECT_EQ(back.totalFaults, p.totalFaults);
  EXPECT_EQ(back.nextFault, p.nextFault);
  ASSERT_EQ(back.done.size(), 2u);
  EXPECT_EQ(back.done[0].net, "top.m");
  EXPECT_EQ(back.done[0].status, FaultOutcome::Status::Detected);
  EXPECT_EQ(back.done[0].firstDetectCycle, 4u);
  EXPECT_EQ(back.done[0].detector, "o[2]");
  EXPECT_EQ(back.done[1].spec.kind, FaultKind::ForcedContention);

  for (size_t len = 0; len < bytes.size(); ++len) {
    CampaignProgress out;
    EXPECT_FALSE(campaignFromBytes(bytes.data(), len, out, err));
  }
  // Internal consistency: done-count must match nextFault.
  p.nextFault = 1;
  std::vector<uint8_t> lying = campaignToBytes(p);
  CampaignProgress out;
  EXPECT_FALSE(campaignFromBytes(lying.data(), lying.size(), out, err));
}

}  // namespace
}  // namespace zeus::test
