// Property tests on randomly generated Zeus programs.
//
// FiringMatchesNaive: the firing evaluator (event-driven, short-circuit)
// and the naive fixpoint evaluator produce bit-identical results across
// many cycles and random inputs.
//
// LevelizedMatchesFiring: the generative differential gate of the
// levelized kernel.  Every program runs at -O0 and -O1 under Firing (the
// §8 oracle), under scalar Levelized and on a 64-lane BatchSimulation
// whose lanes all see different stimulus and RANDOM seeds; every net
// value, the SimError keys, the RANDOM stream positions and the counters
// the engines share must agree on every cycle.  The generator reaches
// what the kernel's tape fuses and resolves: multiplexes without an ELSE
// (NOINFL into IF switches, buffers, gates and REG inputs), two IFs
// driving one multiplex (real contention), RANDOM, buffer chains
// through non-boolean nets, and constants.  One lane's Firing and
// Levelized simulators are also checkpointed after a random cycle, and
// fresh simulators of the other kind resume from the serialized bytes:
// they must finish the run exactly as the uninterrupted ones do.
//
// The generator builds legal programs by construction: locals are only
// defined from already-available signals, so no combinational loops occur;
// conditional assignments target multiplex signals or register inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <tuple>

#include "src/sim/snapshot.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

struct RandomProgram {
  std::string source;
  int numInputs;
  int numOutputs;
};

/// `wide` adds the shapes the levelized kernel treats specially (see the
/// file comment); without it the generator makes the programs
/// FiringMatchesNaive has always run.
RandomProgram generate(uint64_t seed, int size, bool wide = false) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };

  const int numInputs = 2 + pick(4);
  std::ostringstream os;
  os << "TYPE t = COMPONENT (IN ";
  for (int i = 0; i < numInputs; ++i) {
    if (i) os << ",";
    os << "i" << i;
  }
  os << ": boolean; OUT o0, o1: boolean) IS\n";

  // Available signal expressions (always defined single-bit reads).
  std::vector<std::string> avail;
  for (int i = 0; i < numInputs; ++i) avail.push_back("i" + std::to_string(i));

  std::ostringstream decls;
  std::ostringstream body;
  int locals = 0, regs = 0, muxes = 0;
  auto any = [&]() { return avail[pick(static_cast<int>(avail.size()))]; };
  auto freshMux = [&]() {
    std::string name = "m" + std::to_string(muxes++);
    decls << "SIGNAL " << name << ": multiplex;\n";
    avail.push_back(name);
    return name;
  };

  for (int step = 0; step < size; ++step) {
    switch (pick(wide ? 10 : 5)) {
      case 0: {  // gate into a fresh local
        std::string name = "w" + std::to_string(locals++);
        decls << "SIGNAL " << name << ": boolean;\n";
        const char* ops[] = {"AND", "OR", "NAND", "NOR", "XOR", "EQUAL"};
        const char* op = ops[pick(6)];
        body << name << " := " << op << "(" << any() << "," << any()
             << ");\n";
        avail.push_back(name);
        break;
      }
      case 1: {  // NOT
        std::string name = "w" + std::to_string(locals++);
        decls << "SIGNAL " << name << ": boolean;\n";
        body << name << " := NOT " << any() << ";\n";
        avail.push_back(name);
        break;
      }
      case 2: {  // register
        std::string name = "r" + std::to_string(regs++);
        decls << "SIGNAL " << name << ": REG;\n";
        body << name << ".in := " << any() << ";\n";
        avail.push_back(name + ".out");
        break;
      }
      case 3: {  // conditionally driven multiplex with else branch
        std::string c = any(), x = any(), y = any();
        std::string name = freshMux();
        body << "IF " << c << " THEN " << name << " := " << x << " ELSE "
             << name << " := " << y << " END;\n";
        break;
      }
      case 4: {  // conditionally loaded register (keeps value otherwise)
        std::string name = "r" + std::to_string(regs++);
        decls << "SIGNAL " << name << ": REG;\n";
        body << "IF " << any() << " THEN " << name << ".in := " << any()
             << " END;\n";
        avail.push_back(name + ".out");
        break;
      }
      case 5: {  // multiplex without ELSE: NOINFL while the condition is 0
        std::string c = any(), x = any();
        std::string name = freshMux();
        body << "IF " << c << " THEN " << name << " := " << x << " END;\n";
        break;
      }
      case 6: {  // two IFs driving one multiplex: contention when both fire
        std::string c1 = any(), x = any(), c2 = any(), y = any();
        std::string name = freshMux();
        body << "IF " << c1 << " THEN " << name << " := " << x << " END;\n"
             << "IF " << c2 << " THEN " << name << " := " << y << " END;\n";
        break;
      }
      case 7: {  // RANDOM, into a gate so the draw is observable
        std::string name = "w" + std::to_string(locals++);
        decls << "SIGNAL " << name << ": boolean;\n";
        body << name << " := XOR(" << any() << ", RANDOM());\n";
        avail.push_back(name);
        break;
      }
      case 8: {  // buffer chain: input -> multiplex -> boolean
        // The multiplex buffer passes NOINFL (a cleared input), the
        // boolean one reads it as UNDEF.
        std::string x = "i" + std::to_string(pick(numInputs));
        std::string name = freshMux();
        std::string w = "w" + std::to_string(locals++);
        decls << "SIGNAL " << w << ": boolean;\n";
        body << name << " := " << x << ";\n" << w << " := " << name
             << ";\n";
        avail.push_back(w);
        break;
      }
      case 9: {  // a constant into an IF switch
        std::string c = any(), x = any();
        std::string name = freshMux();
        body << "IF " << c << " THEN " << name << " := " << pick(2)
             << " ELSE " << name << " := " << x << " END;\n";
        break;
      }
    }
  }
  body << "o0 := " << any() << ";\n";
  body << "o1 := " << any() << ";\n";

  os << decls.str() << "BEGIN\n" << body.str() << "END;\nSIGNAL top: t;\n";
  return {os.str(), numInputs, 2};
}

class EvaluatorEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorEquivalence, FiringMatchesNaive) {
  const uint64_t seed = GetParam();
  RandomProgram prog = generate(seed, 30);
  Built b = buildOk(prog.source, "top");
  ASSERT_NE(b.design, nullptr) << prog.source;
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);

  Simulation fire(g, EvaluatorKind::Firing);
  Simulation naive(g, EvaluatorKind::Naive);
  std::mt19937_64 rng(seed ^ 0xABCDEF);
  for (int cyc = 0; cyc < 20; ++cyc) {
    for (int i = 0; i < prog.numInputs; ++i) {
      // Mix defined and undefined inputs.
      int v = static_cast<int>(rng() % 3);
      Logic l = v == 0 ? Logic::Zero : v == 1 ? Logic::One : Logic::Undef;
      fire.setInput("i" + std::to_string(i), l);
      naive.setInput("i" + std::to_string(i), l);
    }
    fire.step();
    naive.step();
    ASSERT_EQ(fire.output("o0"), naive.output("o0"))
        << "cycle " << cyc << " seed " << seed << "\n" << prog.source;
    ASSERT_EQ(fire.output("o1"), naive.output("o1"))
        << "cycle " << cyc << " seed " << seed;
    // Every net of the design must agree, not just the outputs.
    for (NetId n = 0; n < b.design->netlist.netCount(); n += 7) {
      ASSERT_EQ(fire.netValue(n), naive.netValue(n))
          << "net " << b.design->netlist.net(n).name << " cycle " << cyc
          << " seed " << seed;
    }
  }
  EXPECT_EQ(fire.errors().size(), naive.errors().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorEquivalence,
                         ::testing::Range<uint64_t>(1, 26));

/// (cycle, lane, net, code) of every SimError, in canonical order: the
/// firing evaluator finds collisions in event order, the kernel in
/// schedule order, and the batch facade sorts each cycle by lane and net.
using ErrorKey = std::tuple<uint64_t, int32_t, std::string, Diag>;
std::vector<ErrorKey> errorKeys(const std::vector<SimError>& errs,
                                int32_t lane) {
  std::vector<ErrorKey> keys;
  for (const SimError& e : errs) {
    keys.emplace_back(e.cycle, lane < 0 ? e.lane : lane, e.netName, e.code);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class LevelizedEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LevelizedEquivalence, LevelizedMatchesFiring) {
  constexpr size_t kLanes = BatchSimulation::kMaxLanes;
  constexpr int kCycles = 12;
  const uint64_t seed = GetParam();
  const RandomProgram prog = generate(seed, 30, /*wide=*/true);
  for (int level : {0, 1}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " -O" +
                 std::to_string(level) + "\n" + prog.source);
    Built b = buildOk(prog.source, "top");
    ASSERT_NE(b.design, nullptr);
    OptOptions opts;
    opts.level = level;
    OptReport rep = b.comp->optimize(*b.design, opts);
    ASSERT_TRUE(rep.graph);
    const SimGraph& g = *rep.graph;

    // Lane L of the batch, firing[L] and levelized[L] see one stimulus
    // stream and one RANDOM seed; no two lanes share either.
    BatchSimulation batch(g, kLanes);
    std::vector<Simulation> firing, levelized;
    firing.reserve(kLanes);
    levelized.reserve(kLanes);
    for (size_t l = 0; l < kLanes; ++l) {
      firing.emplace_back(g, EvaluatorKind::Firing);
      levelized.emplace_back(g, EvaluatorKind::Levelized);
      const uint64_t rs = seed * 1000 + l + 1;
      firing[l].setRandomSeed(rs);
      levelized[l].setRandomSeed(rs);
      batch.setRandomSeed(l, rs);
    }
    std::vector<PortHandle> inputs;
    for (int i = 0; i < prog.numInputs; ++i) {
      inputs.push_back(g.port("i" + std::to_string(i)));
    }
    // Lane rl is checkpointed after cycle `cut`; resumed[0] is a fresh
    // Levelized simulator restored from Firing's snapshot, resumed[1] a
    // fresh Firing one restored from Levelized's.
    const size_t rl = seed % kLanes;
    const int cut = static_cast<int>(seed % (kCycles - 1));
    std::vector<Simulation> resumed;
    auto resume = [&](const Simulation& from, EvaluatorKind kind) {
      const std::vector<uint8_t> bytes = snapshotToBytes(from.saveSnapshot());
      SimSnapshot snap;
      std::string err;
      ASSERT_TRUE(snapshotFromBytes(bytes.data(), bytes.size(), snap, err))
          << err;
      resumed.emplace_back(g, kind);
      resumed.back().restoreSnapshot(snap);
    };
    std::mt19937_64 rng(seed ^ 0x5EED);
    for (int cyc = 0; cyc < kCycles; ++cyc) {
      for (size_t l = 0; l < kLanes; ++l) {
        for (PortHandle in : inputs) {
          // 0, 1, UNDEF, or cleared (NOINFL) now and then.
          const uint64_t r = rng() % 7;
          if (r == 6) {
            firing[l].clearInput(in);
            levelized[l].clearInput(in);
            batch.clearInput(l, in);
            if (l == rl) {
              for (Simulation& s : resumed) s.clearInput(in);
            }
            continue;
          }
          const Logic v = r < 3 ? Logic::Zero : r < 5 ? Logic::One
                                                      : Logic::Undef;
          firing[l].setInput(in, v);
          levelized[l].setInput(in, v);
          batch.setInput(l, in, v);
          if (l == rl) {
            for (Simulation& s : resumed) s.setInput(in, v);
          }
        }
        firing[l].step();
        levelized[l].step();
      }
      batch.step();
      for (Simulation& s : resumed) s.step();

      for (size_t d = 0; d < g.denseCount; ++d) {
        const NetId n = g.rootOf[d];
        const LanePlanes planes = batch.lanePlanes(n);
        for (size_t l = 0; l < kLanes; ++l) {
          const Logic want = firing[l].netValue(n);
          ASSERT_EQ(want, levelized[l].netValue(n))
              << "net " << b.design->netlist.net(n).name << " lane " << l
              << " cycle " << cyc;
          ASSERT_EQ(want, laneValue(planes, static_cast<uint32_t>(l)))
              << "net " << b.design->netlist.net(n).name << " batch lane "
              << l << " cycle " << cyc;
        }
      }
      for (size_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(firing[l].randomState(), levelized[l].randomState())
            << "lane " << l << " cycle " << cyc;
        ASSERT_EQ(firing[l].randomState(), batch.randomState(l))
            << "lane " << l << " cycle " << cyc;
      }
      for (const Simulation& s : resumed) {
        ASSERT_EQ(s.cycle(), firing[rl].cycle());
        ASSERT_EQ(s.randomState(), firing[rl].randomState())
            << "resumed, cycle " << cyc;
        for (size_t d = 0; d < g.denseCount; ++d) {
          const NetId n = g.rootOf[d];
          ASSERT_EQ(s.netValue(n), firing[rl].netValue(n))
              << "resumed, net " << b.design->netlist.net(n).name
              << " cycle " << cyc;
        }
      }
      if (cyc == cut) {
        resume(firing[rl], EvaluatorKind::Levelized);
        resume(levelized[rl], EvaluatorKind::Firing);
      }
    }
    ASSERT_EQ(resumed.size(), 2u);
    const auto rlane = static_cast<int32_t>(rl);
    for (const Simulation& s : resumed) {
      EXPECT_EQ(errorKeys(s.errors(), rlane),
                errorKeys(firing[rl].errors(), rlane));
    }

    std::vector<ErrorKey> want, gotBatch = errorKeys(batch.errors(), -1);
    for (size_t l = 0; l < kLanes; ++l) {
      const auto lane = static_cast<int32_t>(l);
      std::vector<ErrorKey> fire = errorKeys(firing[l].errors(), lane);
      EXPECT_EQ(fire, errorKeys(levelized[l].errors(), lane)) << "lane " << l;
      want.insert(want.end(), fire.begin(), fire.end());
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(want, gotBatch);
    EXPECT_EQ(gotBatch, errorKeys(batch.errors(), -1));  // already canonical

    // The counters every engine shares: one firing of every node and one
    // resolution of every net per cycle.
    const EvalStats& ref = firing[0].stats();
    for (const EvalStats* got : {&levelized[0].stats(), &batch.stats()}) {
      EXPECT_EQ(got->nodeFirings, ref.nodeFirings);
      EXPECT_EQ(got->netResolutions, ref.netResolutions);
      EXPECT_EQ(got->contentionChecks, ref.contentionChecks);
      EXPECT_EQ(got->epochResets, ref.epochResets);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelizedEquivalence,
                         ::testing::Range<uint64_t>(1, 101));

TEST(EvaluatorProperty, FiringDoesLessWorkOnDeepCircuits) {
  // A deep AND chain where input 0 kills everything: the firing evaluator
  // short-circuits, the naive evaluator sweeps to the full depth.
  std::ostringstream os;
  os << "TYPE t = COMPONENT (IN a, b: boolean; OUT o: boolean) IS\n";
  const int kDepth = 64;
  for (int i = 0; i < kDepth; ++i)
    os << "SIGNAL w" << i << ": boolean;\n";
  os << "BEGIN\n";
  os << "w0 := AND(a, b);\n";
  for (int i = 1; i < kDepth; ++i)
    os << "w" << i << " := AND(w" << (i - 1) << ", b);\n";
  os << "o := w" << (kDepth - 1) << ";\nEND;\nSIGNAL top: t;\n";

  Built b = buildOk(os.str(), "top");
  ASSERT_NE(b.design, nullptr);
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation fire(g, EvaluatorKind::Firing);
  Simulation naive(g, EvaluatorKind::Naive);
  for (Simulation* s : {&fire, &naive}) {
    s->setInput("a", Logic::Zero);
    s->setInput("b", Logic::One);
    s->step();
    EXPECT_EQ(s->output("o"), Logic::Zero);
  }
  // Naive pays one full sweep per level of depth.
  EXPECT_GT(naive.stats().sweeps, static_cast<uint64_t>(kDepth / 2));
  EXPECT_EQ(fire.stats().sweeps, 0u);
  EXPECT_LT(fire.stats().nodeFirings, naive.stats().nodeFirings / 4);
}

}  // namespace
}  // namespace zeus::test
