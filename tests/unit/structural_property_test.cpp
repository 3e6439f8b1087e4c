// Structural property tests: randomly generated programs that use the
// *structural* half of the language — arrays, records, component
// instantiation with connection statements, aliasing, NUM indexing and
// replication — must elaborate deterministically and simulate identically
// under both evaluators.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

struct Gen {
  std::mt19937_64 rng;
  explicit Gen(uint64_t seed) : rng(seed) {}
  int pick(int n) { return static_cast<int>(rng() % n); }
};

/// Builds a random but legal-by-construction structural program.
std::string generate(uint64_t seed) {
  Gen g(seed);
  std::ostringstream os;
  const int width = 2 + g.pick(3);  // element array width

  os << "TYPE word = ARRAY[1.." << width << "] OF boolean;\n";
  // A small combinational element used through connections.
  os << "elem = COMPONENT (IN a: word; OUT b: word) IS\n"
     << "BEGIN\n";
  switch (g.pick(3)) {
    case 0: os << "  b := NOT a\n"; break;
    case 1: os << "  b := AND(a, NOT a)\n"; break;  // constant zeros
    default: os << "  b := a\n"; break;
  }
  os << "END;\n";

  // A registered element.
  os << "delayed = COMPONENT (IN a: word; OUT b: word) IS\n"
     << "  SIGNAL r: ARRAY[1.." << width << "] OF REG;\n"
     << "BEGIN\n  r.in := a;\n  b := r.out\nEND;\n";

  const int lanes = 2 + g.pick(3);
  os << "t = COMPONENT (IN din: ARRAY[1.." << lanes << "] OF word; "
     << "IN sel: ARRAY[1..2] OF boolean; OUT dout: word) IS\n";
  os << "  SIGNAL stage1: ARRAY[1.." << lanes << "] OF elem;\n";
  os << "  SIGNAL stage2: ARRAY[1.." << lanes << "] OF delayed;\n";
  os << "  SIGNAL mid: ARRAY[1.." << lanes << "] OF word;\n";
  os << "  SIGNAL bus: ARRAY[1.." << width << "] OF multiplex;\n";
  os << "BEGIN\n";
  // Connection over the whole arrays (bit distribution).
  os << "  stage1(din, mid);\n";
  os << "  FOR i := 1 TO " << lanes << " DO\n"
     << "    stage2[i](mid[i], *)\n"
     << "  END;\n";
  // A NUM-selected read of the delayed outputs onto a multiplex bus.
  os << "  bus := stage2[NUM(sel)].b;\n";
  os << "  dout := bus;\n";
  os << "END;\n";
  os << "SIGNAL top: t;\n";
  return os.str();
}

class StructuralEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructuralEquivalence, FiringMatchesNaive) {
  const uint64_t seed = GetParam();
  std::string source = generate(seed);
  Built b = buildOk(source, "top");
  ASSERT_NE(b.design, nullptr) << source;
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);

  Simulation fire(g, EvaluatorKind::Firing);
  Simulation naive(g, EvaluatorKind::Naive);
  std::mt19937_64 rng(seed * 31 + 1);
  const Port* din = b.design->findPort("din");
  ASSERT_NE(din, nullptr);
  for (int cyc = 0; cyc < 10; ++cyc) {
    std::vector<Logic> bits(din->nets.size());
    for (Logic& bit : bits) {
      int v = static_cast<int>(rng() % 4);
      bit = v == 0   ? Logic::Zero
            : v == 1 ? Logic::One
            : v == 2 ? Logic::Undef
                     : Logic::Zero;
    }
    fire.setInput("din", bits);
    naive.setInput("din", bits);
    uint64_t sel = rng() % 4;
    fire.setInputUint("sel", sel);
    naive.setInputUint("sel", sel);
    fire.step();
    naive.step();
    for (NetId n = 0; n < b.design->netlist.netCount(); ++n) {
      ASSERT_EQ(fire.netValue(n), naive.netValue(n))
          << "seed " << seed << " cycle " << cyc << " net "
          << b.design->netlist.net(n).name << "\n" << source;
    }
  }
}

TEST_P(StructuralEquivalence, ElaborationIsDeterministic) {
  const uint64_t seed = GetParam();
  std::string source = generate(seed);
  Built a = buildOk(source, "top");
  Built b = buildOk(source, "top");
  ASSERT_NE(a.design, nullptr);
  ASSERT_NE(b.design, nullptr);
  ASSERT_EQ(a.design->netlist.netCount(), b.design->netlist.netCount());
  ASSERT_EQ(a.design->netlist.nodeCount(), b.design->netlist.nodeCount());
  for (NetId i = 0; i < a.design->netlist.netCount(); ++i) {
    EXPECT_EQ(a.design->netlist.net(i).name, b.design->netlist.net(i).name);
    EXPECT_EQ(a.design->netlist.find(i), b.design->netlist.find(i));
  }
  for (NodeId i = 0; i < a.design->netlist.nodeCount(); ++i) {
    EXPECT_EQ(a.design->netlist.node(i).op, b.design->netlist.node(i).op);
    const auto ia = a.design->netlist.inputs(i);
    const auto ib = b.design->netlist.inputs(i);
    EXPECT_EQ(std::vector<NetId>(ia.begin(), ia.end()),
              std::vector<NetId>(ib.begin(), ib.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralEquivalence,
                         ::testing::Range<uint64_t>(100, 115));

TEST(StructuralProperty, NumWriteFanoutMatchesAcrossEvaluators) {
  // Guarded NUM *writes* (demux) with both evaluators, sweeping the
  // address including unreachable ones.
  const char* src = R"(
TYPE t = COMPONENT (IN sel: ARRAY[1..3] OF boolean; IN v: boolean;
                    IN we: boolean;
                    OUT q: ARRAY[0..5] OF boolean) IS
  SIGNAL r: ARRAY[0..5] OF REG;
BEGIN
  IF we THEN
    r[NUM(sel)].in := v
  END;
  FOR i := 0 TO 5 DO q[i] := r[i].out END
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation fire(g, EvaluatorKind::Firing);
  Simulation naive(g, EvaluatorKind::Naive);
  for (Simulation* sim : {&fire, &naive}) {
    sim->setInput("we", Logic::One);
    for (uint64_t a = 0; a < 8; ++a) {  // 6 and 7 address nothing
      sim->setInputUint("sel", a);
      sim->setInput("v", logicFromBool(a % 2));
      sim->step();
    }
  }
  std::vector<Logic> f = fire.outputBits("q");
  std::vector<Logic> n = naive.outputBits("q");
  EXPECT_EQ(f, n);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(f[i], logicFromBool(i % 2)) << i;
  }
}

}  // namespace
}  // namespace zeus::test
