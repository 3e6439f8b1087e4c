// Unit tests for the semantics graph build (§8): dense numbering over
// alias classes, consumer/driver edges, topological levels and the
// combinational cycle check.
#include <gtest/gtest.h>

#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

TEST(SimGraph, LevelsFollowGateDepth) {
  const char* src = R"(
TYPE t = COMPONENT (IN a, b: boolean; OUT o: boolean) IS
  SIGNAL w1, w2, w3: boolean;
BEGIN
  w1 := AND(a, b);
  w2 := OR(w1, a);
  w3 := XOR(w2, w1);
  o := w3
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  auto level = [&](const char* name) -> uint32_t {
    for (NetId i = 0; i < b.design->netlist.netCount(); ++i) {
      if (b.design->netlist.net(i).name == name) return g.netLevel[g.dense(i)];
    }
    ADD_FAILURE() << "no net " << name;
    return 0;
  };
  uint32_t l1 = level("top.w1");
  uint32_t l2 = level("top.w2");
  uint32_t l3 = level("top.w3");
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l3);
  EXPECT_GE(g.maxLevel, l3);
}

TEST(SimGraph, RegBreaksLevels) {
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL r: REG;
BEGIN
  r.in := XOR(a, r.out);
  o := r.out
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  ASSERT_EQ(g.regNodes.size(), 1u);
  // The register output is a source: level 0.
  const Node& reg = b.design->netlist.node(g.regNodes[0]);
  EXPECT_EQ(g.netLevel[g.dense(reg.output)], 0u);
  EXPECT_GT(g.netLevel[g.dense(b.design->netlist.inputs(g.regNodes[0])[0])],
            0u);
}

TEST(SimGraph, AliasClassesShareDenseIndex) {
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL m1, m2, m3: multiplex;
BEGIN
  m1 == m2;
  m2 == m3;
  IF a THEN m1 := a END;
  o := m3
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  NetId m1 = kNoNet, m3 = kNoNet;
  for (NetId i = 0; i < b.design->netlist.netCount(); ++i) {
    if (b.design->netlist.net(i).name == "top.m1") m1 = i;
    if (b.design->netlist.net(i).name == "top.m3") m3 = i;
  }
  ASSERT_NE(m1, kNoNet);
  ASSERT_NE(m3, kNoNet);
  EXPECT_EQ(g.dense(m1), g.dense(m3));
  EXPECT_LT(g.denseCount, b.design->netlist.netCount());
}

TEST(SimGraph, SelfLoopDetected) {
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL x: boolean;
BEGIN
  x := AND(a, x);
  o := x
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  EXPECT_TRUE(g.hasCycle);
  EXPECT_NE(g.cycleDescription.find("top.x"), std::string::npos);
}

TEST(SimGraph, AliasCycleDetected) {
  // A loop created purely through aliasing and switches.
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL m1, m2: multiplex;
BEGIN
  IF a THEN m1 := m2 END;
  m2 == m1;
  o := m1
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  EXPECT_TRUE(g.hasCycle);
}

TEST(SimGraph, SimulationRefusesCyclicDesign) {
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
  SIGNAL x: boolean;
BEGIN
  x := AND(a, x);
  o := x
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  EXPECT_THROW(Simulation sim(g), std::runtime_error);
}

TEST(SimGraph, ConsumerEdgesCountInputOccurrences) {
  // AND(x, x) consumes x twice; both arrivals must be delivered.
  const char* src = R"(
TYPE t = COMPONENT (IN a: boolean; OUT o: boolean) IS
BEGIN
  o := XOR(a, a)
END;
SIGNAL top: t;
)";
  Built b = buildOk(src, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  Simulation sim(g);
  sim.setInput("a", Logic::One);
  sim.step();
  EXPECT_EQ(sim.output("o"), Logic::Zero);  // x XOR x = 0
  sim.setInput("a", Logic::Undef);
  sim.step();
  EXPECT_EQ(sim.output("o"), Logic::Undef);
}

}  // namespace
}  // namespace zeus::test
