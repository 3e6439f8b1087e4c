// Unit tests for the netlist: alias union-find, driver accounting across
// class merges, canonicalisation, the input pool and lookup by name.
#include <gtest/gtest.h>

#include "src/elab/netlist.h"

namespace zeus {
namespace {

TEST(Netlist, AddAndLookup) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Boolean, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  EXPECT_EQ(nl.netCount(), 2u);
  EXPECT_EQ(nl.net(a).name, "a");
  EXPECT_EQ(nl.net(b).kind, BasicKind::Multiplex);
  EXPECT_EQ(nl.find(a), a);
}

TEST(Netlist, UniteMergesDriverCounts) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Multiplex, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  nl.net(a).condDrivers = 2;
  nl.net(b).condDrivers = 1;
  nl.net(b).uncondDrivers = 1;
  NetId root = nl.unite(a, b);
  EXPECT_EQ(nl.find(a), nl.find(b));
  EXPECT_EQ(nl.net(root).condDrivers, 3u);
  EXPECT_EQ(nl.net(root).uncondDrivers, 1u);
  EXPECT_TRUE(nl.net(root).aliasTarget);
}

TEST(Netlist, UniteIsIdempotent) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Multiplex, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  nl.net(a).condDrivers = 1;
  nl.unite(a, b);
  NetId root = nl.unite(b, a);
  EXPECT_EQ(nl.net(root).condDrivers, 1u);  // not double counted
}

TEST(Netlist, TransitiveClasses) {
  Netlist nl;
  std::vector<NetId> nets;
  for (int i = 0; i < 5; ++i) {
    nets.push_back(nl.addNet("n" + std::to_string(i), BasicKind::Multiplex,
                             {}));
  }
  nl.unite(nets[0], nets[1]);
  nl.unite(nets[2], nets[3]);
  nl.unite(nets[1], nets[3]);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(nl.find(nets[i]), nl.find(nets[0]));
  }
  EXPECT_NE(nl.find(nets[4]), nl.find(nets[0]));
}

TEST(Netlist, DriversRegisterUnderRoot) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Multiplex, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  NetId src = nl.addNet("s", BasicKind::Boolean, {});
  nl.addNode(NodeOp::Switch, {src, src}, a, {});
  nl.unite(a, b);
  nl.addNode(NodeOp::Switch, {src, src}, b, {});
  nl.canonicalise();
  NetId root = nl.find(a);
  EXPECT_EQ(nl.driversOf(root).size(), 2u);
  // Node outputs are remapped to roots.
  EXPECT_EQ(nl.node(0).output, root);
  EXPECT_EQ(nl.node(1).output, root);
}

TEST(Netlist, CanonicaliseRemapsInputs) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Multiplex, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  NetId out = nl.addNet("o", BasicKind::Boolean, {});
  nl.addNode(NodeOp::Buf, {b}, out, {});
  nl.unite(a, b);
  nl.canonicalise();
  EXPECT_EQ(nl.inputs(0)[0], nl.find(a));
}

std::vector<NetId> inputsOf(const Netlist& nl, NodeId id) {
  const std::span<const NetId> in = nl.inputs(id);
  return {in.begin(), in.end()};
}

// The optimizer's order: fold, then DCE, then the alias collapse.  The
// kept nodes keep their inputs (remapped to roots), and the pool holds
// exactly those inputs, in node order.
TEST(Netlist, FoldRemoveCanonicaliseKeepsThePoolExact) {
  Netlist nl;
  NetId a = nl.addNet("a", BasicKind::Multiplex, {});
  NetId b = nl.addNet("b", BasicKind::Multiplex, {});
  NetId c = nl.addNet("c", BasicKind::Boolean, {});
  NetId x = nl.addNet("x", BasicKind::Boolean, {});
  NetId y = nl.addNet("y", BasicKind::Boolean, {});
  NetId z = nl.addNet("z", BasicKind::Boolean, {});
  NetId w = nl.addNet("w", BasicKind::Multiplex, {});
  nl.addNode(NodeOp::And, {b, c}, x, {});
  NodeId folded = nl.addNode(NodeOp::Or, {c, b, a}, y, {});
  nl.addNode(NodeOp::Xor, {b, x}, z, {});
  nl.addNode(NodeOp::Switch, {y, b}, w, {});
  nl.unite(a, b);

  nl.foldToConst(folded, Logic::One);
  EXPECT_TRUE(nl.inputs(folded).empty());
  EXPECT_EQ(nl.node(folded).op, NodeOp::Const);
  EXPECT_EQ(nl.node(folded).constVal, Logic::One);
  nl.removeNodes({1, 1, 0, 1});
  nl.canonicalise();

  ASSERT_EQ(nl.nodeCount(), 3u);
  EXPECT_EQ(inputsOf(nl, 0), (std::vector<NetId>{a, c}));
  EXPECT_TRUE(nl.inputs(1).empty());
  EXPECT_EQ(nl.node(1).op, NodeOp::Const);
  EXPECT_EQ(nl.node(1).output, y);
  EXPECT_EQ(inputsOf(nl, 2), (std::vector<NetId>{y, a}));
  EXPECT_EQ(nl.node(2).output, w);
  const std::span<const NetId> pool = nl.inputPool();
  EXPECT_EQ(std::vector<NetId>(pool.begin(), pool.end()),
            (std::vector<NetId>{a, c, y, a}));
  EXPECT_EQ(nl.driversOf(y), std::vector<NodeId>{1});
  EXPECT_TRUE(nl.driversOf(z).empty());
}

TEST(Netlist, FindByNameReturnsTheFirstNetWithTheName) {
  Netlist nl;
  nl.addNet("x", BasicKind::Boolean, {});
  NetId first = nl.addNet("dup", BasicKind::Boolean, {});
  nl.addNet("y", BasicKind::Boolean, {});
  NetId second = nl.addNet("dup", BasicKind::Multiplex, {});
  ASSERT_LT(first, second);
  EXPECT_EQ(nl.findByName("dup"), first);
  EXPECT_EQ(nl.findByName("y"), 2u);
  EXPECT_EQ(nl.findByName("no.such.net"), kNoNet);
}

}  // namespace
}  // namespace zeus
