// The optimization pipeline (src/transform/): const-fold / DCE / alias
// collapse against the lint oracle they share, the post-pass graph
// verifier, netlist node removal, and the simDropped/kNoDense contract
// for optimized-away alias classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/fault.h"
#include "src/sim/snapshot.h"
#include "src/transform/fold_oracle.h"
#include "src/transform/verify.h"
#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

// A live AND plus a constant-foldable OR whose cone never reaches an
// output: fold must turn the OR into CONST 1, DCE must delete it, and
// alias collapse must drop the 'dead' class from the dense numbering.
const char* kDeadwood = R"(
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
  SIGNAL dead: boolean;
BEGIN
  y := AND(a,b);
  dead := OR(a,1)
END;
SIGNAL top: t;
)";

// An IF branch whose condition is constantly 0 (lint: DeadBranch).
const char* kDeadBranch = R"(
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
  SIGNAL m: multiplex;
BEGIN
  IF 0 THEN m := a END;
  y := OR(m, a)
END;
SIGNAL top: t;
)";

// Two RANDOM sources: sourceNodes ordering is observable (the shared RNG
// stream is drawn in NodeId order), so the verifier must reject swaps.
const char* kTwoRandoms = R"(
TYPE t = COMPONENT (IN a: boolean; OUT x, y: boolean) IS
BEGIN
  x := RANDOM();
  y := RANDOM()
END;
SIGNAL top: t;
)";

size_t countRule(const LintReport& r, LintRule rule) {
  size_t n = 0;
  for (const LintFinding& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

LintReport quietLint(const Design& d, const SimGraph& g,
                     DiagnosticEngine& diags) {
  LintOptions opts;
  opts.reportToDiags = false;
  return runLint(d, g, diags, opts);
}

// ---------------------------------------------------------------------
// The lint <-> fold property, across the full corpus: every node the
// oracle proves constant (the superset of lint's ConstantGate/DeadBranch
// findings) is folded, afterwards lint finds no constant gate or dead
// branch at all, and every class that is live after folding keeps its
// dense slot and its full driver set through DCE + alias collapse.
// ---------------------------------------------------------------------

class TransformCorpus
    : public ::testing::TestWithParam<corpus::CorpusEntry> {};

TEST_P(TransformCorpus, FoldRemovesExactlyWhatLintReports) {
  std::string top;
  std::string src = corpusSource(GetParam(), &top);

  Built b0 = buildOk(src, top);
  SimGraph g0 = buildSimGraph(*b0.design, b0.comp->diags());
  ASSERT_FALSE(g0.hasCycle);
  FoldOracle o0(*b0.design, g0);
  LintReport lint0 = quietLint(*b0.design, g0, b0.comp->diags());

  uint64_t foldableKnown = 0;
  for (NodeId ni = 0; ni < b0.design->netlist.nodeCount(); ++ni) {
    const Node& n = b0.design->netlist.node(ni);
    if (FoldOracle::foldable(n.op) &&
        o0.nodeConst[ni] != FoldOracle::kUnknown) {
      ++foldableKnown;
    }
  }

  Built b1 = buildOk(src, top);
  OptReport rep = b1.comp->optimize(*b1.design);
  ASSERT_TRUE(rep.ran);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  ASSERT_TRUE(b1.comp->ok()) << b1.comp->diagnosticsText();

  // Exactly the oracle-constant foldable nodes were folded, and that set
  // covers every ConstantGate/DeadBranch finding (each names a distinct
  // gate or switch node).
  EXPECT_EQ(rep.totalFolded(), foldableKnown);
  EXPECT_GE(foldableKnown, countRule(lint0, LintRule::ConstantGate) +
                               countRule(lint0, LintRule::DeadBranch));

  // After the pipeline, lint has nothing left to say about constants:
  // no foldable node with a known value survives (the fold fixpoint) and
  // the rules built on the same oracle come back empty.
  SimGraph g1 = buildSimGraph(*b1.design, b1.comp->diags());
  ASSERT_FALSE(g1.hasCycle);
  FoldOracle o1(*b1.design, g1);
  for (NodeId ni = 0; ni < b1.design->netlist.nodeCount(); ++ni) {
    const Node& n = b1.design->netlist.node(ni);
    if (!FoldOracle::foldable(n.op)) continue;
    EXPECT_EQ(o1.nodeConst[ni], FoldOracle::kUnknown)
        << GetParam().name << ": node " << ni << " ("
        << nodeOpName(n.op) << ") still foldable after -O1";
  }
  LintReport lint1 = quietLint(*b1.design, g1, b1.comp->diags());
  EXPECT_EQ(countRule(lint1, LintRule::ConstantGate), 0u) << GetParam().name;
  EXPECT_EQ(countRule(lint1, LintRule::DeadBranch), 0u) << GetParam().name;

  // A design with no ports (the H-tree, layout demos) has no observation
  // boundary; DCE must keep it whole rather than delete the lot — its
  // nets stay probeable and `--metrics` still counts real work.
  if (b1.design->ports.empty()) {
    EXPECT_EQ(rep.totalRemoved(), 0u) << GetParam().name;
    EXPECT_EQ(rep.nodesAfter, rep.nodesBefore) << GetParam().name;
  }
}

TEST_P(TransformCorpus, NothingLiveIsRemoved) {
  std::string top;
  std::string src = corpusSource(GetParam(), &top);

  // Apply the fold pass by hand to a twin design, then recompute
  // liveness: classes live *after* folding are exactly what DCE must
  // preserve (a net feeding only a folded gate legitimately dies with
  // it, so pre-fold liveness would be the wrong yardstick).
  Built bf = buildOk(src, top);
  Netlist& nlf = bf.design->netlist;
  {
    SimGraph gf = buildSimGraph(*bf.design, bf.comp->diags());
    ASSERT_FALSE(gf.hasCycle);
    FoldOracle of(*bf.design, gf);
    for (NodeId ni = 0; ni < nlf.nodeCount(); ++ni) {
      if (FoldOracle::foldable(nlf.node(ni).op) &&
          of.nodeConst[ni] != FoldOracle::kUnknown) {
        nlf.foldToConst(ni, static_cast<Logic>(of.nodeConst[ni]));
      }
    }
  }
  SimGraph gf = buildSimGraph(*bf.design, bf.comp->diags());
  ASSERT_FALSE(gf.hasCycle);
  FoldOracle of(*bf.design, gf);

  Built b1 = buildOk(src, top);
  OptReport rep = b1.comp->optimize(*b1.design);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  SimGraph g1 = buildSimGraph(*b1.design, b1.comp->diags());
  ASSERT_FALSE(g1.hasCycle);

  // NetIds are stable across elaborations of the same source, so the
  // folded twin and the optimized design can be compared class by class.
  ASSERT_EQ(nlf.netCount(), b1.design->netlist.netCount());
  for (NetId n = 0; n < nlf.netCount(); ++n) {
    uint32_t dnf = gf.dense(n);
    if (dnf == SimGraph::kNoDense || !of.live[dnf]) continue;
    uint32_t dn1 = g1.dense(n);
    ASSERT_NE(dn1, SimGraph::kNoDense)
        << GetParam().name << ": live class of net '"
        << nlf.net(n).name << "' lost its dense slot";
    EXPECT_EQ(g1.driverStart[dn1 + 1] - g1.driverStart[dn1],
              gf.driverStart[dnf + 1] - gf.driverStart[dnf])
        << GetParam().name << ": live class of net '"
        << nlf.net(n).name << "' lost drivers";
  }
}

std::string entryName(
    const ::testing::TestParamInfo<corpus::CorpusEntry>& i) {
  std::string n = i.param.name;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(All, TransformCorpus,
                         ::testing::ValuesIn(corpus::all()), entryName);

// ---------------------------------------------------------------------
// Pipeline behaviour on hand-written designs
// ---------------------------------------------------------------------

TEST(Transform, DeadConstantConeIsFoldedRemovedAndDropped) {
  Built b = buildOk(kDeadwood, "top");
  OptReport rep = b.comp->optimize(*b.design);
  ASSERT_TRUE(rep.ran);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  EXPECT_GE(rep.totalFolded(), 1u);   // OR(a,1) -> CONST 1
  EXPECT_GE(rep.totalRemoved(), 1u);  // ... then deleted
  EXPECT_GE(rep.totalDropped(), 1u);  // 'dead' loses its slot
  EXPECT_LT(rep.nodesAfter, rep.nodesBefore);
  EXPECT_LT(rep.denseAfter, rep.denseBefore);
  EXPECT_NE(b.design->optFingerprint, 0u);

  const Netlist& nl = b.design->netlist;
  NetId dead = kNoNet;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    const std::string& name = nl.net(n).name;
    if (name == "dead" ||
        (name.size() >= 5 &&
         name.compare(name.size() - 5, 5, ".dead") == 0)) {
      dead = n;
      break;
    }
  }
  ASSERT_NE(dead, kNoNet);
  EXPECT_TRUE(nl.net(nl.find(dead)).simDropped);

  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  EXPECT_EQ(g.dense(dead), SimGraph::kNoDense);

  // A dropped class has no simulated state: scalar and batch reads yield
  // NOINFL, and the fault universe refuses to target it.
  Simulation sim(g);
  sim.setInput("a", Logic::One);
  sim.setInput("b", Logic::One);
  sim.step();
  EXPECT_EQ(sim.netValue(dead), Logic::NoInfl);
  EXPECT_EQ(sim.output("y"), Logic::One);
  BatchSimulation batch(g, 2);
  batch.setInput(0, "a", Logic::One);
  batch.setInput(0, "b", Logic::One);
  batch.step();
  EXPECT_EQ(batch.netValue(0, dead), Logic::NoInfl);
  EXPECT_EQ(
      makeFault(g, FaultKind::StuckAt1, nl.net(nl.find(dead)).name),
      std::nullopt);
}

TEST(Transform, DeadBranchSwitchIsFolded) {
  Built b = buildOk(kDeadBranch, "top");
  SimGraph g0 = buildSimGraph(*b.design, b.comp->diags());
  LintReport lint0 = quietLint(*b.design, g0, b.comp->diags());
  EXPECT_GE(countRule(lint0, LintRule::DeadBranch), 1u);

  OptReport rep = b.comp->optimize(*b.design);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  EXPECT_GE(rep.totalFolded(), 1u);
  SimGraph g1 = buildSimGraph(*b.design, b.comp->diags());
  for (const Node& n : b.design->netlist.nodes()) {
    EXPECT_NE(n.op, NodeOp::Switch) << "dead IF branch survived -O1";
  }
  // Output semantics unchanged: m has no active driver and reads UNDEF
  // (§8), so y = OR(UNDEF, a) — One when a=1 (the 1 decides the OR),
  // UNDEF when a=0.  Exactly what the unoptimized design computes.
  Simulation sim(g1);
  sim.setInput("a", Logic::One);
  sim.step();
  EXPECT_EQ(sim.output("y"), Logic::One);
  sim.setInput("a", Logic::Zero);
  sim.step();
  EXPECT_EQ(sim.output("y"), Logic::Undef);
}

// The corpus H-tree is pure wiring: its OUT port is an alias class over
// empty leaf components, so the DCE keep rules reach no node at all.
// Deleting the design whole would be "correct" against the port-level
// observation model and useless against every other one (--metrics,
// waves, activity profiling, layout) — DCE must back off and keep it.
TEST(Transform, PureWiringDesignIsKeptWhole) {
  const corpus::CorpusEntry* htree = nullptr;
  for (const auto& e : corpus::all()) {
    if (std::string(e.name) == "htree") htree = &e;
  }
  ASSERT_NE(htree, nullptr);
  std::string top;
  std::string src = corpusSource(*htree, &top);
  Built b = buildOk(src, top);
  OptReport rep = b.comp->optimize(*b.design);
  ASSERT_TRUE(rep.ran);
  ASSERT_TRUE(rep.verified) << rep.verifyError;
  EXPECT_GT(rep.nodesBefore, 0u);
  EXPECT_EQ(rep.totalRemoved(), 0u);
  EXPECT_EQ(rep.nodesAfter, rep.nodesBefore);

  // And the optimized graph still does per-cycle work — metrics_corpus
  // counts on node_firings > 0 for every corpus entry.
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  Simulation sim(g);
  sim.setInput("in", Logic::One);
  sim.step(2);
  EXPECT_GT(sim.metricsCounters().nodeFirings, 0u);
}

TEST(Transform, LevelZeroVerifiesWithoutTouchingTheDesign) {
  Built b = buildOk(kDeadwood, "top");
  size_t nodesBefore = b.design->netlist.nodeCount();
  OptOptions opts;
  opts.level = 0;
  OptReport rep = b.comp->optimize(*b.design, opts);
  EXPECT_FALSE(rep.ran);
  EXPECT_TRUE(rep.verified) << rep.verifyError;
  EXPECT_EQ(rep.nodesAfter, nodesBefore);
  EXPECT_EQ(b.design->netlist.nodeCount(), nodesBefore);
  EXPECT_EQ(b.design->optFingerprint, 0u);  // -O0 keeps the seed hash
  EXPECT_TRUE(rep.passes.empty());
}

TEST(Transform, FingerprintSplitsTheContentHashByLevel) {
  Built b0 = buildOk(kDeadwood, "top");
  Built b1 = buildOk(kDeadwood, "top");
  OptReport rep = b1.comp->optimize(*b1.design);
  ASSERT_TRUE(rep.verified);
  EXPECT_EQ(b0.design->optFingerprint, 0u);
  EXPECT_NE(b1.design->optFingerprint, 0u);
  EXPECT_NE(designContentHash(*b0.design), designContentHash(*b1.design));

  // Same level, same effect -> same hash: checkpoints stay resumable.
  Built b2 = buildOk(kDeadwood, "top");
  OptReport rep2 = b2.comp->optimize(*b2.design);
  ASSERT_TRUE(rep2.verified);
  EXPECT_EQ(designContentHash(*b1.design), designContentHash(*b2.design));
}

TEST(Transform, OptStatsJsonSchema) {
  Built b = buildOk(kDeadwood, "top");
  OptReport rep = b.comp->optimize(*b.design);
  std::string json = rep.renderJson("top");
  EXPECT_NE(json.find("\"zeus-opt\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"design\": \"top\""), std::string::npos);
  EXPECT_NE(json.find("\"level\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"verified\": true"), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"const-fold\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"dce\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"alias-collapse\""), std::string::npos);
  EXPECT_EQ(json.find("\"verify_error\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Netlist::removeNodes
// ---------------------------------------------------------------------

TEST(Transform, RemoveNodesCompactsStablyAndRebuildsDrivers) {
  Built b = buildOk(kDeadwood, "top");
  Netlist& nl = b.design->netlist;
  size_t before = nl.nodeCount();
  ASSERT_GE(before, 2u);

  // Keeping everything is the identity.
  std::vector<Node> orig = nl.nodes();
  nl.removeNodes(std::vector<char>(before, 1));
  ASSERT_EQ(nl.nodeCount(), before);

  // Drop the first node only: the survivors keep their relative order,
  // and the per-root driver lists are rebuilt to match.
  std::vector<char> keep(before, 1);
  keep[0] = 0;
  NetId out0 = nl.find(orig[0].output);
  size_t drivers0 = nl.driversOf(out0).size();
  nl.removeNodes(keep);
  ASSERT_EQ(nl.nodeCount(), before - 1);
  for (NodeId i = 0; i < nl.nodeCount(); ++i) {
    EXPECT_EQ(nl.node(i).op, orig[i + 1].op);
    EXPECT_EQ(nl.node(i).output, orig[i + 1].output);
  }
  EXPECT_EQ(nl.driversOf(out0).size(), drivers0 - 1);
  for (NetId root = 0; root < nl.netCount(); ++root) {
    if (nl.find(root) != root) continue;
    for (NodeId d : nl.driversOf(root)) {
      ASSERT_LT(d, nl.nodeCount());
      EXPECT_EQ(nl.find(nl.node(d).output), root);
    }
  }
}

// ---------------------------------------------------------------------
// The post-pass verifier
// ---------------------------------------------------------------------

TEST(Verifier, AcceptsEveryCorpusGraph) {
  for (const corpus::CorpusEntry& e : corpus::all()) {
    std::string top;
    std::string src = corpusSource(e, &top);
    Built b = buildOk(src, top);
    SimGraph g = buildSimGraph(*b.design, b.comp->diags());
    ASSERT_FALSE(g.hasCycle);
    EXPECT_EQ(verifyGraph(*b.design, g), "") << e.name;
  }
}

TEST(Verifier, RejectsTamperedGraphs) {
  Built b = buildOk(kDeadwood, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  ASSERT_EQ(verifyGraph(*b.design, g), "");

  {  // NetInfo out of sync with the netlist
    SimGraph h = g;
    h.nets[0].multiDriven = !h.nets[0].multiDriven;
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // a referenced class stripped of its dense slot
    SimGraph h = g;
    h.denseOf[h.rootOf[0]] = SimGraph::kNoDense;
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // a driver edge rewired to the wrong node
    SimGraph h = g;
    ASSERT_FALSE(h.driverNodes.empty());
    h.driverNodes[0] = static_cast<NodeId>(
        (h.driverNodes[0] + 1) % b.design->netlist.nodeCount());
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // stale level labelling
    SimGraph h = g;
    h.maxLevel += 1;
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // a node leaking out of the schedule's node steps
    SimGraph h = g;
    auto last = std::find_if(h.schedule.rbegin(), h.schedule.rend(),
                             [](const SimGraph::Step& s) { return s.isNode; });
    ASSERT_NE(last, h.schedule.rend());
    h.schedule.erase(std::next(last).base());
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // a node step moved before its input net's resolve step
    SimGraph h = g;
    const Netlist& nl = b.design->netlist;
    auto node = std::find_if(
        h.schedule.begin(), h.schedule.end(), [&](const SimGraph::Step& s) {
          return s.isNode && !nl.inputs(s.index).empty();
        });
    ASSERT_NE(node, h.schedule.end());
    const uint32_t in = h.dense(nl.inputs(node->index)[0]);
    auto net = std::find_if(
        h.schedule.begin(), h.schedule.end(),
        [&](const SimGraph::Step& s) { return !s.isNode && s.index == in; });
    ASSERT_LT(net, node);
    std::rotate(net, node, std::next(node));
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
  {  // a net's resolve step dropped
    SimGraph h = g;
    auto net = std::find_if(h.schedule.begin(), h.schedule.end(),
                            [](const SimGraph::Step& s) { return !s.isNode; });
    ASSERT_NE(net, h.schedule.end());
    h.schedule.erase(net);
    EXPECT_NE(verifyGraph(*b.design, h), "");
  }
}

// The graph optimize() hands back is the graph of the design it leaves
// behind: a pass that changed the design after its graph was taken shows
// up as a difference from a fresh build.
TEST(OptimizeGraph, ReturnedGraphMatchesAFreshBuild) {
  for (const corpus::CorpusEntry& e : corpus::all()) {
    for (int level : {0, 1}) {
      std::string top;
      std::string src = corpusSource(e, &top);
      Built b = buildOk(src, top);
      OptOptions opts;
      opts.level = level;
      OptReport rep = b.comp->optimize(*b.design, opts);
      ASSERT_TRUE(rep.graph) << e.name << " -O" << level;
      const SimGraph& g = *rep.graph;
      const SimGraph fresh = buildSimGraph(*b.design, b.comp->diags());
      SCOPED_TRACE(std::string(e.name) + " -O" + std::to_string(level));
      EXPECT_EQ(g.design, b.design.get());
      EXPECT_EQ(g.denseOf, fresh.denseOf);
      EXPECT_EQ(g.rootOf, fresh.rootOf);
      EXPECT_EQ(g.denseCount, fresh.denseCount);
      EXPECT_TRUE(g.nets == fresh.nets);
      EXPECT_EQ(g.consumerStart, fresh.consumerStart);
      EXPECT_EQ(g.consumers, fresh.consumers);
      EXPECT_EQ(g.consumerInputIdx, fresh.consumerInputIdx);
      EXPECT_EQ(g.driverStart, fresh.driverStart);
      EXPECT_EQ(g.driverNodes, fresh.driverNodes);
      EXPECT_EQ(g.regNodes, fresh.regNodes);
      EXPECT_EQ(g.sourceNodes, fresh.sourceNodes);
      EXPECT_EQ(g.regInput, fresh.regInput);
      EXPECT_TRUE(g.schedule == fresh.schedule);
      EXPECT_EQ(g.netLevel, fresh.netLevel);
      EXPECT_EQ(g.maxLevel, fresh.maxLevel);
      EXPECT_TRUE(g.portSlots == fresh.portSlots);
      EXPECT_TRUE(g.tape == fresh.tape);
    }
  }
}

TEST(Verifier, RejectsReorderedRandomSources) {
  Built b = buildOk(kTwoRandoms, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  ASSERT_GE(g.sourceNodes.size(), 2u);
  ASSERT_EQ(verifyGraph(*b.design, g), "");
  SimGraph h = g;
  std::swap(h.sourceNodes[0], h.sourceNodes[1]);
  EXPECT_NE(verifyGraph(*b.design, h), "")
      << "RNG stream order (sourceNodes in NodeId order) not enforced";
}

TEST(Verifier, FailureIsReportedAsInternalError) {
  // Force the pipeline's own verify step to fail by corrupting the
  // netlist<->graph agreement *after* optimization would normally leave
  // them consistent: run at level 0 against a hand-corrupted net flag.
  Built b = buildOk(kDeadwood, "top");
  // Mark a referenced class dropped; buildSimGraph still gives it a slot
  // (it is referenced), so the graph stays sound — instead corrupt via
  // the drivers: unite two nets behind the graph's back.
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_EQ(verifyGraph(*b.design, g), "");
  b.design->netlist.unite(0, 1);
  EXPECT_NE(verifyGraph(*b.design, g), "");
}

}  // namespace
}  // namespace zeus::test
