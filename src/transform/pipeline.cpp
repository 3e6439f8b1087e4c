#include "src/transform/pipeline.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/transform/fold_oracle.h"
#include "src/transform/verify.h"

namespace zeus {

namespace {

metrics::Counter optRuns("opt-runs");
metrics::Counter optNodesFolded("opt-nodes-folded");
metrics::Counter optNodesRemoved("opt-nodes-removed");
metrics::Counter optNetsDropped("opt-nets-dropped");
metrics::Counter optVerifyFailures("opt-verify-failures");

// -- pass 1: constant folding -------------------------------------------
//
// Replaces every foldable node whose output value the oracle proved
// constant by a CONST of that value, in place (same NodeId, same output
// net).  Exactness: the oracle's nodeConst is "this node contributes
// exactly v on every cycle" under §8 semantics, and a CONST v contributes
// exactly v and is active iff v != NOINFL — the same activity the folded
// gate had (gates are always-active, a folded SWITCH is active per its
// folded value).  Resolution, contention and REG latching therefore see
// identical inputs.
uint64_t runConstFold(Design& design, const SimGraph& g) {
  ZEUS_TRACE_SPAN("opt-fold", "compile");
  FoldOracle oracle(design, g);
  Netlist& nl = design.netlist;
  uint64_t folded = 0;
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    Node& node = nl.node(ni);
    if (!FoldOracle::foldable(node.op)) continue;
    if (oracle.nodeConst[ni] == FoldOracle::kUnknown) continue;
    node.op = NodeOp::Const;
    node.constVal = static_cast<Logic>(oracle.nodeConst[ni]);
    node.inputs.clear();
    ++folded;
  }
  return folded;
}

// -- pass 2: dead-node elimination --------------------------------------
//
// Removes every node whose effect can never be observed.  Kept roots:
//   * classes of any port (any mode), CLK and RSET — the outside world
//     reads or drives them;
//   * every multi-driven class — its resolution can raise SimContention,
//     and SimErrors are observable output;
// plus, transitively, every driver of a kept class and the input cones of
// those drivers (through REG: the latched value needs its input cone).
// RANDOM nodes are never removed: evaluators draw the shared RNG stream
// in sourceNodes order, so deleting one would shift every later node's
// stream and change -O0/-O1 behaviour.
//
// Two escape hatches keep DCE from deleting a design whole.  A design
// with no ports at all has no observation boundary, so every class is a
// root.  And when the keep rules mark *zero* nodes — the corpus H-tree:
// its OUT is an alias class over empty leaf components, so no driver is
// reachable from any root — the design is pure wiring that exists to be
// probed from inside (netValue, waves, activity profiling, layout), and
// DCE becomes a no-op rather than returning an empty graph.
uint64_t runDce(Design& design, const SimGraph& g) {
  ZEUS_TRACE_SPAN("opt-dce", "compile");
  Netlist& nl = design.netlist;
  std::vector<char> keepNode(nl.nodeCount(), 0);
  std::vector<char> keepClass(g.denseCount, 0);
  std::vector<uint32_t> work;
  auto mark = [&](uint32_t dn) {
    if (!keepClass[dn]) {
      keepClass[dn] = 1;
      work.push_back(dn);
    }
  };
  if (design.ports.empty()) {
    for (uint32_t dn = 0; dn < g.denseCount; ++dn) mark(dn);
  }
  for (const Port& p : design.ports) {
    for (NetId n : p.nets) mark(g.dense(n));
  }
  for (NetId special : {design.clk, design.rset}) {
    if (special != kNoNet) mark(g.dense(special));
  }
  for (uint32_t dn = 0; dn < g.denseCount; ++dn) {
    if (g.nets[dn].multiDriven) mark(dn);
  }
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    if (nl.node(ni).op == NodeOp::Random) keepNode[ni] = 1;
  }
  while (!work.empty()) {
    uint32_t dn = work.back();
    work.pop_back();
    for (uint32_t e = g.driverStart[dn]; e < g.driverStart[dn + 1]; ++e) {
      NodeId d = g.driverNodes[e];
      if (keepNode[d]) continue;
      keepNode[d] = 1;
      for (NetId in : nl.node(d).inputs) mark(g.dense(in));
    }
  }
  uint64_t removed = 0;
  bool anyKept = false;
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    if (keepNode[ni]) {
      anyKept = true;
    } else {
      ++removed;
    }
  }
  if (!anyKept) return 0;  // nothing observable: keep the design whole
  if (removed) nl.removeNodes(keepNode);
  return removed;
}

// -- pass 3: alias-class collapse ---------------------------------------
//
// Rewrites every NetId the design holds (node edges, Obj tree, ports,
// CLK/RSET, SEQUENTIAL groups) to its class root, then flags classes no
// node or port references as simDropped so buildSimGraph gives them no
// dense slot.  Fewer dense slots means smaller per-cycle resolve/latch
// sweeps in every evaluator.
void remapObj(Obj& o, const Netlist& nl) {
  if (o.net != kNoNet) o.net = nl.find(o.net);
  for (Obj& e : o.elems) remapObj(e, nl);
  if (o.inst) {
    for (auto& [name, m] : o.inst->members) remapObj(m.obj, nl);
    for (NetId& n : o.inst->resultNets) n = nl.find(n);
  }
}

uint64_t runAliasCollapse(Design& design) {
  ZEUS_TRACE_SPAN("opt-alias", "compile");
  Netlist& nl = design.netlist;
  nl.canonicalise();
  remapObj(design.topObj, nl);
  for (Port& p : design.ports) {
    for (NetId& n : p.nets) n = nl.find(n);
  }
  if (design.clk != kNoNet) design.clk = nl.find(design.clk);
  if (design.rset != kNoNet) design.rset = nl.find(design.rset);
  for (SeqGroups& sg : design.sequentials) {
    for (auto& grp : sg.groups) {
      for (NetId& n : grp) n = nl.find(n);
    }
  }

  std::vector<char> referenced(nl.netCount(), 0);
  for (const Node& node : nl.nodes()) {
    if (node.output != kNoNet) referenced[nl.find(node.output)] = 1;
    for (NetId in : node.inputs) referenced[nl.find(in)] = 1;
  }
  for (const Port& p : design.ports) {
    for (NetId n : p.nets) referenced[nl.find(n)] = 1;
  }
  for (NetId special : {design.clk, design.rset}) {
    if (special != kNoNet) referenced[nl.find(special)] = 1;
  }
  uint64_t dropped = 0;
  for (NetId i = 0; i < nl.netCount(); ++i) {
    if (nl.find(i) != i) continue;
    if (!referenced[i] && !nl.net(i).simDropped) {
      nl.net(i).simDropped = true;
      ++dropped;
    }
  }
  return dropped;
}

void fnvMix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

}  // namespace

uint64_t OptReport::totalFolded() const {
  uint64_t n = 0;
  for (const PassStats& p : passes) n += p.nodesFolded;
  return n;
}
uint64_t OptReport::totalRemoved() const {
  uint64_t n = 0;
  for (const PassStats& p : passes) n += p.nodesRemoved;
  return n;
}
uint64_t OptReport::totalDropped() const {
  uint64_t n = 0;
  for (const PassStats& p : passes) n += p.netsDropped;
  return n;
}

std::string OptReport::renderJson(const std::string& designName) const {
  std::string out = "{\n  \"zeus-opt\": 1,\n  \"design\": \"" +
                    metrics::jsonEscape(designName) + "\",\n";
  out += "  \"level\": " + std::to_string(level) + ",\n";
  out += std::string("  \"ran\": ") + (ran ? "true" : "false") + ",\n";
  out += std::string("  \"verified\": ") + (verified ? "true" : "false") +
         ",\n";
  if (!verifyError.empty()) {
    out += "  \"verify_error\": \"" + metrics::jsonEscape(verifyError) +
           "\",\n";
  }
  out += "  \"nodes\": {\"before\": " + std::to_string(nodesBefore) +
         ", \"after\": " + std::to_string(nodesAfter) + "},\n";
  out += "  \"nets\": {\"before\": " + std::to_string(denseBefore) +
         ", \"after\": " + std::to_string(denseAfter) + "},\n";
  out += "  \"passes\": [";
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassStats& p = passes[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"pass\": \"" + metrics::jsonEscape(p.pass) + "\"";
    out += ", \"nodes_folded\": " + std::to_string(p.nodesFolded);
    out += ", \"nodes_removed\": " + std::to_string(p.nodesRemoved);
    out += ", \"nets_dropped\": " + std::to_string(p.netsDropped) + "}";
  }
  out += passes.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

OptReport optimizeDesign(Design& design, DiagnosticEngine& diags,
                         const OptOptions& opts) {
  ZEUS_TRACE_SPAN("optimize", "compile");
  optRuns.add();
  OptReport report;
  report.level = opts.level;
  report.nodesBefore = design.netlist.nodeCount();

  // A cyclic design is unsimulatable: leave it untouched.  has() keeps the
  // CombinationalLoop diagnostic from being reported twice when a caller
  // (lint, an earlier build) already constructed a graph.
  if (diags.has(Diag::CombinationalLoop)) {
    report.hasCycle = true;
    report.nodesAfter = report.nodesBefore;
    return report;
  }
  SimGraph g = buildSimGraph(design, diags);
  report.denseBefore = g.denseCount;
  if (g.hasCycle) {
    report.hasCycle = true;
    report.nodesAfter = report.nodesBefore;
    report.denseAfter = report.denseBefore;
    return report;
  }

  if (opts.level >= 1) {
    report.ran = true;

    PassStats fold;
    fold.pass = "const-fold";
    fold.nodesFolded = runConstFold(design, g);
    report.passes.push_back(fold);
    optNodesFolded.add(fold.nodesFolded);

    // DCE runs on the pre-fold graph: fold keeps every node and its output
    // net and only clears input edges, so the driver CSR, the dense
    // numbering and multiDriven are unchanged, and DCE reads input cones
    // from the live netlist.
    PassStats dce;
    dce.pass = "dce";
    dce.nodesRemoved = runDce(design, g);
    report.passes.push_back(dce);
    optNodesRemoved.add(dce.nodesRemoved);

    PassStats alias;
    alias.pass = "alias-collapse";
    alias.netsDropped = runAliasCollapse(design);
    report.passes.push_back(alias);
    optNetsDropped.add(alias.netsDropped);

    g = buildSimGraph(design, diags);

    // The fingerprint covers the pass configuration and its effect; any
    // nonzero value flips designContentHash away from the -O0 hash, so
    // equal levels with equal effects stay resumable and everything else
    // is rejected.
    uint64_t fp = 0xA5A5A5A5A5A5A5A5ull;
    fnvMix(fp, static_cast<uint64_t>(opts.level));
    fnvMix(fp, fold.nodesFolded);
    fnvMix(fp, dce.nodesRemoved);
    fnvMix(fp, alias.netsDropped);
    fnvMix(fp, g.denseCount);
    design.optFingerprint = fp ? fp : 1;
  }

  report.nodesAfter = design.netlist.nodeCount();
  report.denseAfter = g.denseCount;

  {
    ZEUS_TRACE_SPAN("opt-verify", "compile");
    report.verifyError = verifyGraph(design, g);
  }
  report.verified = report.verifyError.empty();
  if (!report.verified) {
    optVerifyFailures.add();
    diags.error(Diag::OptimizerVerifyFailed, {},
                "optimizer produced a malformed graph: " +
                    report.verifyError +
                    " (internal error; please report this design)");
  }
  report.graph = std::make_unique<SimGraph>(std::move(g));
  return report;
}

}  // namespace zeus
