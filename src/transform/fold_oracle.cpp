#include "src/transform/fold_oracle.h"

#include "src/sim/value.h"

namespace zeus {

FoldOracle::FoldOracle(const Design& d, const SimGraph& graph)
    : design(d), g(graph), nl(d.netlist) {
  const size_t nNets = g.denseCount;
  inputAlways.assign(nNets, 0);
  externallyDrivable.assign(nNets, 0);
  for (const Port& p : design.ports) {
    for (size_t i = 0; i < p.nets.size(); ++i) {
      uint32_t dn = g.dense(p.nets[i]);
      externallyDrivable[dn] = 1;
      if (p.modes[i] == ast::ParamMode::In) inputAlways[dn] = 1;
    }
  }
  for (NetId special : {design.clk, design.rset}) {
    if (special != kNoNet) {
      uint32_t dn = g.dense(special);
      inputAlways[dn] = 1;
      externallyDrivable[dn] = 1;
    }
  }

  fold();
  computeLiveness();
}

/// Folds the class's drivers once all of them have a nodeConst /
/// nodeAlways entry (guaranteed by the schedule for non-REG drivers; REG
/// drivers are pre-seeded).
void FoldOracle::finalizeNet(uint32_t dn) {
  if (netDone[dn]) return;
  netDone[dn] = 1;
  if (inputAlways[dn]) netAlways[dn] = 1;
  bool isInput = g.nets[dn].isInput || externallyDrivable[dn];
  uint32_t nDrivers = driverCount(dn);
  if (nDrivers == 0) {
    // An undriven net reads NOINFL every cycle (unless the testbench
    // seeds it through a port).
    if (!isInput) netConst[dn] = known(Logic::NoInfl);
    return;
  }
  Resolution r;
  bool allKnown = true;
  for (uint32_t e = g.driverStart[dn]; e < g.driverStart[dn + 1]; ++e) {
    NodeId d = g.driverNodes[e];
    if (nodeAlways[d]) netAlways[dn] = 1;
    if (nodeConst[d] == kUnknown) allKnown = false;
    else r.add(static_cast<Logic>(nodeConst[d]));
  }
  if (allKnown && !isInput) netConst[dn] = known(r.value);
}

/// One walk of the levelized schedule computing nodeConst/nodeAlways and,
/// at each net's resolve step, the net results.  Mirrors the firing evaluator's semantics: value.h is the
/// shared source of truth for gate behaviour.
void FoldOracle::fold() {
  netConst.assign(g.denseCount, kUnknown);
  netAlways.assign(g.denseCount, 0);
  netDone.assign(g.denseCount, 0);
  nodeConst.assign(nl.nodeCount(), kUnknown);
  nodeAlways.assign(nl.nodeCount(), 0);
  // REG drivers contribute their stored value, which is never NOINFL
  // (the latch maps NOINFL to UNDEF) — always active, never constant.
  for (NodeId ni : g.regNodes) nodeAlways[ni] = 1;

  std::vector<Logic> vals;
  for (const SimGraph::Step& step : g.schedule) {
    if (!step.isNode) {
      finalizeNet(step.index);
      continue;
    }
    const NodeId ni = step.index;
    const Node& node = nl.node(ni);
    switch (node.op) {
      case NodeOp::Const:
        nodeConst[ni] = known(node.constVal);
        nodeAlways[ni] = node.constVal != Logic::NoInfl;
        break;
      case NodeOp::Random:
        nodeAlways[ni] = 1;
        break;
      case NodeOp::Buf: {
        uint32_t in = g.dense(nl.inputs(ni)[0]);
        bool outBool = g.nets[g.dense(node.output)].isBool;
        if (netConst[in] != kUnknown) {
          Logic c = static_cast<Logic>(netConst[in]);
          if (outBool && c == Logic::NoInfl) c = Logic::Undef;
          nodeConst[ni] = known(c);
        }
        // A boolean assignee converts NOINFL to UNDEF (§3.2), so the
        // buffer's contribution is active whatever arrives.
        nodeAlways[ni] = outBool || netAlways[in];
        break;
      }
      case NodeOp::And:
      case NodeOp::Or:
      case NodeOp::Nand:
      case NodeOp::Nor: {
        // Short-circuit folding: a constant controlling input (e.g. a 0
        // into AND) fixes the output even with unknown co-inputs.
        nodeAlways[ni] = 1;  // gates output 0/1/UNDEF, never NOINFL
        GateCounters c;
        for (NetId in : nl.inputs(ni)) {
          int8_t v = netConst[g.dense(in)];
          if (v != kUnknown) c.add(static_cast<Logic>(v));
        }
        Logic out;
        if (gateCanFire(node.op, c,
                        static_cast<uint32_t>(nl.inputs(ni).size()), out)) {
          nodeConst[ni] = known(out);
        }
        break;
      }
      case NodeOp::Not:
      case NodeOp::Xor: {
        nodeAlways[ni] = 1;
        vals.clear();
        bool all = true;
        for (NetId in : nl.inputs(ni)) {
          int8_t c = netConst[g.dense(in)];
          if (c == kUnknown) { all = false; break; }
          vals.push_back(static_cast<Logic>(c));
        }
        if (all) nodeConst[ni] = known(evalGate(node.op, vals));
        break;
      }
      case NodeOp::Equal: {
        nodeAlways[ni] = 1;
        vals.clear();
        bool all = true;
        for (NetId in : nl.inputs(ni)) {
          int8_t c = netConst[g.dense(in)];
          if (c == kUnknown) { all = false; break; }
          vals.push_back(static_cast<Logic>(c));
        }
        if (all) {
          size_t m = vals.size() / 2;
          nodeConst[ni] = known(
              evalEqual({vals.data(), m}, {vals.data() + m, m}));
        }
        break;
      }
      case NodeOp::Switch: {
        uint32_t guard = g.dense(nl.inputs(ni)[0]);
        uint32_t data = g.dense(nl.inputs(ni)[1]);
        int8_t gc = netConst[guard];
        if (gc == known(Logic::Zero)) {
          nodeConst[ni] = known(Logic::NoInfl);  // branch never enabled
        } else if (gc == known(Logic::Undef) ||
                   gc == known(Logic::NoInfl)) {
          nodeConst[ni] = known(Logic::Undef);  // §8: undefined cond
          nodeAlways[ni] = 1;
        } else if (gc == known(Logic::One)) {
          nodeConst[ni] = netConst[data];
          nodeAlways[ni] = netAlways[data];
        }
        break;
      }
      case NodeOp::Reg:
        break;  // pre-seeded, never scheduled
    }
  }
}

/// Backward reachability from the observable frontier: OUT/INOUT port
/// classes.  A register is only observable through its consumers, so a
/// REG whose output cone is dead keeps its whole input cone dead.
void FoldOracle::computeLiveness() {
  live.assign(g.denseCount, 0);
  std::vector<uint32_t> work;
  auto mark = [&](uint32_t dn) {
    if (!live[dn]) {
      live[dn] = 1;
      work.push_back(dn);
    }
  };
  for (const Port& p : design.ports) {
    for (size_t i = 0; i < p.nets.size(); ++i) {
      if (p.modes[i] != ast::ParamMode::In) mark(g.dense(p.nets[i]));
    }
  }
  while (!work.empty()) {
    uint32_t dn = work.back();
    work.pop_back();
    for (uint32_t e = g.driverStart[dn]; e < g.driverStart[dn + 1]; ++e) {
      for (NetId in : nl.inputs(g.driverNodes[e])) {
        mark(g.dense(in));
      }
    }
  }
}

}  // namespace zeus
