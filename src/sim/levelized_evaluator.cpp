#include "src/sim/levelized_evaluator.h"

#include "src/sim/stimulus.h"
#include "src/sim/value.h"
#include "src/support/trace.h"

namespace zeus {

LevelizedEvaluator::LevelizedEvaluator(const SimGraph& graph) : g_(graph) {
  ZEUS_TRACE_SPAN("levelize", "compile");
  const Netlist& nl = g_.design->netlist;
  nodeOut_.assign(nl.nodeCount(), Logic::Undef);
  nodeStamp_.assign(nl.nodeCount(), 0);
}

void LevelizedEvaluator::evaluate(const CycleSeeds& seeds, CycleResult& out) {
  const Netlist& nl = g_.design->netlist;
  uint64_t rng = seeds.rngState ? seeds.rngState : kDefaultRngSeed;
  ++epoch_;
  ++stats_.epochResets;

  // Every schedule step writes its slot exactly once, so nothing is
  // cleared up front; only the (cheap) collision list resets.
  if (out.netValues.size() != g_.denseCount) {
    out.netValues.assign(g_.denseCount, Logic::Undef);
    out.activeCounts.assign(g_.denseCount, 0);
  }
  out.collisions.clear();
  out.watchdogTripped = false;  // the static schedule cannot wedge
  const FaultPlan* faults =
      seeds.faults && seeds.faults->any ? seeds.faults : nullptr;

  for (const SimGraph::Step& op : g_.schedule) {
    if (!op.isNode) {
      // Resolve a net from seed + drivers (§8 strength rule).
      uint32_t i = op.index;
      ++stats_.netResolutions;
      if (g_.nets[i].multiDriven) ++stats_.contentionChecks;
      Resolution r;
      if (g_.nets[i].isInput && seeds.inputSet && (*seeds.inputSet)[i]) {
        r.add((*seeds.inputValues)[i]);
      }
      for (uint32_t e = g_.driverStart[i]; e < g_.driverStart[i + 1]; ++e) {
        NodeId d = g_.driverNodes[e];
        uint32_t ri = g_.regIndexOf[d];
        r.add(ri != SimGraph::kNotReg ? (*seeds.regValues)[ri]
                            : (nodeStamp_[d] == epoch_ ? nodeOut_[d]
                                                       : Logic::Undef));
      }
      Logic v = r.value;
      uint32_t act = static_cast<uint32_t>(r.activeCount);
      if (faults) {
        FaultMode m = faults->mode[i];
        if (m != FaultMode::None) v = applyScalarFault(m, v, act);
      }
      out.netValues[i] = v;
      out.activeCounts[i] = act;
      if (act > 1) out.collisions.push_back(i);
      continue;
    }

    NodeId ni = op.index;
    const Node& node = nl.node(ni);
    ++stats_.nodeFirings;
    Logic v = Logic::Undef;
    switch (node.op) {
      case NodeOp::Const:
        v = node.constVal;
        break;
      case NodeOp::Random:
        v = logicFromBool(xorshift(rng) & 1);
        break;
      case NodeOp::Buf:
        v = out.netValues[g_.denseOf[node.inputs[0]]];
        if (v == Logic::NoInfl && g_.nets[g_.denseOf[node.output]].isBool)
          v = Logic::Undef;
        break;
      case NodeOp::Not:
      case NodeOp::And:
      case NodeOp::Or:
      case NodeOp::Nand:
      case NodeOp::Nor:
      case NodeOp::Xor: {
        scratch_.clear();
        for (NetId in : node.inputs)
          scratch_.push_back(out.netValues[g_.denseOf[in]]);
        v = evalGate(node.op, scratch_);
        break;
      }
      case NodeOp::Equal: {
        scratch_.clear();
        for (NetId in : node.inputs)
          scratch_.push_back(out.netValues[g_.denseOf[in]]);
        size_t m = scratch_.size() / 2;
        v = evalEqual(std::span<const Logic>(scratch_.data(), m),
                      std::span<const Logic>(scratch_.data() + m, m));
        break;
      }
      case NodeOp::Switch:
        v = evalSwitch(out.netValues[g_.denseOf[node.inputs[0]]],
                       out.netValues[g_.denseOf[node.inputs[1]]]);
        break;
      case NodeOp::Reg:
        break;  // never scheduled
    }
    nodeOut_[ni] = v;
    nodeStamp_[ni] = epoch_;
  }

  out.rngState = rng;
}

// ---------------------------------------------------------------------
// Batch mode
// ---------------------------------------------------------------------

namespace {

/// Gate-input conversion: NOINFL lanes (0,0) read as UNDEF (1,1) — the
/// word-parallel form of gateInput().
inline LanePlanes laneGateInput(LanePlanes c) {
  uint64_t noinfl = ~(c.p0 | c.p1);
  return {c.p0 | noinfl, c.p1 | noinfl};
}

}  // namespace

LevelizedBatchEvaluator::LevelizedBatchEvaluator(const SimGraph& graph)
    : g_(graph) {
  ZEUS_TRACE_SPAN("levelize", "compile");
  const Netlist& nl = g_.design->netlist;
  nodeOut_.assign(nl.nodeCount(), {});
  nodeStamp_.assign(nl.nodeCount(), 0);
}

void LevelizedBatchEvaluator::evaluate(const BatchSeeds& seeds,
                                       BatchCycleResult& out) {
  const Netlist& nl = g_.design->netlist;
  ++epoch_;
  ++stats_.epochResets;
  if (seeds.rngStates) {
    // Seed-0 normalization parity with the scalar evaluators, which
    // substitute kDefaultRngSeed for a zero rngState.  Without this a
    // lane whose stream was restored to 0 (xorshift's absorbing state)
    // would draw all-zero RANDOM bits while its scalar oracle draws the
    // default sequence.
    for (uint64_t& s : *seeds.rngStates) {
      if (s == 0) s = kDefaultRngSeed;
    }
  }
  if (out.netValues.size() != g_.denseCount) {
    out.netValues.assign(g_.denseCount, {});
    out.activeAny.assign(g_.denseCount, 0);
    out.activeMulti.assign(g_.denseCount, 0);
  }
  out.collisions.clear();

  for (const SimGraph::Step& op : g_.schedule) {
    if (!op.isNode) {
      uint32_t i = op.index;
      ++stats_.netResolutions;
      if (g_.nets[i].multiDriven) ++stats_.contentionChecks;
      // Per-lane strength resolution: first active contribution wins,
      // two or more active contributions collide to UNDEF.
      LanePlanes res;
      uint64_t seen = 0, multi = 0;
      auto contribute = [&](LanePlanes c) {
        uint64_t act = c.p0 | c.p1;
        multi |= seen & act;
        res.p0 |= c.p0 & ~seen;
        res.p1 |= c.p1 & ~seen;
        seen |= act;
      };
      if (g_.nets[i].isInput && seeds.inputValues) {
        contribute((*seeds.inputValues)[i]);
      }
      for (uint32_t e = g_.driverStart[i]; e < g_.driverStart[i + 1]; ++e) {
        NodeId d = g_.driverNodes[e];
        uint32_t ri = g_.regIndexOf[d];
        if (ri != SimGraph::kNotReg) {
          contribute((*seeds.regValues)[ri]);
        } else {
          contribute(nodeStamp_[d] == epoch_
                         ? nodeOut_[d]
                         : lanesBroadcast(Logic::Undef, ~uint64_t{0}));
        }
      }
      res.p0 |= multi;  // colliding lanes resolve to UNDEF
      res.p1 |= multi;
      // Fault overlay, mirroring applyScalarFault() per lane: force modes
      // override the resolved value and count as an active driver; Flip
      // inverts only defined lanes; Contend collides to UNDEF.  A real
      // collision on a forced lane keeps its multi bit — the fault
      // overrides the value, not the contention report.
      if (seeds.faults && seeds.faults->any) {
        const BatchFaultPlan& fp = *seeds.faults;
        uint64_t f0 = fp.force0[i], f1 = fp.force1[i], fu = fp.forceUndef[i];
        uint64_t ff = fp.flip[i], fc = fp.contend[i];
        if (f0 | f1 | fu | ff | fc) {
          uint64_t forced = f0 | f1 | fu | fc;
          res.p0 = (res.p0 & ~forced) | f0 | fu | fc;
          res.p1 = (res.p1 & ~forced) | f1 | fu | fc;
          uint64_t def = (res.p0 ^ res.p1) & ff;
          res.p0 ^= def;
          res.p1 ^= def;
          seen |= forced;
          multi |= fc;
        }
      }
      out.netValues[i] = res;
      out.activeAny[i] = seen;
      out.activeMulti[i] = multi;
      if (multi & seeds.laneMask) out.collisions.push_back(i);
      continue;
    }

    NodeId ni = op.index;
    const Node& node = nl.node(ni);
    ++stats_.nodeFirings;
    LanePlanes v;
    switch (node.op) {
      case NodeOp::Const:
        v = lanesBroadcast(node.constVal, ~uint64_t{0});
        break;
      case NodeOp::Random: {
        uint64_t bits = 0;
        for (uint32_t l = 0; l < 64; ++l) {
          bits |= (xorshift((*seeds.rngStates)[l]) & 1) << l;
        }
        v = {~bits, bits};
        break;
      }
      case NodeOp::Buf: {
        v = out.netValues[g_.denseOf[node.inputs[0]]];
        if (g_.nets[g_.denseOf[node.output]].isBool) {
          uint64_t noinfl = ~(v.p0 | v.p1);
          v.p0 |= noinfl;
          v.p1 |= noinfl;
        }
        break;
      }
      case NodeOp::Not: {
        LanePlanes in =
            laneGateInput(out.netValues[g_.denseOf[node.inputs[0]]]);
        v = {in.p1, in.p0};
        break;
      }
      case NodeOp::And:
      case NodeOp::Nand: {
        v = {0, ~uint64_t{0}};
        for (NetId in : node.inputs) {
          LanePlanes c = laneGateInput(out.netValues[g_.denseOf[in]]);
          v.p0 |= c.p0;  // any input that can be 0 allows a 0 output
          v.p1 &= c.p1;  // a 1 output needs every input able to be 1
        }
        if (node.op == NodeOp::Nand) v = {v.p1, v.p0};
        break;
      }
      case NodeOp::Or:
      case NodeOp::Nor: {
        v = {~uint64_t{0}, 0};
        for (NetId in : node.inputs) {
          LanePlanes c = laneGateInput(out.netValues[g_.denseOf[in]]);
          v.p0 &= c.p0;
          v.p1 |= c.p1;
        }
        if (node.op == NodeOp::Nor) v = {v.p1, v.p0};
        break;
      }
      case NodeOp::Xor: {
        uint64_t allDef = ~uint64_t{0}, parity = 0;
        for (NetId in : node.inputs) {
          LanePlanes c = laneGateInput(out.netValues[g_.denseOf[in]]);
          allDef &= ~(c.p0 & c.p1);
          parity ^= c.p1 & ~c.p0;
        }
        v = {(~parity & allDef) | ~allDef, (parity & allDef) | ~allDef};
        break;
      }
      case NodeOp::Equal: {
        size_t m = node.inputs.size() / 2;
        uint64_t allDef = ~uint64_t{0}, anyUneq = 0;
        for (size_t k = 0; k < m; ++k) {
          LanePlanes a =
              laneGateInput(out.netValues[g_.denseOf[node.inputs[k]]]);
          LanePlanes b =
              laneGateInput(out.netValues[g_.denseOf[node.inputs[k + m]]]);
          uint64_t defPair = ~(a.p0 & a.p1) & ~(b.p0 & b.p1);
          allDef &= defPair;
          anyUneq |= defPair & ((a.p1 & ~a.p0) ^ (b.p1 & ~b.p0));
        }
        uint64_t one = allDef & ~anyUneq;
        v = {~one, ~anyUneq};
        break;
      }
      case NodeOp::Switch: {
        LanePlanes c =
            laneGateInput(out.netValues[g_.denseOf[node.inputs[0]]]);
        LanePlanes d = out.netValues[g_.denseOf[node.inputs[1]]];
        uint64_t cone = c.p1 & ~c.p0;
        uint64_t cundef = c.p0 & c.p1;
        v = {(cone & d.p0) | cundef, (cone & d.p1) | cundef};
        break;
      }
      case NodeOp::Reg:
        break;  // never scheduled
    }
    nodeOut_[ni] = v;
    nodeStamp_[ni] = epoch_;
  }
}

}  // namespace zeus
