#include "src/sim/levelized_evaluator.h"

#include <bit>

#include "src/sim/stimulus.h"
#include "src/support/trace.h"

namespace zeus {

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
  for (const SimGraph::Step& op : g_.schedule) {
    if (op.isNode) {
      ++perCycle_.nodeFirings;
    } else {
      ++perCycle_.netResolutions;
      if (g_.nets[op.index].multiDriven) ++perCycle_.contentionChecks;
    }
  }
  perCycle_.epochResets = 1;
  nodeOut_.assign(g_.design->netlist.nodeCount(), {});
}

void LevelizedBatchEvaluator::evaluate(const BatchSeeds& seeds,
                                       BatchCycleResult& out) {
  const Netlist& nl = g_.design->netlist;
  const uint64_t live = seeds.laneMask;
  stats_ += perCycle_;
  if (seeds.rngStates) {
    // Seed-0 normalization parity with the firing and naive evaluators,
    // which substitute kDefaultRngSeed for a zero rngState.  Without this
    // a lane whose stream was restored to 0 (xorshift's absorbing state)
    // would draw all-zero RANDOM bits while its firing oracle draws the
    // default sequence.
    for (uint64_t m = live; m; m &= m - 1) {
      uint64_t& s = seeds.rngStates[std::countr_zero(m)];
      if (s == 0) s = kDefaultRngSeed;
    }
  }
  if (out.netValues.size() != g_.denseCount) {
    out.netValues.assign(g_.denseCount, {});
    out.activeAny.assign(g_.denseCount, 0);
    out.activeMulti.assign(g_.denseCount, 0);
  }
  out.collisions.clear();
  const BatchFaultPlan* faults =
      seeds.faults && seeds.faults->any ? seeds.faults : nullptr;

  for (const SimGraph::Step& op : g_.schedule) {
    if (!op.isNode) {
      uint32_t i = op.index;
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
        contribute(ri != SimGraph::kNotReg ? (*seeds.regValues)[ri]
                                           : nodeOut_[d]);
      }
      res.p0 |= multi;  // colliding lanes resolve to UNDEF
      res.p1 |= multi;
      // Fault overlay, mirroring applyScalarFault() per lane: force modes
      // override the resolved value and count as an active driver; Flip
      // inverts only defined lanes; Contend collides to UNDEF.  A real
      // collision on a forced lane keeps its multi bit — the fault
      // overrides the value, not the contention report.
      if (faults) {
        const BatchFaultPlan& fp = *faults;
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
      if (multi & live) out.collisions.push_back(i);
      continue;
    }

    NodeId ni = op.index;
    const Node& node = nl.node(ni);
    LanePlanes v;
    switch (node.op) {
      case NodeOp::Const:
        v = lanesBroadcast(node.constVal, ~uint64_t{0});
        break;
      case NodeOp::Random: {
        uint64_t bits = 0;
        for (uint64_t m = live; m; m &= m - 1) {
          const int l = std::countr_zero(m);
          bits |= (xorshift(seeds.rngStates[l]) & 1) << l;
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
  }
}

}  // namespace zeus
