#include "src/sim/levelized_evaluator.h"

#include <bit>
#include <stdexcept>

#include "src/sim/stimulus.h"
#include "src/support/trace.h"

namespace zeus {

namespace {

using Op = LevelizedTape::Op;

/// Gate-input conversion: NOINFL lanes (0,0) read as UNDEF (1,1) — the
/// word-parallel form of gateInput().
inline LanePlanes laneGateInput(LanePlanes c) {
  uint64_t noinfl = ~(c.p0 | c.p1);
  return {c.p0 | noinfl, c.p1 | noinfl};
}

Op opOf(NodeOp op, bool boolOutput) {
  switch (op) {
    case NodeOp::Const: return Op::Const;
    case NodeOp::Buf: return boolOutput ? Op::BufBool : Op::Buf;
    case NodeOp::Not: return Op::Not;
    case NodeOp::And: return Op::And;
    case NodeOp::Or: return Op::Or;
    case NodeOp::Nand: return Op::Nand;
    case NodeOp::Nor: return Op::Nor;
    case NodeOp::Xor: return Op::Xor;
    case NodeOp::Equal: return Op::Equal;
    case NodeOp::Switch: return Op::Switch;
    case NodeOp::Random: return Op::Random;
    case NodeOp::Reg: break;  // never scheduled
  }
  return Op::Const;
}

/// What one run of the tape reads and writes besides the tape itself.
struct Frame {
  LanePlanes* slots;
  uint64_t* activeMulti;
  std::vector<uint32_t>* collisions;
  uint64_t* rngStates;
  uint64_t live;
};

/// AND over the operands in [a, e): a 0 output needs some input that can
/// be 0, a 1 output needs every input able to be 1.
inline LanePlanes andOf(const uint32_t* a, const uint32_t* e,
                        const LanePlanes* s) {
  LanePlanes v{0, ~uint64_t{0}};
  for (; a != e; ++a) {
    const LanePlanes c = laneGateInput(s[*a]);
    v.p0 |= c.p0;
    v.p1 &= c.p1;
  }
  return v;
}

inline LanePlanes orOf(const uint32_t* a, const uint32_t* e,
                       const LanePlanes* s) {
  LanePlanes v{~uint64_t{0}, 0};
  for (; a != e; ++a) {
    const LanePlanes c = laneGateInput(s[*a]);
    v.p0 &= c.p0;
    v.p1 |= c.p1;
  }
  return v;
}

/// Runs ops [from, to) of the tape.
void runOps(const LevelizedTape& t, size_t from, size_t to, const Frame& f) {
  const Op* code = t.code.data();
  const uint32_t* out = t.out.data();
  const uint32_t* argStart = t.argStart.data();
  const uint32_t* args = t.args.data();
  LanePlanes* s = f.slots;
  for (size_t k = from; k < to; ++k) {
    const uint32_t* a = args + argStart[k];
    const uint32_t* e = args + argStart[k + 1];
    LanePlanes v;
    switch (code[k]) {
      case Op::Const: {
        const auto l = static_cast<Logic>(a[0]);
        v = {0 - planeBit0(l), 0 - planeBit1(l)};
        break;
      }
      case Op::Random: {
        uint64_t bits = 0;
        for (uint64_t m = f.live; m; m &= m - 1) {
          const int l = std::countr_zero(m);
          bits |= (xorshift(f.rngStates[l]) & 1) << l;
        }
        v = {~bits, bits};
        break;
      }
      case Op::Buf:
        v = s[a[0]];
        break;
      case Op::BufBool:
        v = laneGateInput(s[a[0]]);
        break;
      case Op::Not: {
        const LanePlanes in = laneGateInput(s[a[0]]);
        v = {in.p1, in.p0};
        break;
      }
      case Op::And:
        v = andOf(a, e, s);
        break;
      case Op::Nand: {
        const LanePlanes x = andOf(a, e, s);
        v = {x.p1, x.p0};
        break;
      }
      case Op::Or:
        v = orOf(a, e, s);
        break;
      case Op::Nor: {
        const LanePlanes x = orOf(a, e, s);
        v = {x.p1, x.p0};
        break;
      }
      case Op::Xor: {
        uint64_t allDef = ~uint64_t{0}, parity = 0;
        for (; a != e; ++a) {
          const LanePlanes c = laneGateInput(s[*a]);
          allDef &= ~(c.p0 & c.p1);
          parity ^= c.p1 & ~c.p0;
        }
        v = {(~parity & allDef) | ~allDef, (parity & allDef) | ~allDef};
        break;
      }
      case Op::Equal: {
        const size_t m = static_cast<size_t>(e - a) / 2;
        uint64_t allDef = ~uint64_t{0}, anyUneq = 0;
        for (size_t j = 0; j < m; ++j) {
          const LanePlanes x = laneGateInput(s[a[j]]);
          const LanePlanes y = laneGateInput(s[a[j + m]]);
          const uint64_t defPair = ~(x.p0 & x.p1) & ~(y.p0 & y.p1);
          allDef &= defPair;
          anyUneq |= defPair & ((x.p1 & ~x.p0) ^ (y.p1 & ~y.p0));
        }
        const uint64_t one = allDef & ~anyUneq;
        v = {~one, ~anyUneq};
        break;
      }
      case Op::Switch: {
        const LanePlanes c = laneGateInput(s[a[0]]);
        const LanePlanes d = s[a[1]];
        const uint64_t cone = c.p1 & ~c.p0;
        const uint64_t cundef = c.p0 & c.p1;
        v = {(cone & d.p0) | cundef, (cone & d.p1) | cundef};
        break;
      }
      case Op::Resolve: {
        // Per-lane strength resolution: first active contribution wins,
        // two or more active contributions collide to UNDEF.
        uint64_t seen = 0, multi = 0;
        v = {};
        for (; a != e; ++a) {
          const LanePlanes c = s[*a];
          const uint64_t act = c.p0 | c.p1;
          multi |= seen & act;
          v.p0 |= c.p0 & ~seen;
          v.p1 |= c.p1 & ~seen;
          seen |= act;
        }
        v.p0 |= multi;  // colliding lanes resolve to UNDEF
        v.p1 |= multi;
        f.activeMulti[out[k]] = multi;
        if (multi & f.live) f.collisions->push_back(out[k]);
        break;
      }
    }
    s[out[k]] = v;
  }
}

/// The fault overlay of net `i`, mirroring applyScalarFault() per lane:
/// force modes override the resolved value (a forced lane is active, and
/// it is never NOINFL); Flip inverts only defined lanes; Contend collides
/// to UNDEF.  A real collision on a forced lane keeps its multi bit — the
/// fault overrides the value, not the contention report.
void applyFault(const BatchFaultPlan& fp, uint32_t i, bool multiDriven,
                const Frame& f) {
  LanePlanes& v = f.slots[i];
  const uint64_t f0 = fp.force0[i], f1 = fp.force1[i];
  const uint64_t fu = fp.forceUndef[i], fc = fp.contend[i];
  const uint64_t forced = f0 | f1 | fu | fc;
  v.p0 = (v.p0 & ~forced) | f0 | fu | fc;
  v.p1 = (v.p1 & ~forced) | f1 | fu | fc;
  const uint64_t def = (v.p0 ^ v.p1) & fp.flip[i];
  v.p0 ^= def;
  v.p1 ^= def;
  if (fc) {
    // Only a multi-driven net's resolve op wrote its activeMulti this
    // cycle; it already reported a real collision.
    const uint64_t multi = multiDriven ? f.activeMulti[i] : 0;
    f.activeMulti[i] = multi | fc;
    if ((fc & f.live) && !(multi & f.live)) f.collisions->push_back(i);
  }
}

}  // namespace

void lowerTape(SimGraph& g) {
  ZEUS_TRACE_SPAN("levelize", "compile");
  const Netlist& nl = g.design->netlist;
  LevelizedTape& t = g.tape;
  t = {};
  t.code.reserve(g.schedule.size());
  t.out.reserve(g.schedule.size());
  t.argStart.reserve(g.schedule.size() + 1);
  // Node inputs, resolve sources and one word per Const or sourceless net.
  t.args.reserve(g.consumers.size() + g.driverNodes.size() + g.denseCount +
                 g.sourceNodes.size());
  size_t slots = g.denseCount;
  auto sources = [&](uint32_t i) {
    return g.driverStart[i + 1] - g.driverStart[i] +
           (g.nets[i].isInput ? 1u : 0u);
  };

  // Where each driver writes: the net's own slot when it is the net's
  // only source, a private slot the net's resolve op reads otherwise.
  std::vector<uint32_t> slotOf(nl.nodeCount());
  for (uint32_t i = 0; i < g.denseCount; ++i) {
    const bool fused = sources(i) == 1;
    for (uint32_t e = g.driverStart[i]; e < g.driverStart[i + 1]; ++e) {
      slotOf[g.driverNodes[e]] =
          fused ? i : static_cast<uint32_t>(slots++);
    }
  }
  t.regSlot.resize(g.regNodes.size());
  for (size_t k = 0; k < g.regNodes.size(); ++k) {
    const NodeId r = g.regNodes[k];
    t.regSlot[k] = nl.node(r).output != kNoNet
                       ? slotOf[r]
                       : static_cast<uint32_t>(slots++);
  }

  t.argStart.push_back(0);
  auto emit = [&](Op op, uint32_t out) {
    t.code.push_back(op);
    t.out.push_back(out);
    t.argStart.push_back(static_cast<uint32_t>(t.args.size()));
  };
  t.resolveRank.resize(g.denseCount);
  t.resolvePos.resize(g.denseCount);
  for (const SimGraph::Step& st : g.schedule) {
    if (st.isNode) {
      ++t.nodeSteps;
      const Node& node = nl.node(st.index);
      const bool hasOutput = node.output != kNoNet;
      // A node without an output writes nothing anyone reads, but a
      // RANDOM one still draws, so the streams stay in step.
      if (!hasOutput && node.op != NodeOp::Random) continue;
      if (node.op == NodeOp::Const) {
        t.args.push_back(static_cast<uint32_t>(node.constVal));
      }
      for (NetId in : nl.inputs(st.index)) t.args.push_back(g.denseOf[in]);
      emit(opOf(node.op, hasOutput && g.nets[g.denseOf[node.output]].isBool),
           hasOutput ? slotOf[st.index] : static_cast<uint32_t>(slots++));
      continue;
    }
    const uint32_t i = st.index;
    const uint32_t n = sources(i);
    if (n == 0) {
      // No source at all: the net reads NOINFL every cycle.
      t.args.push_back(static_cast<uint32_t>(Logic::NoInfl));
      emit(Op::Const, i);
    } else if (n == 1 && g.nets[i].isInput) {
      t.inputNet.push_back(i);
      t.inputSlot.push_back(i);
    } else if (n > 1) {
      // The primary input's slot, then the drivers'.  Their order does
      // not change the result: two active sources collide to UNDEF.
      ++t.contentionChecks;
      if (g.nets[i].isInput) {
        t.inputNet.push_back(i);
        t.inputSlot.push_back(static_cast<uint32_t>(slots));
        t.args.push_back(static_cast<uint32_t>(slots++));
      }
      for (uint32_t e = g.driverStart[i]; e < g.driverStart[i + 1]; ++e) {
        t.args.push_back(slotOf[g.driverNodes[e]]);
      }
      emit(Op::Resolve, i);
    }
    t.resolveRank[i] = static_cast<uint32_t>(t.netSteps++);
    t.resolvePos[i] = static_cast<uint32_t>(t.code.size());
  }
  t.slotCount = slots;
}

LevelizedBatchEvaluator::LevelizedBatchEvaluator(const SimGraph& graph)
    : g_(graph) {
  if (!g_.hasCycle && g_.tape.argStart.empty()) {
    throw std::invalid_argument(
        "graph has no tape: build it with buildSimGraph, or lowerTape it");
  }
  perCycle_.nodeFirings = g_.tape.nodeSteps;
  perCycle_.netResolutions = g_.tape.netSteps;
  perCycle_.contentionChecks = g_.tape.contentionChecks;
  perCycle_.epochResets = 1;
}

void LevelizedBatchEvaluator::evaluate(const BatchSeeds& seeds,
                                       BatchCycleResult& out) {
  const LevelizedTape& t = g_.tape;
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
  if (out.netValues.size() != t.slotCount) {
    out.netValues.assign(t.slotCount, {});
    out.activeMulti.assign(g_.denseCount, 0);
  }
  out.collisions.clear();

  LanePlanes* s = out.netValues.data();
  for (size_t j = 0; j < t.inputNet.size(); ++j) {
    s[t.inputSlot[j]] = seeds.inputValues ? (*seeds.inputValues)[t.inputNet[j]]
                                          : LanePlanes{};
  }
  for (size_t k = 0; k < t.regSlot.size(); ++k) {
    s[t.regSlot[k]] = (*seeds.regValues)[k];
  }

  const Frame f{s, out.activeMulti.data(), &out.collisions, seeds.rngStates,
                live};
  size_t done = 0;
  if (seeds.faults && seeds.faults->any) {
    // One segment per faulted net: run the tape up to the net's resolve
    // position, then overlay its slot.
    for (const auto& [pos, net] : seeds.faults->stops) {
      runOps(t, done, pos, f);
      done = pos;
      applyFault(*seeds.faults, net, g_.nets[net].multiDriven, f);
    }
  }
  runOps(t, done, t.code.size(), f);
}

}  // namespace zeus
