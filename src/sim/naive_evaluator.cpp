#include "src/sim/naive_evaluator.h"

#include <cassert>

#include "src/sim/stimulus.h"
#include "src/sim/value.h"

namespace zeus {

NaiveEvaluator::NaiveEvaluator(const SimGraph& graph) : g_(graph) {
  nodeOut_.assign(g_.design->netlist.nodeCount(), Logic::Undef);
  netVal_.assign(g_.denseCount, Logic::NoInfl);
  active_.assign(g_.denseCount, 0);
  seedVal_.assign(g_.denseCount, Logic::NoInfl);
  seedSet_.assign(g_.denseCount, 0);
}

void NaiveEvaluator::evaluate(const CycleSeeds& seeds, CycleResult& out) {
  const Netlist& nl = g_.design->netlist;
  uint64_t rng = seeds.rngState ? seeds.rngState : kDefaultRngSeed;

  std::fill(seedSet_.begin(), seedSet_.end(), 0);
  std::fill(seedVal_.begin(), seedVal_.end(), Logic::NoInfl);
  if (seeds.inputValues) {
    for (size_t i = 0; i < g_.denseCount; ++i) {
      if (g_.nets[i].isInput && (*seeds.inputSet)[i]) {
        seedVal_[i] = (*seeds.inputValues)[i];
        seedSet_[i] = 1;
      }
    }
  }

  // Register outputs and sources are fixed for the whole cycle.
  std::fill(nodeOut_.begin(), nodeOut_.end(), Logic::Undef);
  for (size_t k = 0; k < g_.regNodes.size(); ++k) {
    nodeOut_[g_.regNodes[k]] = (*seeds.regValues)[k];
  }
  for (NodeId ni : g_.sourceNodes) {
    const Node& node = nl.node(ni);
    nodeOut_[ni] = node.op == NodeOp::Const
                       ? node.constVal
                       : logicFromBool(xorshift(rng) & 1);
  }
  std::fill(netVal_.begin(), netVal_.end(), Logic::Undef);

  const FaultPlan* faults =
      seeds.faults && seeds.faults->any ? seeds.faults : nullptr;
  auto resolveNet = [&](size_t i) -> Logic {
    Resolution r;
    if (seedSet_[i]) r.add(seedVal_[i]);
    for (uint32_t e = g_.driverStart[i]; e < g_.driverStart[i + 1]; ++e) {
      r.add(nodeOut_[g_.driverNodes[e]]);
    }
    Logic v = r.value;
    uint32_t act = static_cast<uint32_t>(r.activeCount);
    // Fault injection applies inside the sweeps too, so the faulty value
    // reaches the fixpoint exactly as it propagates in the firing rules.
    if (faults) {
      FaultMode m = faults->mode[i];
      if (m != FaultMode::None) v = applyScalarFault(m, v, act);
    }
    active_[i] = act;
    return v;
  };

  out.watchdogTripped = false;
  std::vector<Logic> scratch;
  size_t maxSweeps = nl.nodeCount() + 2;
  if (seeds.eventBudget) {
    // Honour the caller's watchdog: one sweep visits every node once.
    uint64_t perSweep = nl.nodeCount() ? nl.nodeCount() : 1;
    uint64_t cap = seeds.eventBudget / perSweep + 1;
    if (cap < maxSweeps) maxSweeps = static_cast<size_t>(cap);
  }
  size_t sweep = 0;
  bool changed = true;
  while (changed && sweep < maxSweeps) {
    changed = false;
    ++sweep;
    ++stats_.sweeps;
    // Nets from drivers.
    for (size_t i = 0; i < g_.denseCount; ++i) {
      Logic v = resolveNet(i);
      // Implicit boolean conversion happens per consumer; keep raw here.
      if (v != netVal_[i]) {
        netVal_[i] = v;
        changed = true;
      }
    }
    // Nodes from nets.
    for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
      const Node& node = nl.node(ni);
      if (node.op == NodeOp::Reg || node.op == NodeOp::Const ||
          node.op == NodeOp::Random) {
        continue;
      }
      ++stats_.nodeFirings;
      scratch.clear();
      for (NetId in : nl.inputs(ni)) scratch.push_back(netVal_[g_.denseOf[in]]);
      Logic v = Logic::Undef;
      switch (node.op) {
        case NodeOp::Buf:
          v = scratch[0];
          if (v == Logic::NoInfl && g_.nets[g_.denseOf[node.output]].isBool)
            v = Logic::Undef;
          break;
        case NodeOp::Not:
        case NodeOp::And:
        case NodeOp::Or:
        case NodeOp::Nand:
        case NodeOp::Nor:
        case NodeOp::Xor:
          v = evalGate(node.op, scratch);
          break;
        case NodeOp::Equal: {
          size_t m = scratch.size() / 2;
          v = evalEqual(std::span<const Logic>(scratch.data(), m),
                        std::span<const Logic>(scratch.data() + m, m));
          break;
        }
        case NodeOp::Switch:
          v = evalSwitch(scratch[0], scratch[1]);
          break;
        default:
          break;
      }
      if (v != nodeOut_[ni]) {
        nodeOut_[ni] = v;
        changed = true;
      }
    }
  }
  // Non-convergence within the sweep bound is a watchdog fault, reported
  // as a structured SimError by the Simulation — never a silent assert.
  if (changed && sweep >= maxSweeps) out.watchdogTripped = true;

  // Final resolution + collision check, written straight into the
  // caller's buffers (no full-vector copies).
  out.collisions.clear();
  if (out.netValues.size() != g_.denseCount) {
    out.netValues.assign(g_.denseCount, Logic::Undef);
    out.activeCounts.assign(g_.denseCount, 0);
  }
  for (size_t i = 0; i < g_.denseCount; ++i) {
    out.netValues[i] = resolveNet(i);
    out.activeCounts[i] = active_[i];
    ++stats_.netResolutions;
    if (g_.nets[i].multiDriven) ++stats_.contentionChecks;
    if (active_[i] > 1) out.collisions.push_back(static_cast<uint32_t>(i));
  }
  out.rngState = rng;
}

}  // namespace zeus
