#include "src/sim/firing_evaluator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/stimulus.h"
#include "src/sim/value.h"

namespace zeus {

FiringEvaluator::FiringEvaluator(const SimGraph& graph) : g_(graph) {
  const Netlist& nl = g_.design->netlist;
  netStamp_.assign(g_.denseCount, 0);
  nodeStamp_.assign(nl.nodeCount(), 0);
  pending_.assign(g_.denseCount, 0);
  netFired_.assign(g_.denseCount, 0);
  nodeFired_.assign(nl.nodeCount(), 0);
  nodeKnown_.assign(nl.nodeCount(), 0);
  nodeZeros_.assign(nl.nodeCount(), 0);
  nodeOnes_.assign(nl.nodeCount(), 0);
  nodeUndef_.assign(nl.nodeCount(), 0);
  inputVal_.assign(nl.inputPool().size(), Logic::Undef);
  inputKnown_.assign(nl.inputPool().size(), 0);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    if (g_.nets[i].isInput) inputNets_.push_back(static_cast<uint32_t>(i));
    if (g_.nets[i].nonRegDrivers == 0)
      undrivenNets_.push_back(static_cast<uint32_t>(i));
  }
  worklist_.reserve(g_.denseCount);
}

void FiringEvaluator::touchNet(uint32_t net) {
  if (netStamp_[net] == epoch_) return;
  netStamp_[net] = epoch_;
  value_[net] = Logic::NoInfl;
  active_[net] = 0;
  netFired_[net] = 0;
  pending_[net] = g_.nets[net].nonRegDrivers;
}

void FiringEvaluator::touchNode(NodeId node) {
  if (nodeStamp_[node] == epoch_) return;
  nodeStamp_[node] = epoch_;
  nodeFired_[node] = 0;
  nodeKnown_[node] = 0;
  nodeZeros_[node] = 0;
  nodeOnes_[node] = 0;
  nodeUndef_[node] = 0;
  const Node& n = g_.design->netlist.node(node);
  std::fill_n(inputKnown_.begin() + n.inputBegin, n.inputCount, 0);
}

void FiringEvaluator::contribute(uint32_t net, Logic v) {
  touchNet(net);
  if (v != Logic::NoInfl) {
    if (++active_[net] == 1) value_[net] = v;
    else value_[net] = Logic::Undef;
  }
  assert(pending_[net] > 0);
  if (--pending_[net] == 0) fireNet(net, value_[net]);
}

void FiringEvaluator::fireNet(uint32_t net, Logic value) {
  assert(!netFired_[net]);
  netFired_[net] = 1;
  ++firedCount_;
  ++stats_.netResolutions;
  if (g_.nets[net].multiDriven) ++stats_.contentionChecks;
  // Every net passes through here exactly once per cycle (reg-only-driven
  // nets via the undrivenNets_ loop), so this is the single injection
  // point: the faulty value propagates to all consumers and the latch.
  if (faults_) {
    FaultMode m = faults_->mode[net];
    if (m != FaultMode::None) value = applyScalarFault(m, value, active_[net]);
  }
  value_[net] = value;
  if (active_[net] > 1 && collisions_) collisions_->push_back(net);
  worklist_.push_back(net);
}

void FiringEvaluator::evaluate(const CycleSeeds& seeds, CycleResult& out) {
  const Netlist& nl = g_.design->netlist;
  uint64_t rng = seeds.rngState ? seeds.rngState : kDefaultRngSeed;

  ++epoch_;
  ++stats_.epochResets;
  if (out.netValues.size() != g_.denseCount) {
    out.netValues.assign(g_.denseCount, Logic::Undef);
    out.activeCounts.assign(g_.denseCount, 0);
  }
  value_ = out.netValues.data();
  active_ = out.activeCounts.data();
  worklist_.clear();
  firedCount_ = 0;
  out.collisions.clear();
  out.watchdogTripped = false;
  collisions_ = &out.collisions;
  faults_ = seeds.faults && seeds.faults->any ? seeds.faults : nullptr;
  // Watchdog: every consumer edge delivers at most one arrival event per
  // cycle, so anything past a small multiple of the edge count means the
  // evaluator is wedged — abort the cycle instead of hanging.
  uint64_t eventBudget = seeds.eventBudget
                             ? seeds.eventBudget
                             : 4 * static_cast<uint64_t>(g_.consumers.size()) +
                                   g_.denseCount + 64;
  uint64_t events = 0;

  // Seed register outputs (REG drivers contribute their stored value and
  // are not counted in pending_).
  for (size_t k = 0; k < g_.regNodes.size(); ++k) {
    const Node& reg = nl.node(g_.regNodes[k]);
    uint32_t net = g_.denseOf[reg.output];
    touchNet(net);
    Logic v = (*seeds.regValues)[k];
    if (v != Logic::NoInfl) {
      if (++active_[net] == 1) value_[net] = v;
      else value_[net] = Logic::Undef;
    }
  }
  // Seed primary inputs.
  if (seeds.inputValues) {
    for (uint32_t i : inputNets_) {
      if (!(*seeds.inputSet)[i]) continue;
      touchNet(i);
      Logic v = (*seeds.inputValues)[i];
      if (v != Logic::NoInfl) {
        if (++active_[i] == 1) value_[i] = v;
        else value_[i] = Logic::Undef;
      }
    }
  }
  // Fire source nodes (Const / Random).
  for (NodeId ni : g_.sourceNodes) {
    const Node& node = nl.node(ni);
    touchNode(ni);
    nodeFired_[ni] = 1;
    ++stats_.nodeFirings;
    Logic v = node.op == NodeOp::Const
                  ? node.constVal
                  : logicFromBool(xorshift(rng) & 1);
    contribute(g_.denseOf[node.output], v);
  }
  // Fire all nets with no non-REG driver (everything else fires from
  // contribute() when its last driver arrives).
  for (uint32_t i : undrivenNets_) {
    touchNet(i);
    if (!netFired_[i]) fireNet(i, value_[i]);
  }

  // Propagate.
  size_t cursor = 0;
  while (cursor < worklist_.size() && !out.watchdogTripped) {
    uint32_t net = worklist_[cursor++];
    Logic v = value_[net];
    for (uint32_t e = g_.consumerStart[net]; e < g_.consumerStart[net + 1];
         ++e) {
      if (++events > eventBudget) {
        out.watchdogTripped = true;
        break;
      }
      NodeId ni = g_.consumers[e];
      uint32_t idx = g_.consumerInputIdx[e];
      const Node& node = nl.node(ni);
      if (node.op == NodeOp::Reg) continue;  // latched at end of cycle
      ++stats_.inputEvents;

      touchNode(ni);
      uint32_t slot = node.inputBegin + idx;
      if (!inputKnown_[slot]) {
        inputKnown_[slot] = 1;
        inputVal_[slot] = v;
        ++nodeKnown_[ni];
        Logic gv = gateInput(v);
        if (gv == Logic::Zero) ++nodeZeros_[ni];
        else if (gv == Logic::One) ++nodeOnes_[ni];
        else nodeUndef_[ni] = 1;
      }
      if (nodeFired_[ni]) {
        // Already fired (short-circuit); the node contributed exactly
        // once when it fired.  Nothing to do.
        ++stats_.shortCircuitSkips;
        continue;
      }

      uint32_t total = node.inputCount;
      Logic outV = Logic::Undef;
      bool fire = false;
      switch (node.op) {
        case NodeOp::Buf: {
          outV = v;
          // Implicit type conversion (§3.2): a boolean assignee turns a
          // disconnected multiplex value into UNDEF.
          if (outV == Logic::NoInfl &&
              g_.nets[g_.denseOf[node.output]].isBool) {
            outV = Logic::Undef;
          }
          fire = true;
          break;
        }
        case NodeOp::Not: {
          Logic in[1] = {v};
          outV = evalGate(NodeOp::Not, in);
          fire = true;
          break;
        }
        case NodeOp::And:
        case NodeOp::Nand:
        case NodeOp::Or:
        case NodeOp::Nor: {
          GateCounters c;
          c.known = nodeKnown_[ni];
          c.zeros = nodeZeros_[ni];
          c.ones = nodeOnes_[ni];
          fire = gateCanFire(node.op, c, total, outV);
          break;
        }
        case NodeOp::Xor: {
          if (nodeKnown_[ni] == total) {
            outV = nodeUndef_[ni] ? Logic::Undef
                                  : logicFromBool(nodeOnes_[ni] & 1);
            fire = true;
          }
          break;
        }
        case NodeOp::Equal: {
          uint32_t m = total / 2;
          uint32_t base = node.inputBegin;
          // Short-circuit on a known mismatching pair.
          uint32_t partner = idx < m ? idx + m : idx - m;
          if (inputKnown_[base + partner]) {
            Logic x = gateInput(inputVal_[base + idx]);
            Logic y = gateInput(inputVal_[base + partner]);
            if (isDefined(x) && isDefined(y) && x != y) {
              outV = Logic::Zero;
              fire = true;
            }
          }
          if (!fire && nodeKnown_[ni] == total) {
            std::vector<Logic> a(inputVal_.begin() + base,
                                 inputVal_.begin() + base + m);
            std::vector<Logic> b(inputVal_.begin() + base + m,
                                 inputVal_.begin() + base + total);
            outV = evalEqual(a, b);
            fire = true;
          }
          break;
        }
        case NodeOp::Switch: {
          uint32_t base = node.inputBegin;
          if (!inputKnown_[base]) break;  // condition still unknown
          Logic c = gateInput(inputVal_[base]);
          if (c == Logic::Zero) {
            outV = Logic::NoInfl;
            fire = true;
          } else if (c == Logic::Undef) {
            outV = Logic::Undef;
            fire = true;
          } else if (inputKnown_[base + 1]) {
            outV = inputVal_[base + 1];
            fire = true;
          }
          break;
        }
        case NodeOp::Const:
        case NodeOp::Random:
        case NodeOp::Reg:
          break;  // handled elsewhere
      }
      if (fire) {
        nodeFired_[ni] = 1;
        ++stats_.nodeFirings;
        contribute(g_.denseOf[node.output], outV);
      }
    }
  }

  // On a consistent DAG every net fires; only a watchdog-aborted cycle
  // leaves nets behind, and then their (stale or untouched) slots read
  // UNDEF.
  if (firedCount_ < g_.denseCount) {
    for (size_t i = 0; i < g_.denseCount; ++i) {
      if (netStamp_[i] != epoch_) {
        out.netValues[i] = Logic::Undef;
        out.activeCounts[i] = 0;
      } else if (!netFired_[i]) {
        out.netValues[i] = Logic::Undef;
      }
    }
  }

  // Watchdog margin: how much of the event budget was left this cycle.
  uint64_t margin =
      out.watchdogTripped || events > eventBudget ? 0 : eventBudget - events;
  if (margin < stats_.watchdogMarginMin) stats_.watchdogMarginMin = margin;

  out.rngState = rng;
  collisions_ = nullptr;
  faults_ = nullptr;
  value_ = nullptr;
  active_ = nullptr;
}

}  // namespace zeus
