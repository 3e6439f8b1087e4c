#include "src/transform/verify.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace zeus {

namespace {

std::string at(const char* what, size_t i) {
  return std::string(what) + " " + std::to_string(i);
}

}  // namespace

std::string verifyGraph(const Design& design, const SimGraph& g) {
  const Netlist& nl = design.netlist;
  if (g.hasCycle) return "";  // unsimulatable by contract; nothing to hold

  // --- dense numbering -------------------------------------------------
  if (g.rootOf.size() != g.denseCount) return "rootOf size != denseCount";
  if (g.denseOf.size() != nl.netCount()) return "denseOf size != netCount";
  if (g.nets.size() != g.denseCount) return "nets size != denseCount";
  for (uint32_t dn = 0; dn < g.denseCount; ++dn) {
    NetId root = g.rootOf[dn];
    if (root >= nl.netCount()) return at("rootOf out of range at", dn);
    if (nl.find(root) != root) return at("rootOf not a class root at", dn);
    if (g.denseOf[root] != dn) return at("denseOf(rootOf) mismatch at", dn);
  }
  for (NetId i = 0; i < nl.netCount(); ++i) {
    if (g.denseOf[i] != g.denseOf[nl.find(i)]) {
      return at("denseOf differs from class root at net", i);
    }
    if (g.denseOf[i] != SimGraph::kNoDense &&
        g.denseOf[i] >= g.denseCount) {
      return at("denseOf out of range at net", i);
    }
  }

  // A class without a slot must be dropped and unreferenced.
  std::vector<char> referenced(nl.netCount(), 0);
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.output != kNoNet) referenced[nl.find(node.output)] = 1;
    for (NetId in : node.inputs) referenced[nl.find(in)] = 1;
  }
  for (const Port& p : design.ports) {
    for (NetId n : p.nets) referenced[nl.find(n)] = 1;
  }
  for (NetId special : {design.clk, design.rset}) {
    if (special != kNoNet) referenced[nl.find(special)] = 1;
  }
  for (NetId i = 0; i < nl.netCount(); ++i) {
    if (nl.find(i) != i) continue;
    if (g.denseOf[i] == SimGraph::kNoDense) {
      if (referenced[i]) return at("referenced class has no slot: net", i);
      if (!nl.net(i).simDropped) {
        return at("slotless class not marked simDropped: net", i);
      }
    }
  }

  // --- CSR edges and NetInfo -------------------------------------------
  if (g.driverStart.size() != g.denseCount + 1 ||
      g.consumerStart.size() != g.denseCount + 1) {
    return "CSR start arrays have wrong size";
  }
  if (g.driverStart[0] != 0 || g.consumerStart[0] != 0) {
    return "CSR start arrays not zero-based";
  }
  std::vector<std::vector<NodeId>> wantDrivers(g.denseCount);
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> wantConsumers(
      g.denseCount);
  std::vector<SimGraph::NetInfo> want(g.denseCount);
  for (NetId i = 0; i < nl.netCount(); ++i) {
    const Net& n = nl.net(i);
    uint32_t dn = g.denseOf[i];
    if (dn == SimGraph::kNoDense) continue;
    if (n.kind == BasicKind::Boolean) want[dn].isBool = true;
    if (n.isPrimaryInput) want[dn].isInput = true;
  }
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.output != kNoNet) {
      uint32_t dn = g.denseOf[node.output];
      if (dn == SimGraph::kNoDense) return at("node output slotless: node", ni);
      wantDrivers[dn].push_back(ni);
      if (node.op == NodeOp::Reg) want[dn].regDriven = true;
      else want[dn].nonRegDrivers++;
    }
    for (uint32_t ii = 0; ii < node.inputs.size(); ++ii) {
      uint32_t dn = g.denseOf[node.inputs[ii]];
      if (dn == SimGraph::kNoDense) return at("node input slotless: node", ni);
      wantConsumers[dn].push_back({ni, ii});
    }
  }
  for (uint32_t dn = 0; dn < g.denseCount; ++dn) {
    want[dn].multiDriven =
        wantDrivers[dn].size() + (want[dn].isInput ? 1 : 0) > 1;
    uint32_t ds = g.driverStart[dn], de = g.driverStart[dn + 1];
    if (de < ds || de > g.driverNodes.size()) {
      return at("driver CSR range malformed at", dn);
    }
    if (de - ds != wantDrivers[dn].size()) {
      return at("driver count mismatch at", dn);
    }
    std::vector<NodeId> have(g.driverNodes.begin() + ds,
                             g.driverNodes.begin() + de);
    std::sort(have.begin(), have.end());
    std::vector<NodeId> exp = wantDrivers[dn];
    std::sort(exp.begin(), exp.end());
    if (have != exp) return at("driver set mismatch at", dn);

    uint32_t cs = g.consumerStart[dn], ce = g.consumerStart[dn + 1];
    if (ce < cs || ce > g.consumers.size()) {
      return at("consumer CSR range malformed at", dn);
    }
    if (ce - cs != wantConsumers[dn].size()) {
      return at("consumer count mismatch at", dn);
    }
    std::vector<std::pair<NodeId, uint32_t>> haveC;
    for (uint32_t e = cs; e < ce; ++e) {
      haveC.push_back({g.consumers[e], g.consumerInputIdx[e]});
    }
    std::sort(haveC.begin(), haveC.end());
    std::vector<std::pair<NodeId, uint32_t>> expC = wantConsumers[dn];
    std::sort(expC.begin(), expC.end());
    if (haveC != expC) return at("consumer set mismatch at", dn);

    const SimGraph::NetInfo& info = g.nets[dn];
    if (info.nonRegDrivers != want[dn].nonRegDrivers) {
      return at("NetInfo.nonRegDrivers stale at", dn);
    }
    if (info.regDriven != want[dn].regDriven) {
      return at("NetInfo.regDriven stale at", dn);
    }
    if (info.isBool != want[dn].isBool) {
      return at("NetInfo.isBool stale at", dn);
    }
    if (info.isInput != want[dn].isInput) {
      return at("NetInfo.isInput stale at", dn);
    }
    if (info.multiDriven != want[dn].multiDriven) {
      return at("NetInfo.multiDriven stale at", dn);
    }
  }

  // --- node partition --------------------------------------------------
  std::vector<char> seen(nl.nodeCount(), 0);
  for (NodeId ni : g.regNodes) {
    if (ni >= nl.nodeCount() || nl.node(ni).op != NodeOp::Reg) {
      return at("regNodes holds a non-REG node:", ni);
    }
    if (seen[ni]) return at("node listed twice:", ni);
    seen[ni] = 1;
  }
  NodeId prevSource = 0;
  bool firstSource = true;
  for (NodeId ni : g.sourceNodes) {
    const Node& node = nl.node(ni);
    if (node.op == NodeOp::Reg || !node.inputs.empty()) {
      return at("sourceNodes holds a non-source node:", ni);
    }
    // The RANDOM stream contract: evaluators draw per-cycle randomness in
    // sourceNodes order, which must be ascending NodeId order.
    if (!firstSource && ni <= prevSource) {
      return at("sourceNodes out of NodeId order at node", ni);
    }
    prevSource = ni;
    firstSource = false;
  }
  if (g.regIndexOf.size() != nl.nodeCount() ||
      g.regInput.size() != g.regNodes.size()) {
    return "REG tables have wrong size";
  }
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const uint32_t k = g.regIndexOf[ni];
    if (k == SimGraph::kNotReg) continue;
    if (k >= g.regNodes.size() || g.regNodes[k] != ni) {
      return at("regIndexOf stale at node", ni);
    }
  }
  for (size_t k = 0; k < g.regNodes.size(); ++k) {
    const NodeId ni = g.regNodes[k];
    if (g.regIndexOf[ni] != k) return at("regIndexOf misses REG node", ni);
    if (g.regInput[k] != g.denseOf[nl.node(ni).inputs[0]]) {
      return at("regInput stale at REG node", ni);
    }
  }

  // --- the schedule ----------------------------------------------------
  // Every non-REG node and every dense net has exactly one step.
  constexpr uint32_t kUnscheduled = 0xFFFFFFFFu;
  std::vector<uint32_t> nodePos(nl.nodeCount(), kUnscheduled);
  std::vector<uint32_t> netPos(g.denseCount, kUnscheduled);
  for (size_t k = 0; k < g.schedule.size(); ++k) {
    const SimGraph::Step& step = g.schedule[k];
    if (!step.isNode) {
      if (step.index >= g.denseCount) {
        return at("schedule resolves a bad net:", step.index);
      }
      if (netPos[step.index] != kUnscheduled) {
        return at("net scheduled twice:", step.index);
      }
      netPos[step.index] = static_cast<uint32_t>(k);
      continue;
    }
    NodeId ni = step.index;
    if (ni >= nl.nodeCount() || nl.node(ni).op == NodeOp::Reg) {
      return at("schedule holds a REG or bad node:", ni);
    }
    if (seen[ni]) return at("node listed twice:", ni);
    seen[ni] = 1;
    nodePos[ni] = static_cast<uint32_t>(k);
  }
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    if (!seen[ni]) return at("node missing from schedule/regNodes:", ni);
  }
  for (uint32_t dn = 0; dn < g.denseCount; ++dn) {
    if (netPos[dn] == kUnscheduled) return at("net missing from schedule:", dn);
  }
  // The sources lead, in sourceNodes order: the RANDOM stream order.
  for (size_t k = 0; k < g.sourceNodes.size(); ++k) {
    if (!g.schedule[k].isNode || g.schedule[k].index != g.sourceNodes[k]) {
      return at("schedule does not open with sourceNodes at step", k);
    }
  }

  // --- dependences and levels ------------------------------------------
  if (g.netLevel.size() != g.denseCount) return "netLevel size mismatch";
  uint32_t maxLevel = 0;
  for (uint32_t dn = 0; dn < g.denseCount; ++dn) {
    maxLevel = std::max(maxLevel, g.netLevel[dn]);
  }
  if (maxLevel != g.maxLevel) return "maxLevel stale";
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.op == NodeOp::Reg) continue;
    // A node is evaluated after its input nets are resolved, and a net is
    // resolved after its non-REG drivers are evaluated.
    for (NetId in : node.inputs) {
      if (netPos[g.denseOf[in]] > nodePos[ni]) {
        return at("schedule evaluates a node before its input net: node",
                  ni);
      }
    }
    if (node.output == kNoNet) continue;
    uint32_t on = g.denseOf[node.output];
    if (nodePos[ni] > netPos[on]) {
      return at("schedule resolves a net before its driver: node", ni);
    }
    for (NetId in : node.inputs) {
      if (g.netLevel[on] < g.netLevel[g.denseOf[in]] + 1) {
        return at("netLevel not monotone across node", ni);
      }
    }
  }
  return "";
}

}  // namespace zeus
