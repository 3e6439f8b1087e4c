#include "src/sim/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

#include "src/support/trace.h"

namespace zeus {

SimGraph buildSimGraph(const Design& design, DiagnosticEngine& diags) {
  ZEUS_TRACE_SPAN("graph-build", "compile");
  SimGraph g;
  g.design = &design;
  const Netlist& nl = design.netlist;

  // Classes referenced by any node, port, CLK or RSET keep a dense slot
  // even when flagged simDropped — dropping is only ever an optimization,
  // never a semantic change the evaluators could observe.
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

  // Dense numbering of class roots (dropped, unreferenced classes get the
  // kNoDense sentinel and no per-cycle state anywhere downstream).
  g.denseOf.assign(nl.netCount(), SimGraph::kNoDense);
  for (NetId i = 0; i < nl.netCount(); ++i) {
    NetId root = nl.find(i);
    if (root == i && (referenced[i] || !nl.net(i).simDropped)) {
      g.denseOf[i] = static_cast<uint32_t>(g.rootOf.size());
      g.rootOf.push_back(i);
    }
  }
  for (NetId i = 0; i < nl.netCount(); ++i) {
    g.denseOf[i] = g.denseOf[nl.find(i)];
  }
  g.denseCount = g.rootOf.size();

  // Net info: class-wide boolean-ness and input-ness.
  g.nets.assign(g.denseCount, {});
  for (NetId i = 0; i < nl.netCount(); ++i) {
    const Net& n = nl.net(i);
    uint32_t dn = g.denseOf[i];
    if (dn == SimGraph::kNoDense) continue;
    SimGraph::NetInfo& info = g.nets[dn];
    if (n.kind == BasicKind::Boolean) info.isBool = true;
    if (n.isPrimaryInput) info.isInput = true;
  }

  // Port slot table: every port class was marked referenced above, so
  // each bit has a slot.
  g.portSlots.resize(design.ports.size());
  for (size_t pi = 0; pi < design.ports.size(); ++pi) {
    const Port& p = design.ports[pi];
    SimGraph::PortSlots& ps = g.portSlots[pi];
    ps.dense.resize(p.nets.size());
    ps.boolMask.assign((p.nets.size() + 63) / 64, 0);
    for (size_t i = 0; i < p.nets.size(); ++i) {
      ps.dense[i] = g.denseOf[nl.find(p.nets[i])];
      if (p.kinds[i] == BasicKind::Boolean) {
        ps.boolMask[i / 64] |= uint64_t{1} << (i % 64);
      }
    }
  }

  // Driver counts, consumer and driver edges.
  std::vector<std::vector<std::pair<NodeId, uint32_t>>> consumerLists(
      g.denseCount);
  std::vector<std::vector<NodeId>> driverLists(g.denseCount);
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.output != kNoNet) {
      SimGraph::NetInfo& info = g.nets[g.denseOf[node.output]];
      if (node.op == NodeOp::Reg) info.regDriven = true;
      else info.nonRegDrivers++;
      driverLists[g.denseOf[node.output]].push_back(ni);
    }
    for (uint32_t ii = 0; ii < node.inputs.size(); ++ii) {
      consumerLists[g.denseOf[node.inputs[ii]]].push_back({ni, ii});
    }
    if (node.op == NodeOp::Reg) g.regNodes.push_back(ni);
    else if (node.inputs.empty()) g.sourceNodes.push_back(ni);
  }
  g.consumerStart.assign(g.denseCount + 1, 0);
  g.driverStart.assign(g.denseCount + 1, 0);
  for (size_t i = 0; i < g.denseCount; ++i) {
    g.consumerStart[i + 1] =
        g.consumerStart[i] + static_cast<uint32_t>(consumerLists[i].size());
    g.driverStart[i + 1] =
        g.driverStart[i] + static_cast<uint32_t>(driverLists[i].size());
  }
  g.consumers.resize(g.consumerStart.back());
  g.consumerInputIdx.resize(g.consumerStart.back());
  g.driverNodes.resize(g.driverStart.back());
  for (size_t i = 0; i < g.denseCount; ++i) {
    uint32_t base = g.consumerStart[i];
    for (size_t k = 0; k < consumerLists[i].size(); ++k) {
      g.consumers[base + k] = consumerLists[i][k].first;
      g.consumerInputIdx[base + k] = consumerLists[i][k].second;
    }
    std::copy(driverLists[i].begin(), driverLists[i].end(),
              g.driverNodes.begin() + g.driverStart[i]);
    g.nets[i].multiDriven =
        driverLists[i].size() + (g.nets[i].isInput ? 1 : 0) > 1;
  }
  g.regIndexOf.assign(nl.nodeCount(), SimGraph::kNotReg);
  g.regInput.resize(g.regNodes.size());
  for (size_t k = 0; k < g.regNodes.size(); ++k) {
    g.regIndexOf[g.regNodes[k]] = static_cast<uint32_t>(k);
    g.regInput[k] = g.denseOf[nl.node(g.regNodes[k]).inputs[0]];
  }

  // Topological sort (Kahn) over non-REG nodes, recording the levelized
  // schedule and the net levels on the fly.
  g.netLevel.assign(g.denseCount, 0);
  g.schedule.reserve(nl.nodeCount() - g.regNodes.size() + g.denseCount);
  std::vector<uint32_t> netPending(g.denseCount);
  std::vector<uint32_t> nodePending(nl.nodeCount(), 0);
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.op == NodeOp::Reg) continue;
    nodePending[ni] = static_cast<uint32_t>(node.inputs.size());
  }
  size_t processedNodes = 0;
  const size_t nonRegNodes = nl.nodeCount() - g.regNodes.size();
  std::vector<char> nodeDone(nl.nodeCount(), 0);
  std::vector<uint32_t> nodeLevel(nl.nodeCount(), 0);
  for (size_t i = 0; i < g.denseCount; ++i) {
    netPending[i] = g.nets[i].nonRegDrivers;
  }
  // Source nodes (Const/Random) complete immediately.
  for (NodeId ni : g.sourceNodes) {
    nodeDone[ni] = 1;
    g.schedule.push_back({ni, /*isNode=*/true});
    ++processedNodes;
    const Node& node = nl.node(ni);
    if (node.output != kNoNet) --netPending[g.denseOf[node.output]];
  }
  std::deque<uint32_t> readyNets;
  for (size_t i = 0; i < g.denseCount; ++i) {
    if (netPending[i] == 0) readyNets.push_back(static_cast<uint32_t>(i));
  }
  while (!readyNets.empty()) {
    uint32_t net = readyNets.front();
    readyNets.pop_front();
    g.schedule.push_back({net, /*isNode=*/false});
    uint32_t level = g.netLevel[net];
    g.maxLevel = std::max(g.maxLevel, level);
    for (uint32_t e = g.consumerStart[net]; e < g.consumerStart[net + 1];
         ++e) {
      NodeId ni = g.consumers[e];
      const Node& node = nl.node(ni);
      if (node.op == NodeOp::Reg) continue;  // latches at end of cycle
      nodeLevel[ni] = std::max(nodeLevel[ni], level + 1);
      if (--nodePending[ni] == 0) {
        nodeDone[ni] = 1;
        g.schedule.push_back({ni, /*isNode=*/true});
        ++processedNodes;
        if (node.output != kNoNet) {
          uint32_t on = g.denseOf[node.output];
          g.netLevel[on] = std::max(g.netLevel[on], nodeLevel[ni]);
          if (--netPending[on] == 0) readyNets.push_back(on);
        }
      }
    }
  }
  if (processedNodes < nonRegNodes) {
    g.hasCycle = true;
    // Report a user-visible signal on the loop if one exists (generated
    // gate nets are named "$...").
    NodeId report = kNoNet;
    for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
      const Node& node = nl.node(ni);
      if (node.op == NodeOp::Reg || nodeDone[ni] || node.output == kNoNet)
        continue;
      if (report == kNoNet) report = ni;
      if (nl.net(nl.find(node.output)).name[0] != '$') {
        report = ni;
        break;
      }
    }
    if (report != kNoNet) {
      const Node& node = nl.node(report);
      std::string name = nl.net(nl.find(node.output)).name;
      g.cycleDescription =
          "combinational feedback loop through signal '" + name +
          "' (feedback must lead through a register, §1)";
      diags.error(Diag::CombinationalLoop, node.loc, g.cycleDescription);
    }
  }
  return g;
}

PortHandle SimGraph::port(const std::string& name) const {
  const Port* p = design->findPort(name);
  if (!p) throw std::invalid_argument("no port named '" + name + "'");
  const size_t i = static_cast<size_t>(p - design->ports.data());
  return {this, static_cast<uint32_t>(i),
          static_cast<uint32_t>(portSlots[i].dense.size())};
}

const SimGraph::PortSlots& SimGraph::slotsOf(PortHandle h) const {
  if (h.graph != this || h.index >= portSlots.size()) {
    throw std::invalid_argument(
        "port handle was not resolved on this design's graph");
  }
  return portSlots[h.index];
}

void SimGraph::checkWidth(PortHandle h, size_t bits) const {
  const size_t width = slotsOf(h).dense.size();
  if (bits != width) {
    throw std::invalid_argument("port '" + portName(h) + "' has " +
                                std::to_string(width) + " bit(s), got " +
                                std::to_string(bits));
  }
}

void checkSequentialOrder(const Design& design, const SimGraph& graph,
                          DiagnosticEngine& diags) {
  if (graph.hasCycle) return;
  const Netlist& nl = design.netlist;
  for (const SeqGroups& sg : design.sequentials) {
    const auto& groups = sg.groups;
    if (groups.size() < 2) continue;
    // Budget guard: this is an O(G * E) reachability sweep.
    size_t totalNets = 0;
    for (const auto& grp : groups) totalNets += grp.size();
    if (totalNets * graph.consumers.size() > 50'000'000) continue;

    // Membership: net -> earliest group that assigns it.
    std::vector<int32_t> groupOf(graph.denseCount, -1);
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      for (NetId n : groups[gi]) {
        uint32_t dn = graph.dense(n);
        if (dn == SimGraph::kNoDense) continue;
        if (groupOf[dn] < 0) groupOf[dn] = static_cast<int32_t>(gi);
      }
    }
    // Forward BFS from each group's nets; reaching a net assigned in an
    // earlier group means the specified order is incompatible.
    for (size_t gj = 1; gj < groups.size(); ++gj) {
      std::vector<char> seen(graph.denseCount, 0);
      std::deque<uint32_t> work;
      for (NetId n : groups[gj]) {
        uint32_t dn = graph.dense(n);
        if (dn == SimGraph::kNoDense) continue;
        if (!seen[dn]) {
          seen[dn] = 1;
          work.push_back(dn);
        }
      }
      bool violated = false;
      while (!work.empty() && !violated) {
        uint32_t net = work.front();
        work.pop_front();
        for (uint32_t e = graph.consumerStart[net];
             e < graph.consumerStart[net + 1]; ++e) {
          const Node& node = nl.node(graph.consumers[e]);
          if (node.op == NodeOp::Reg || node.output == kNoNet) continue;
          uint32_t on = graph.dense(node.output);
          if (seen[on]) continue;
          seen[on] = 1;
          if (groupOf[on] >= 0 &&
              groupOf[on] < static_cast<int32_t>(gj)) {
            diags.warning(
                Diag::SequentialOrderViolated, sg.loc,
                "SEQUENTIAL annotation incompatible with data flow: "
                "statement " +
                    std::to_string(gj + 1) + " feeds signal '" +
                    nl.net(graph.rootOf[on]).name + "' assigned by statement " +
                    std::to_string(groupOf[on] + 1));
            violated = true;
            break;
          }
          work.push_back(on);
        }
      }
    }
  }
}

}  // namespace zeus
