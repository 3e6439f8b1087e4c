#include "src/elab/netlist.h"

#include <cassert>

namespace zeus {

std::string_view nodeOpName(NodeOp op) {
  switch (op) {
    case NodeOp::Const: return "CONST";
    case NodeOp::Buf: return "BUF";
    case NodeOp::Not: return "NOT";
    case NodeOp::And: return "AND";
    case NodeOp::Or: return "OR";
    case NodeOp::Nand: return "NAND";
    case NodeOp::Nor: return "NOR";
    case NodeOp::Xor: return "XOR";
    case NodeOp::Equal: return "EQUAL";
    case NodeOp::Switch: return "SWITCH";
    case NodeOp::Reg: return "REG";
    case NodeOp::Random: return "RANDOM";
  }
  return "?";
}

NetId Netlist::addNet(std::string name, BasicKind kind, SourceLoc loc) {
  NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = std::move(name);
  n.kind = kind;
  n.loc = loc;
  nets_.push_back(std::move(n));
  parent_.push_back(id);
  drivers_.emplace_back();
  return id;
}

NetId Netlist::findByName(std::string_view name) const {
  for (NetId i = 0; i < nets_.size(); ++i) {
    if (nets_[i].name == name) return i;
  }
  return kNoNet;
}

NodeId Netlist::addNode(NodeOp op, std::span<const NetId> inputs,
                        NetId output, SourceLoc loc, Logic constVal) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  if (output != kNoNet) drivers_[find(output)].push_back(id);
  nodes_.push_back({op, constVal, output,
                    static_cast<uint32_t>(inputPool_.size()),
                    static_cast<uint32_t>(inputs.size()), loc});
  inputPool_.insert(inputPool_.end(), inputs.begin(), inputs.end());
  return id;
}

void Netlist::foldToConst(NodeId id, Logic v) {
  nodes_[id] = {NodeOp::Const, v, nodes_[id].output, 0, 0, nodes_[id].loc};
}

NetId Netlist::find(NetId id) const {
  assert(id < parent_.size());
  NetId root = id;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[id] != root) {
    NetId next = parent_[id];
    parent_[id] = root;
    id = next;
  }
  return root;
}

NetId Netlist::unite(NetId a, NetId b) {
  NetId ra = find(a);
  NetId rb = find(b);
  if (ra == rb) return ra;
  // Keep the lower id as root for determinism.
  if (rb < ra) std::swap(ra, rb);
  parent_[rb] = ra;
  Net& na = nets_[ra];
  const Net& nb = nets_[rb];
  na.uncondDrivers += nb.uncondDrivers;
  na.condDrivers += nb.condDrivers;
  na.aliasTarget = true;
  nets_[rb].aliasTarget = true;
  na.allowCond = na.allowCond || nb.allowCond;
  na.isPrimaryInput = na.isPrimaryInput || nb.isPrimaryInput;
  na.isPrimaryOutput = na.isPrimaryOutput || nb.isPrimaryOutput;
  na.isRegOutput = na.isRegOutput || nb.isRegOutput;
  // Merge driver node lists.
  auto& da = drivers_[ra];
  auto& db = drivers_[rb];
  da.insert(da.end(), db.begin(), db.end());
  db.clear();
  return ra;
}

void Netlist::canonicalise() {
  for (NetId& in : inputPool_) in = find(in);
  for (Node& n : nodes_) {
    if (n.output != kNoNet) n.output = find(n.output);
  }
  for (auto& d : drivers_) d.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].output != kNoNet) drivers_[nodes_[i].output].push_back(i);
  }
}

void Netlist::removeNodes(const std::vector<char>& keep) {
  assert(keep.size() == nodes_.size());
  size_t out = 0;
  uint32_t pooled = 0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!keep[i]) continue;
    Node& n = nodes_[i];  // its inputs only move down: pooled <= inputBegin
    for (uint32_t k = 0; k < n.inputCount; ++k) {
      inputPool_[pooled + k] = inputPool_[n.inputBegin + k];
    }
    n.inputBegin = pooled;
    pooled += n.inputCount;
    nodes_[out++] = n;
  }
  nodes_.resize(out);
  inputPool_.resize(pooled);
  for (auto& d : drivers_) d.clear();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].output != kNoNet) drivers_[find(nodes_[i].output)].push_back(i);
  }
}

}  // namespace zeus
