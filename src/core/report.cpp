#include "src/core/report.h"

#include <functional>

namespace zeus {

namespace {

void walkInstances(const InstanceData& inst,
                   const std::function<void(const InstanceData&, int)>& fn,
                   int depth) {
  fn(inst, depth);
  // Iterate the full member map: inline function-call instances are not
  // part of memberOrder.
  for (const auto& [name, member] : inst.members) {
    std::vector<const Obj*> stack{&member.obj};
    while (!stack.empty()) {
      const Obj* o = stack.back();
      stack.pop_back();
      if (o->kind == ObjKind::Array || o->kind == ObjKind::Record) {
        for (const Obj& e : o->elems) stack.push_back(&e);
      } else if (o->kind == ObjKind::Instance && o->inst) {
        walkInstances(*o->inst, fn, depth + 1);
      }
    }
  }
}

}  // namespace

DesignStats computeStats(const Design& design, const SimGraph& graph) {
  DesignStats s;
  s.nets = design.netlist.netCount();
  s.aliasClasses = graph.denseCount;
  s.depth = graph.maxLevel;
  for (const Node& n : design.netlist.nodes()) {
    switch (n.op) {
      case NodeOp::Reg: ++s.registers; break;
      case NodeOp::Switch: ++s.switches; break;
      case NodeOp::Buf: ++s.buffers; break;
      case NodeOp::Const: ++s.constants; break;
      case NodeOp::Random: ++s.gates; break;
      default: ++s.gates; break;
    }
  }
  if (design.top) {
    walkInstances(*design.top,
                  [&](const InstanceData& inst, int) {
                    ++s.instances;
                    if (inst.type) ++s.instancesByType[inst.type->name];
                  },
                  0);
  }
  return s;
}

std::string renderStats(const DesignStats& s) {
  std::string out;
  auto row = [&out](const char* label, size_t value) {
    out += label;
    out += ": ";
    out += std::to_string(value);
    out += '\n';
  };
  row("nets", s.nets);
  row("alias classes", s.aliasClasses);
  row("registers", s.registers);
  row("switches (IF nodes)", s.switches);
  row("gates", s.gates);
  row("buffers", s.buffers);
  row("constants", s.constants);
  row("instances", s.instances);
  row("combinational depth", s.depth);
  for (const auto& [type, count] : s.instancesByType) {
    out += "  " + type + ": " + std::to_string(count) + "\n";
  }
  return out;
}

std::string exportDot(const Design& design, size_t maxNodes) {
  const Netlist& nl = design.netlist;
  std::string out = "digraph zeus {\n  rankdir=LR;\n";
  size_t emitted = 0;
  for (NodeId i = 0; i < nl.nodeCount() && emitted < maxNodes; ++i) {
    const Node& n = nl.node(i);
    out += "  n" + std::to_string(i) + " [label=\"" +
           std::string(nodeOpName(n.op)) + "\" shape=" +
           (n.op == NodeOp::Reg ? "box" : "ellipse") + "];\n";
    ++emitted;
  }
  // Net names become edge labels between driver and consumer nodes.
  std::map<NetId, std::vector<NodeId>> driversOf;
  for (NodeId i = 0; i < nl.nodeCount() && i < maxNodes; ++i) {
    const Node& n = nl.node(i);
    if (n.output != kNoNet) driversOf[nl.find(n.output)].push_back(i);
  }
  for (NodeId j = 0; j < nl.nodeCount() && j < maxNodes; ++j) {
    for (NetId in : nl.inputs(j)) {
      NetId root = nl.find(in);
      auto it = driversOf.find(root);
      if (it == driversOf.end()) continue;
      for (NodeId i : it->second) {
        out += "  n" + std::to_string(i) + " -> n" + std::to_string(j) +
               " [label=\"" + nl.net(root).name + "\"];\n";
      }
    }
  }
  if (nl.nodeCount() > maxNodes) {
    out += "  trunc [label=\"... " +
           std::to_string(nl.nodeCount() - maxNodes) +
           " more nodes\" shape=plaintext];\n";
  }
  out += "}\n";
  return out;
}

std::string renderInstanceTree(const Design& design) {
  std::string out;
  if (!design.top) return out;
  walkInstances(*design.top,
                [&](const InstanceData& inst, int depth) {
                  out.append(static_cast<size_t>(depth) * 2, ' ');
                  out += inst.path;
                  if (inst.type) {
                    out += ": ";
                    out += inst.type->name;
                  }
                  if (inst.isFunctionCall) out += " (function call)";
                  out += '\n';
                },
                0);
  return out;
}

}  // namespace zeus
