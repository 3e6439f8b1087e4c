// Flat netlist produced by elaboration.
//
// A Net is one basic signal (paper: a node of the semantics graph).  A Node
// is a driver: a predefined gate, an IF switch, a register, a constant, a
// buffer (wire/assignment/type conversion) or a random source.  Aliasing
// (`==`) is union–find over nets; driver accounting lives on class roots so
// the single-unconditional-assignment rules of §4.7 see through aliases.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sema/type_table.h"
#include "src/support/diagnostics.h"
#include "src/support/logic.h"

namespace zeus {

using NetId = uint32_t;
using NodeId = uint32_t;
inline constexpr NetId kNoNet = 0xFFFFFFFFu;

enum class NodeOp : uint8_t {
  Const,   ///< drives constVal
  Buf,     ///< output := input (also multiplex→boolean conversion)
  Not,     ///< 1 input
  And,     ///< n inputs
  Or,      ///< n inputs
  Nand,    ///< n inputs
  Nor,     ///< n inputs
  Xor,     ///< n inputs (parity; defined only when all inputs defined)
  Equal,   ///< 2m inputs: a[0..m) then b[0..m); 1 output
  Switch,  ///< inputs [cond, data]; §8 IF semantics
  Reg,     ///< inputs [in]; output = stored value (cycle breaker)
  Random,  ///< no inputs; pseudo-random 0/1 each cycle
};

std::string_view nodeOpName(NodeOp op);

/// A fixed-size record; its inputs live in the Netlist's pool (inputs()).
struct Node {
  NodeOp op = NodeOp::Buf;
  Logic constVal = Logic::Undef;  ///< for Const
  NetId output = kNoNet;
  uint32_t inputBegin = 0;  ///< first input's position in the pool
  uint32_t inputCount = 0;
  SourceLoc loc;
};

struct Net {
  std::string name;
  BasicKind kind = BasicKind::Boolean;
  SourceLoc loc;

  // §4.7 driver accounting (kept on alias-class roots).
  uint32_t uncondDrivers = 0;
  uint32_t condDrivers = 0;
  bool aliasTarget = false;   ///< was an operand of ==
  bool allowCond = false;     ///< exception 1: boolean that may be driven
                              ///< conditionally (child IN / formal OUT)
  bool touchedByParent = false;  ///< used/closed from the instantiating side
  bool isPrimaryInput = false;
  bool isPrimaryOutput = false;
  bool isRegOutput = false;
  bool synthetic = false;  ///< generated by the elaborator ($gate, $mux, …)
  /// Marked by the optimizer's DCE pass: the class is neither driven nor
  /// read after optimization, so buildSimGraph gives it no dense slot.
  /// The Net itself stays (names, Obj tree and NetIds are stable);
  /// reading it through the simulator yields NOINFL.
  bool simDropped = false;
};

class Netlist {
 public:
  NetId addNet(std::string name, BasicKind kind, SourceLoc loc);
  /// Appends a node, copying its inputs (not from the pool) into the pool.
  NodeId addNode(NodeOp op, std::span<const NetId> inputs, NetId output,
                 SourceLoc loc, Logic constVal = Logic::Undef);
  NodeId addNode(NodeOp op, std::initializer_list<NetId> inputs,
                 NetId output, SourceLoc loc, Logic constVal = Logic::Undef) {
    return addNode(op, {inputs.begin(), inputs.size()}, output, loc, constVal);
  }

  [[nodiscard]] size_t netCount() const { return nets_.size(); }
  [[nodiscard]] size_t nodeCount() const { return nodes_.size(); }
  Net& net(NetId id) { return nets_[id]; }
  [[nodiscard]] const Net& net(NetId id) const { return nets_[id]; }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  /// The node's input nets, in order.  The span points into the pool, so
  /// the next addNode invalidates it.
  [[nodiscard]] std::span<const NetId> inputs(NodeId id) const {
    const Node& n = nodes_[id];
    return {inputPool_.data() + n.inputBegin, n.inputCount};
  }
  /// Every node's input range; a folded node's old range stays unused.
  [[nodiscard]] std::span<const NetId> inputPool() const { return inputPool_; }

  /// Turns a node into a Const driving v on its output (constant fold).
  void foldToConst(NodeId id, Logic v);

  /// NetId of the first net with this name, or kNoNet.  A scan in NetId
  /// order: the callers are by-name lookups off the compile path.
  [[nodiscard]] NetId findByName(std::string_view name) const;

  /// Union–find over alias classes (path compression).
  [[nodiscard]] NetId find(NetId id) const;
  /// Merges the alias classes of a and b; driver counts accumulate on the
  /// surviving root.  Returns the new root.
  NetId unite(NetId a, NetId b);

  /// Driver nodes per *root* net (nodes register under the class root that
  /// was current at insertion; canonicalise() rebuilds after aliasing).
  [[nodiscard]] const std::vector<NodeId>& driversOf(NetId root) const {
    return drivers_[root];
  }

  /// Rebuilds driver lists keyed by final class roots and remaps every node
  /// input/output to roots.  Call once after elaboration completes.
  void canonicalise();

  /// Removes every node whose keep[id] is false, compacting nodes_ and the
  /// pool in stable (insertion) order and rebuilding the driver lists.
  /// NodeIds change; NetIds do not.  Used by the optimizer's DCE pass.
  void removeNodes(const std::vector<char>& keep);

 private:
  std::vector<Net> nets_;
  std::vector<Node> nodes_;
  std::vector<NetId> inputPool_;
  mutable std::vector<NetId> parent_;
  std::vector<std::vector<NodeId>> drivers_;
};

}  // namespace zeus
