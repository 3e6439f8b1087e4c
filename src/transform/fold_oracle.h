// The constant-folding / driver-activity oracle over the §8 semantics
// graph — the single source of truth shared by the lint rules
// (ConstantGate, DeadBranch, ConstantRegister, UnreadNet) and the
// optimization pipeline's const-fold and DCE passes, so the two can never
// disagree about what is constant, active or dead.
//
// *Constancy* answers "does this net/node take the same Logic value on
// every cycle, whatever the inputs do?"  *Activity* answers "does this
// driver contribute an active (0/1/UNDEF) value on every cycle?" — the §8
// resolution rule only collides *active* contributions.  Primary IN ports
// (and CLK/RSET) count as always-active, never-constant sources: a
// testbench drives them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/elab/design.h"
#include "src/sim/graph.h"

namespace zeus {

struct FoldOracle {
  /// Lattice bottom for netConst/nodeConst: not (provably) constant.
  static constexpr int8_t kUnknown = -1;
  static int8_t known(Logic v) { return static_cast<int8_t>(v); }

  const Design& design;
  const SimGraph& g;
  const Netlist& nl;

  std::vector<char> inputAlways;          ///< In-mode port bit or CLK/RSET
  std::vector<char> externallyDrivable;   ///< any port bit or CLK/RSET

  std::vector<int8_t> netConst, nodeConst;  ///< kUnknown or a Logic value
  std::vector<char> netAlways, nodeAlways;  ///< active contribution, every cycle
  std::vector<char> live;  ///< class reaches an OUT/INOUT port (backwards)

  /// Runs fold + liveness eagerly; `g` must be acyclic (callers check
  /// SimGraph::hasCycle first — SimGraph::schedule is the sweep order).
  FoldOracle(const Design& d, const SimGraph& graph);

  [[nodiscard]] uint32_t driverCount(uint32_t dn) const {
    return g.driverStart[dn + 1] - g.driverStart[dn];
  }
  [[nodiscard]] uint32_t consumerCount(uint32_t dn) const {
    return g.consumerStart[dn + 1] - g.consumerStart[dn];
  }

  /// A node the const-fold pass may replace with a CONST: the predefined
  /// gates plus BUF and SWITCH — never REG (state), RANDOM (stream
  /// position is observable) or CONST itself.
  [[nodiscard]] static bool foldable(NodeOp op) {
    switch (op) {
      case NodeOp::Const:
      case NodeOp::Reg:
      case NodeOp::Random: return false;
      default: return true;
    }
  }

 private:
  std::vector<char> netDone;

  void finalizeNet(uint32_t dn);
  void fold();
  void computeLiveness();
};

}  // namespace zeus
