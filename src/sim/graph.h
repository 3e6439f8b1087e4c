// The semantics graph (paper §8): the canonicalised netlist prepared for
// evaluation — dense net numbering over alias-class roots, consumer edges,
// combinational-cycle detection (REG is the only cycle breaker) and the
// levelized schedule every levelized evaluator runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/elab/design.h"
#include "src/support/diagnostics.h"

namespace zeus {

struct SimGraph;

/// A top-level port resolved once (SimGraph::port, Simulation::port,
/// BatchSimulation::port), in the manner of Hardcaml's Cyclesim port
/// refs: the graph it was resolved on, its Design::ports index and its
/// bit width.  Every simulator over that graph accepts it, and the
/// handle overloads of the port I/O calls neither look the name up nor
/// allocate.  A handle from another graph is rejected.
struct PortHandle {
  const SimGraph* graph = nullptr;
  uint32_t index = 0;
  uint32_t width = 0;
};

struct SimGraph {
  const Design* design = nullptr;

  /// Dense slot for an alias class the optimizer dropped (Net::simDropped
  /// and unreferenced): the class has no state in any evaluator and reads
  /// NOINFL.  Callers of dense() on arbitrary NetIds must check for it.
  static constexpr uint32_t kNoDense = 0xFFFFFFFFu;

  // Dense numbering of alias-class roots.
  std::vector<uint32_t> denseOf;   ///< NetId -> dense index (via class root)
  std::vector<NetId> rootOf;       ///< dense index -> representative NetId
  size_t denseCount = 0;

  struct NetInfo {
    uint32_t nonRegDrivers = 0;  ///< driver nodes that must fire first
    bool isBool = false;         ///< class contains a boolean member
    bool isInput = false;        ///< primary input (incl. CLK/RSET)
    bool regDriven = false;      ///< some driver is a REG
    /// More than one potential contributor (drivers + primary input), so
    /// resolving this net involves a §8 contention check.  Evaluators
    /// count EvalStats::contentionChecks off this static flag, which
    /// keeps the counter identical across scalar and batch engines.
    bool multiDriven = false;

    friend bool operator==(const NetInfo&, const NetInfo&) = default;
  };
  std::vector<NetInfo> nets;  ///< per dense index

  // Consumers in CSR form: for each dense net, the nodes reading it and
  // at which input position.
  std::vector<uint32_t> consumerStart;  ///< size denseCount+1
  std::vector<NodeId> consumers;
  std::vector<uint32_t> consumerInputIdx;

  // Drivers in CSR form (including REG nodes).
  std::vector<uint32_t> driverStart;  ///< size denseCount+1
  std::vector<NodeId> driverNodes;

  std::vector<NodeId> regNodes;
  std::vector<NodeId> sourceNodes;  ///< Const / Random (no net inputs)

  /// regIndexOf entry of a node that is not a REG.
  static constexpr uint32_t kNotReg = 0xFFFFFFFFu;
  std::vector<uint32_t> regIndexOf;  ///< NodeId -> regNodes index or kNotReg
  std::vector<uint32_t> regInput;    ///< per regNodes index: input's slot

  /// One schedule step: resolve dense net `index` from its drivers, or
  /// evaluate node `index` from its already resolved input nets.
  struct Step {
    uint32_t index;
    bool isNode;

    friend bool operator==(const Step&, const Step&) = default;
  };
  /// The levelized schedule, recorded by the Kahn walk that levels the
  /// graph: sourceNodes first and in order (the RANDOM stream order),
  /// then every dense net once, after its non-REG drivers, and every
  /// non-REG node once, after its input nets.  Its node steps are a
  /// topological order of the non-REG nodes.  Partial when hasCycle.
  std::vector<Step> schedule;
  std::vector<uint32_t> netLevel;   ///< per dense net, longest path depth
  uint32_t maxLevel = 0;

  bool hasCycle = false;
  std::string cycleDescription;

  /// Per Design::ports entry, resolved once so port I/O never walks the
  /// union-find: each bit's dense slot (port index 1, the LSB, first) and
  /// which bits are BOOLEAN, as 64-bit words (bit i is bit i % 64 of
  /// word i / 64).  Port classes always keep a slot, so none is kNoDense.
  struct PortSlots {
    std::vector<uint32_t> dense;
    std::vector<uint64_t> boolMask;

    friend bool operator==(const PortSlots&, const PortSlots&) = default;
  };
  std::vector<PortSlots> portSlots;  ///< per Design::ports index

  [[nodiscard]] uint32_t dense(NetId id) const {
    return denseOf[design->netlist.find(id)];
  }

  /// Resolves a port by name.  Throws std::invalid_argument when the
  /// design has no such port.
  [[nodiscard]] PortHandle port(const std::string& name) const;
  /// The slots behind `h`.  Throws std::invalid_argument when `h` was not
  /// resolved on this graph.
  [[nodiscard]] const PortSlots& slotsOf(PortHandle h) const;
  /// Throws std::invalid_argument unless `h`'s port is `bits` wide.
  void checkWidth(PortHandle h, size_t bits) const;
  [[nodiscard]] const std::string& portName(PortHandle h) const {
    return design->ports[h.index].name;
  }
};

/// Builds the graph.  Reports CombinationalLoop through `diags` when the
/// non-register part of the design is cyclic (then hasCycle is set and the
/// graph must not be simulated).
SimGraph buildSimGraph(const Design& design, DiagnosticEngine& diags);

/// Verifies the user's SEQUENTIAL annotations against the data dependences
/// of the graph (§4.5: the simulator checks that the specified sequence is
/// compatible).  Violations are reported as warnings.
void checkSequentialOrder(const Design& design, const SimGraph& graph,
                          DiagnosticEngine& diags);

}  // namespace zeus
