// Post-pass graph verifier: independently re-derives every SimGraph
// invariant from the netlist and compares it against what buildSimGraph
// produced, so a malformed pass output hard-fails at compile time instead
// of silently corrupting a simulation.  Runs after the optimization
// pipeline on every compile (all -O levels).
#pragma once

#include <string>

#include "src/elab/design.h"
#include "src/sim/graph.h"

namespace zeus {

/// Checks, from first principles:
///   * dense numbering: rootOf/denseOf are mutually consistent, every
///     class referenced by a node, port, CLK or RSET has a slot, and a
///     kNoDense class is simDropped and completely unreferenced;
///   * CSR edges: driver/consumer lists match an independent recount
///     (exact node sets, exact input positions);
///   * NetInfo: nonRegDrivers / regDriven / isBool / isInput / multiDriven
///     equal a fresh recomputation over the netlist;
///   * node partition: regNodes and the schedule's node steps cover every
///     node exactly once, sourceNodes in NodeId order (the RANDOM stream
///     contract); regInput matches regNodes;
///   * the schedule the levelized kernel's tape is lowered from: every
///     dense net has exactly one resolve step, the sourceNodes open it in
///     order, each node step follows its input nets' resolve steps and
///     each resolve step follows its non-REG drivers' node steps;
///   * netLevel is a longest-path labelling consistent with the edges.
///
/// Returns "" when the graph is well-formed, else a one-line description
/// of the first violation found.
[[nodiscard]] std::string verifyGraph(const Design& design,
                                      const SimGraph& g);

}  // namespace zeus
