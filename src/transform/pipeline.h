// The graph optimization pipeline (ROADMAP item 3): const-fold, dead-node
// elimination and alias-class collapse over the elaborated design, run
// between elaboration and simulation.  Every pass preserves observable
// behaviour exactly — latched values, SimErrors and RANDOM streams are
// bit-identical at every level — and the post-pass verifier
// (src/transform/verify.h) re-checks the graph from first principles on
// every compile, all levels included.  docs/optimizer.md has the contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/elab/design.h"
#include "src/sim/graph.h"
#include "src/support/diagnostics.h"

namespace zeus {

struct OptOptions {
  /// 0 = verify only (no graph changes); 1 = const-fold + DCE + alias
  /// collapse.  zeusc defaults to 1.
  int level = 1;
};

/// Effect of one pass, for --opt-stats and the bench opt blocks.
struct PassStats {
  std::string pass;
  uint64_t nodesFolded = 0;   ///< gates/switches replaced by CONST
  uint64_t nodesRemoved = 0;  ///< nodes deleted outright
  uint64_t netsDropped = 0;   ///< alias classes losing their dense slot
};

struct OptReport {
  int level = 0;
  bool ran = false;       ///< passes executed (false when hasCycle)
  bool hasCycle = false;  ///< design is cyclic; nothing was touched
  bool verified = false;  ///< post-pass verifier passed
  std::string verifyError;  ///< first violation, when !verified

  uint64_t nodesBefore = 0, nodesAfter = 0;
  uint64_t denseBefore = 0, denseAfter = 0;
  std::vector<PassStats> passes;

  /// The semantics graph of the optimized design, the one the verifier
  /// checked; null when the design is cyclic.  It borrows the Design, so
  /// simulate on it instead of building another.
  std::unique_ptr<SimGraph> graph;

  [[nodiscard]] uint64_t totalFolded() const;
  [[nodiscard]] uint64_t totalRemoved() const;
  [[nodiscard]] uint64_t totalDropped() const;

  /// The zeus-opt-v1 JSON object behind `zeusc --opt-stats`
  /// (schema in docs/optimizer.md).
  [[nodiscard]] std::string renderJson(const std::string& designName) const;
};

/// Runs the pipeline in place on `design`, verifies the result and hands
/// the verified graph back in OptReport::graph.  A compile builds the
/// graph once at -O0 and twice at -O1 (on entry and after the passes).
/// CombinationalLoop (cyclic design) is reported through `diags` exactly
/// once per compilation; a verifier failure reports
/// Diag::OptimizerVerifyFailed (an internal error, never a user error).
/// At level >= 1, Design::optFingerprint becomes nonzero so snapshots
/// taken at different levels can never be cross-restored.
OptReport optimizeDesign(Design& design, DiagnosticEngine& diags,
                         const OptOptions& opts = {});

}  // namespace zeus
