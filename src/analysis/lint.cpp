#include "src/analysis/lint.h"

#include <algorithm>
#include <map>

#include "src/core/report.h"
#include "src/sim/value.h"
#include "src/support/metrics.h"
#include "src/transform/fold_oracle.h"

namespace zeus {

namespace {

/// Constant lattice per net/node: kUnknown, or a Logic value.
constexpr int8_t kUnknown = FoldOracle::kUnknown;

inline int8_t known(Logic v) { return FoldOracle::known(v); }

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "?";
}

/// Everything the rules share: per-class representative names plus the
/// constant-folding / driver-activity oracle.  The fold and liveness
/// analyses themselves live in FoldOracle (src/transform/fold_oracle.h),
/// shared with the optimizer's const-fold and DCE passes so lint and the
/// optimizer can never disagree about what is constant, active or dead.
struct Pass {
  const Design& design;
  const SimGraph& g;
  const Netlist& nl;
  FoldOracle oracle;

  std::vector<std::string> repName;  ///< per class: most readable name
  std::vector<SourceLoc> repLoc;
  std::vector<char> repUser;  ///< class has a non-synthetic member

  // Aliases so the rule code reads the same as the oracle internals.
  std::vector<char>& inputAlways = oracle.inputAlways;
  std::vector<char>& externallyDrivable = oracle.externallyDrivable;
  std::vector<int8_t>& netConst = oracle.netConst;
  std::vector<int8_t>& nodeConst = oracle.nodeConst;
  std::vector<char>& netAlways = oracle.netAlways;
  std::vector<char>& nodeAlways = oracle.nodeAlways;
  std::vector<char>& live = oracle.live;

  explicit Pass(const Design& d, const SimGraph& graph)
      : design(d), g(graph), nl(d.netlist), oracle(d, graph) {
    const size_t nNets = g.denseCount;
    repName.resize(nNets);
    repLoc.resize(nNets);
    repUser.assign(nNets, 0);
    for (size_t i = 0; i < nNets; ++i) {
      repName[i] = nl.net(g.rootOf[i]).name;
      repLoc[i] = nl.net(g.rootOf[i]).loc;
    }
    for (NetId i = 0; i < nl.netCount(); ++i) {
      const Net& n = nl.net(i);
      uint32_t dn = g.denseOf[i];
      if (dn == SimGraph::kNoDense) continue;  // class dropped by -O1
      if (!n.synthetic && !repUser[dn]) {
        repUser[dn] = 1;
        repName[dn] = n.name;
        repLoc[dn] = n.loc;
      }
    }
  }

  [[nodiscard]] uint32_t driverCount(uint32_t dn) const {
    return oracle.driverCount(dn);
  }
  [[nodiscard]] uint32_t consumerCount(uint32_t dn) const {
    return oracle.consumerCount(dn);
  }
};

}  // namespace

std::string_view lintRuleName(LintRule rule) {
  switch (rule) {
    case LintRule::MultiplexContention: return "multiplex-contention";
    case LintRule::UndrivenNet: return "undriven-net";
    case LintRule::UnreadNet: return "unread-net";
    case LintRule::ConstantGate: return "constant-gate";
    case LintRule::DeadBranch: return "dead-branch";
    case LintRule::ConstantRegister: return "constant-register";
    case LintRule::DeepLogic: return "deep-logic";
    case LintRule::FanoutHotspot: return "fanout-hotspot";
  }
  return "?";
}

std::string LintReport::renderText(const SourceManager& sm) const {
  std::string out;
  for (const LintFinding& f : findings) {
    out += "lint ";
    out += severityName(f.severity);
    out += ' ';
    out += sm.describe(f.loc);
    out += ": [";
    out += lintRuleName(f.rule);
    out += "] ";
    out += f.message;
    out += '\n';
  }
  out += "lint: " + std::to_string(errors) + " error(s), " +
         std::to_string(warnings) + " warning(s), " +
         std::to_string(notes) + " note(s)\n";
  return out;
}

std::string LintReport::renderJson(const SourceManager& sm,
                                   const std::string& designName) const {
  std::string out = "{\n  \"zeus-lint\": 1,\n  \"design\": \"" +
                    metrics::jsonEscape(designName) + "\",\n  \"summary\": {" +
                    "\"errors\": " + std::to_string(errors) +
                    ", \"warnings\": " + std::to_string(warnings) +
                    ", \"notes\": " + std::to_string(notes) +
                    ", \"findings\": " + std::to_string(findings.size()) +
                    "},\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    LineCol lc = sm.expand(f.loc);
    out += i ? ",\n    {" : "\n    {";
    out += "\"rule\": \"" + std::string(lintRuleName(f.rule)) + "\"";
    out += ", \"severity\": \"" + std::string(severityName(f.severity)) +
           "\"";
    if (f.rule == LintRule::MultiplexContention) {
      out += std::string(", \"certain\": ") + (f.certain ? "true" : "false");
    }
    out += ", \"net\": \"" + metrics::jsonEscape(f.net) + "\"";
    out += ", \"line\": " + std::to_string(lc.line);
    out += ", \"col\": " + std::to_string(lc.col);
    out += ", \"message\": \"" + metrics::jsonEscape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

LintReport runLint(const Design& design, const SimGraph& graph,
                   DiagnosticEngine& diags, const LintOptions& opts) {
  LintReport report;
  if (graph.hasCycle) return report;  // CombinationalLoop already issued
  const Netlist& nl = design.netlist;
  Pass pass(design, graph);

  auto emit = [&](LintRule rule, Diag code, Severity sev,
                  std::string net, SourceLoc loc, std::string message,
                  bool certain = false) {
    switch (sev) {
      case Severity::Error: ++report.errors; break;
      case Severity::Warning: ++report.warnings; break;
      case Severity::Note: ++report.notes; break;
    }
    if (opts.reportToDiags) diags.report(code, sev, loc, message);
    report.findings.push_back({rule, code, sev, std::move(net), loc,
                               std::move(message), certain});
  };

  // --- (a) static multiplex contention -------------------------------
  for (uint32_t dn = 0; dn < graph.denseCount; ++dn) {
    if (pass.driverCount(dn) < 2) continue;
    const Net& root = nl.net(graph.rootOf[dn]);
    uint32_t alwaysActive = 0;
    SourceLoc loc = pass.repLoc[dn];
    // Conditional drivers with a non-constant guard, grouped by guard
    // class: identical guards are provably simultaneous.
    std::map<uint32_t, uint32_t> guardGroups;
    uint32_t conditional = 0;
    for (uint32_t e = graph.driverStart[dn]; e < graph.driverStart[dn + 1];
         ++e) {
      NodeId d = graph.driverNodes[e];
      const Node& node = nl.node(d);
      if (pass.nodeAlways[d]) {
        ++alwaysActive;
        if (node.loc.valid()) loc = node.loc;
        continue;
      }
      if (node.op == NodeOp::Switch) {
        uint32_t guard = graph.dense(nl.inputs(d)[0]);
        if (pass.netConst[guard] == known(Logic::Zero)) continue;  // dead
        ++conditional;
        ++guardGroups[guard];
        if (node.loc.valid()) loc = node.loc;
      }
    }
    std::string name = "'" + pass.repName[dn] + "'";
    if (alwaysActive >= 2) {
      emit(LintRule::MultiplexContention, Diag::LintContention,
           Severity::Error, pass.repName[dn], loc,
           "static contention (certain): signal " + name + " has " +
               std::to_string(alwaysActive) +
               " always-active drivers; every simulated cycle raises "
               "SimContention (§8)",
           /*certain=*/true);
      continue;
    }
    if (root.uncondDrivers >= 2) {
      emit(LintRule::MultiplexContention, Diag::LintContention,
           Severity::Error, pass.repName[dn], loc,
           "signal " + name +
               " is unconditionally assigned more than once across its "
               "alias class (§4.7)");
      continue;
    }
    if (root.uncondDrivers >= 1 && root.condDrivers >= 1) {
      emit(LintRule::MultiplexContention, Diag::LintContention,
           Severity::Error, pass.repName[dn], loc,
           "signal " + name +
               " is assigned both conditionally and unconditionally "
               "across its alias class (§4.7)");
      continue;
    }
    uint32_t largestGroup = 0;
    uint32_t sharedGuard = 0;
    for (const auto& [guard, count] : guardGroups) {
      if (count > largestGroup) {
        largestGroup = count;
        sharedGuard = guard;
      }
    }
    if (largestGroup >= 2) {
      emit(LintRule::MultiplexContention, Diag::LintContention,
           Severity::Warning, pass.repName[dn], loc,
           "possible contention: " + std::to_string(largestGroup) +
               " conditional drivers of signal " + name +
               " share the IF condition '" + pass.repName[sharedGuard] +
               "' and fire together whenever it holds");
      continue;
    }
    if (alwaysActive == 1 && conditional >= 1) {
      emit(LintRule::MultiplexContention, Diag::LintContention,
           Severity::Warning, pass.repName[dn], loc,
           "possible contention: signal " + name +
               " has an always-active driver plus " +
               std::to_string(conditional) +
               " conditional driver(s); any enabled IF branch collides "
               "with it");
    }
  }

  // --- (b) dead / undriven hardware ----------------------------------
  for (uint32_t dn = 0; dn < graph.denseCount; ++dn) {
    if (pass.driverCount(dn) == 0 && !pass.externallyDrivable[dn] &&
        pass.consumerCount(dn) > 0 && pass.repUser[dn]) {
      emit(LintRule::UndrivenNet, Diag::LintUndrivenNet, Severity::Warning,
           pass.repName[dn], pass.repLoc[dn],
           "signal '" + pass.repName[dn] + "' is read by " +
               std::to_string(pass.consumerCount(dn)) +
               " consumer(s) but never driven (always reads " +
               std::string(graph.nets[dn].isBool ? "UNDEF" : "NOINFL") +
               ")");
    }
  }
  for (NodeId ni = 0; ni < nl.nodeCount(); ++ni) {
    const Node& node = nl.node(ni);
    if (node.op == NodeOp::Switch) {
      if (pass.netConst[graph.dense(nl.inputs(ni)[0])] ==
          known(Logic::Zero)) {
        emit(LintRule::DeadBranch, Diag::LintDeadBranch, Severity::Warning,
             pass.repName[graph.dense(node.output)], node.loc,
             "IF branch assigning signal '" +
                 pass.repName[graph.dense(node.output)] +
                 "' is never enabled (its condition is constantly 0)");
      }
      continue;
    }
    bool isGate = node.op == NodeOp::Not || node.op == NodeOp::And ||
                  node.op == NodeOp::Or || node.op == NodeOp::Nand ||
                  node.op == NodeOp::Nor || node.op == NodeOp::Xor ||
                  node.op == NodeOp::Equal;
    if (isGate && pass.nodeConst[ni] != kUnknown) {
      emit(LintRule::ConstantGate, Diag::LintConstantGate, Severity::Note,
           pass.repName[graph.dense(node.output)], node.loc,
           std::string(nodeOpName(node.op)) + " gate driving signal '" +
               pass.repName[graph.dense(node.output)] +
               "' always evaluates to " +
               std::string(
                   logicName(static_cast<Logic>(pass.nodeConst[ni]))));
    }
  }
  for (NodeId ni : graph.regNodes) {
    const Node& reg = nl.node(ni);
    int8_t c = pass.netConst[graph.dense(nl.inputs(ni)[0])];
    if (c == known(Logic::Undef) || c == known(Logic::NoInfl)) {
      emit(LintRule::ConstantRegister, Diag::LintConstantRegister,
           Severity::Warning, pass.repName[graph.dense(reg.output)],
           reg.loc,
           "register '" + pass.repName[graph.dense(reg.output)] +
               "' can never take a defined value (its input cone is "
               "constantly " +
               std::string(logicName(static_cast<Logic>(c))) + ")");
    }
  }
  for (uint32_t dn = 0; dn < graph.denseCount; ++dn) {
    if (pass.driverCount(dn) > 0 && !pass.live[dn] && pass.repUser[dn] &&
        !pass.externallyDrivable[dn]) {
      emit(LintRule::UnreadNet, Diag::LintUnreadNet, Severity::Note,
           pass.repName[dn], pass.repLoc[dn],
           "signal '" + pass.repName[dn] +
               "' is driven but its cone never reaches a primary output "
               "(dead hardware)");
    }
  }

  // --- (c) structural warnings ---------------------------------------
  DesignStats stats = computeStats(design, graph);
  if (stats.depth > opts.maxDepth) {
    uint32_t deepest = 0;
    for (uint32_t dn = 0; dn < graph.denseCount; ++dn) {
      if (graph.netLevel[dn] == graph.maxLevel) { deepest = dn; break; }
    }
    emit(LintRule::DeepLogic, Diag::LintDeepLogic, Severity::Warning,
         pass.repName[deepest], pass.repLoc[deepest],
         "combinational depth " + std::to_string(stats.depth) +
             " exceeds the threshold of " + std::to_string(opts.maxDepth) +
             " levels (deepest signal '" + pass.repName[deepest] + "')");
  }
  for (uint32_t dn = 0; dn < graph.denseCount; ++dn) {
    uint32_t fanout = pass.consumerCount(dn);
    // Constant nets are not routing hot spots: a backend replicates the
    // constant instead of running one wire to every consumer.
    if (fanout > opts.maxFanout && !pass.inputAlways[dn] &&
        pass.netConst[dn] == kUnknown) {
      emit(LintRule::FanoutHotspot, Diag::LintFanoutHotspot, Severity::Note,
           pass.repName[dn], pass.repLoc[dn],
           "signal '" + pass.repName[dn] + "' fans out to " +
               std::to_string(fanout) + " consumers (threshold " +
               std::to_string(opts.maxFanout) + ")");
    }
  }
  return report;
}

}  // namespace zeus
