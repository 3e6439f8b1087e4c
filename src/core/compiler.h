// The compilation pipeline front door.
//
// A Compilation owns everything with compilation lifetime: source buffers,
// diagnostics, the AST, the type table (with every instantiated type and
// environment) and the checked program.  Designs elaborated from it borrow
// those structures, so keep the Compilation alive as long as its Designs.
#pragma once

#include <memory>
#include <string>

#include "src/analysis/lint.h"
#include "src/ast/ast.h"
#include "src/elab/design.h"
#include "src/elab/elaborator.h"
#include "src/sema/checker.h"
#include "src/sema/type_table.h"
#include "src/support/diagnostics.h"
#include "src/transform/pipeline.h"
#include "src/support/limits.h"
#include "src/support/source.h"

namespace zeus {

class Simulation;
class BatchSimulation;

class Compilation {
 public:
  /// Lexes, parses and checks one source buffer.  Every stage runs under
  /// the given resource limits; breaches surface as ordinary diagnostics.
  static std::unique_ptr<Compilation> fromSource(std::string name,
                                                 std::string text,
                                                 Limits limits = {});

  /// True when no errors were reported so far.
  [[nodiscard]] bool ok() const { return !diags_->hasErrors(); }
  [[nodiscard]] std::string diagnosticsText() const {
    return diags_->renderAll();
  }

  DiagnosticEngine& diags() { return *diags_; }
  SourceManager& sources() { return *sources_; }
  TypeTable& types() { return *types_; }
  [[nodiscard]] const ast::Program& program() const { return program_; }
  [[nodiscard]] const CheckedProgram& checked() const { return checked_; }
  Env& rootEnv() { return *checked_.rootEnv; }

  /// Elaborates the design whose top-level SIGNAL declaration is named
  /// `topName`.  Returns nullptr on error (see diagnosticsText()).
  std::unique_ptr<Design> elaborate(const std::string& topName);
  std::unique_ptr<Design> elaborate(const std::string& topName,
                                    Elaborator::Options options);

  /// Runs the static lint pass (src/analysis/lint.h) over an elaborated
  /// design.  Builds the semantics graph internally; findings go through
  /// this compilation's diagnostics (lint errors make ok() false) and are
  /// returned as a LintReport for text/JSON rendering.
  LintReport lint(const Design& design, const LintOptions& opts = {});

  /// Runs the optimization pipeline (src/transform/pipeline.h) in place
  /// on an elaborated design and verifies the result.  Call after lint
  /// (lint findings refer to pre-optimization structure).  The report's
  /// graph is the verified semantics graph of the optimized design:
  /// simulate on it rather than building another.  A verifier failure
  /// makes ok() false.
  OptReport optimize(Design& design, const OptOptions& opts = {});

  /// The limits this compilation runs under.
  [[nodiscard]] const Limits& limits() const { return limits_; }
  /// Snapshot of resource consumption so far, next to its budgets.
  [[nodiscard]] ResourceReport resourceReport() const {
    return {limits_, usage_};
  }
  /// Folds a simulation's cycle/event/fault counters into the report.
  void recordSimulation(const Simulation& sim);
  /// Same for a 64-lane batch run; cycles count evaluated (not lane) cycles.
  void recordSimulation(const BatchSimulation& sim);
  /// Usage sink to hand to stages (e.g. Simulation::Options::usage) that
  /// should account against this compilation's report.
  ResourceUsage* usage() { return &usage_; }

 private:
  Compilation() = default;

  std::unique_ptr<SourceManager> sources_;
  std::unique_ptr<DiagnosticEngine> diags_;
  std::unique_ptr<TypeTable> types_;
  ast::Program program_;
  CheckedProgram checked_;
  Limits limits_;
  ResourceUsage usage_;
};

}  // namespace zeus
