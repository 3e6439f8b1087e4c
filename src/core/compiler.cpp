#include "src/core/compiler.h"

#include "src/core/batch_sim.h"
#include "src/parser/parser.h"
#include "src/sim/graph.h"
#include "src/sim/simulation.h"
#include "src/support/eventlog.h"
#include "src/support/trace.h"

namespace zeus {

std::unique_ptr<Compilation> Compilation::fromSource(std::string name,
                                                     std::string text,
                                                     Limits limits) {
  auto comp = std::unique_ptr<Compilation>(new Compilation());
  comp->limits_ = limits;
  comp->sources_ = std::make_unique<SourceManager>();
  BufferId buf = comp->sources_->addBuffer(std::move(name), std::move(text));
  comp->diags_ = std::make_unique<DiagnosticEngine>(*comp->sources_);
  comp->types_ =
      std::make_unique<TypeTable>(*comp->diags_, limits, &comp->usage_);

  Parser parser(buf, *comp->diags_, limits, &comp->usage_);
  comp->program_ = parser.parseProgram();

  {
    ZEUS_TRACE_SPAN("sema", "compile");
    Checker checker(*comp->diags_, *comp->types_);
    comp->checked_ = checker.check(comp->program_);
  }
  eventlog::emit(comp->ok() ? eventlog::Severity::Info
                            : eventlog::Severity::Error,
                 "compile", "front-end-done",
                 {eventlog::boolean("ok", comp->ok()),
                  eventlog::num("tokens", static_cast<uint64_t>(
                                              comp->usage_.tokens))});
  return comp;
}

std::unique_ptr<Design> Compilation::elaborate(const std::string& topName) {
  return elaborate(topName, Elaborator::Options());
}

std::unique_ptr<Design> Compilation::elaborate(const std::string& topName,
                                               Elaborator::Options options) {
  if (!ok()) return nullptr;
  if (!options.usage) {
    // Default the elaborator onto this compilation's budgets/accounting
    // unless the caller supplied their own.
    options.limits = limits_;
    options.usage = &usage_;
  }
  ZEUS_TRACE_SPAN("elab", "compile");
  Elaborator elab(*diags_, *types_, options);
  auto design = elab.elaborate(program_, *checked_.rootEnv, topName);
  eventlog::emit(
      design ? eventlog::Severity::Info : eventlog::Severity::Error,
      "compile", "elab-done",
      {eventlog::str("top", topName), eventlog::boolean("ok", !!design),
       eventlog::num("nets", static_cast<uint64_t>(
                                 design ? design->netlist.netCount() : 0)),
       eventlog::num("nodes", static_cast<uint64_t>(
                                  design ? design->netlist.nodeCount() : 0))});
  return design;
}

LintReport Compilation::lint(const Design& design, const LintOptions& opts) {
  // Reuse the diagnostic engine for the CombinationalLoop check too, but
  // only if the caller has not already built a graph — a second build
  // would duplicate the error.  has() makes the rebuild idempotent.
  if (diags_->has(Diag::CombinationalLoop)) return {};
  SimGraph graph = levelizeGraph(design, *diags_);  // analysed, not simulated
  ZEUS_TRACE_SPAN("lint", "compile");
  return runLint(design, graph, *diags_, opts);
}

OptReport Compilation::optimize(Design& design, const OptOptions& opts) {
  return optimizeDesign(design, *diags_, opts);
}

void Compilation::recordSimulation(const Simulation& sim) {
  usage_.simCycles = sim.cycle();
  usage_.simEvents = sim.stats().inputEvents;
  usage_.simFaults = sim.errors().size();
}

void Compilation::recordSimulation(const BatchSimulation& sim) {
  usage_.simCycles = sim.cycle();
  usage_.simEvents = sim.stats().inputEvents;
  usage_.simFaults = sim.errors().size();
}

}  // namespace zeus
