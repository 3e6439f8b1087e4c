// Hard resource limits for every stage of the compilation pipeline.
//
// Zeus's static rules stop a *design* from burning transistors (§4.7);
// this header stops the *compiler* from being burned by its inputs.  A
// Limits value travels from Compilation::fromSource through the lexer,
// parser, type table and elaborator; every breach becomes a
// recoverable diagnostic — never an abort, hang or unbounded allocation.
// ResourceUsage records what was actually consumed so a compilation can
// answer "how close to the budget did this design come?" via
// Compilation::resourceReport().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace zeus {

/// Hard ceilings per front-end and elaboration stage.  The simulator's
/// budgets (firing watchdog, wall clock) are Simulation::Options fields.
struct Limits {
  // -- lexer --
  size_t maxSourceBytes = 8u << 20;  ///< longest accepted source buffer
  size_t maxTokens = 2u << 20;       ///< longest accepted token stream

  // -- parser --
  int maxParseDepth = 200;      ///< expression/type/statement nesting
  size_t maxParseErrors = 64;   ///< syntax errors before giving up a buffer

  // -- sema / type instantiation --
  int maxTypeDepth = 200;       ///< recursive type-instantiation depth
  size_t maxTypes = 1u << 20;   ///< distinct instantiated types

  // -- elaboration --
  int maxInstanceDepth = 512;     ///< component instantiation recursion
  size_t maxInstances = 1u << 20; ///< materialised component instances
  size_t maxNets = 1u << 22;      ///< nets in the flat netlist
  uint64_t maxElabSteps = 1u << 24;  ///< statements executed + array elems
};

/// What one compilation actually consumed.  Stages update the usage record
/// they were handed (when any); peaks are monotonic.
struct ResourceUsage {
  size_t sourceBytes = 0;
  size_t tokens = 0;
  int parseDepthPeak = 0;
  size_t parseErrors = 0;
  int typeDepthPeak = 0;
  size_t typesInstantiated = 0;
  int instanceDepthPeak = 0;
  size_t instances = 0;
  size_t nets = 0;
  size_t nodes = 0;
  uint64_t simCycles = 0;
  uint64_t simEvents = 0;
  size_t simFaults = 0;

  void notePeak(int& peak, int depth) {
    if (depth > peak) peak = depth;
  }
};

/// Consumption vs. budget for one compilation (see
/// Compilation::resourceReport()).
struct ResourceReport {
  Limits limits;
  ResourceUsage usage;

  /// Renders the report as an aligned "used / budget" text block.
  [[nodiscard]] std::string render() const;
};

}  // namespace zeus
