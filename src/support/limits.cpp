#include "src/support/limits.h"

namespace zeus {

namespace {

std::string line(const char* label, uint64_t used, uint64_t budget,
                 const char* zeroMeans = nullptr) {
  std::string out = label;
  if (out.size() < 22) out.append(22 - out.size(), ' ');
  out += std::to_string(used);
  out += " / ";
  if (budget == 0 && zeroMeans) {
    out += zeroMeans;
  } else {
    out += std::to_string(budget);
  }
  out += '\n';
  return out;
}

}  // namespace

std::string ResourceReport::render() const {
  std::string out;
  out += "resource usage (used / budget)\n";
  out += line("  source bytes", usage.sourceBytes, limits.maxSourceBytes);
  out += line("  tokens", usage.tokens, limits.maxTokens);
  out += line("  parse depth peak", static_cast<uint64_t>(usage.parseDepthPeak),
              static_cast<uint64_t>(limits.maxParseDepth));
  out += line("  parse errors", usage.parseErrors, limits.maxParseErrors);
  out += line("  type depth peak", static_cast<uint64_t>(usage.typeDepthPeak),
              static_cast<uint64_t>(limits.maxTypeDepth));
  out += line("  types", usage.typesInstantiated, limits.maxTypes);
  out += line("  instance depth peak",
              static_cast<uint64_t>(usage.instanceDepthPeak),
              static_cast<uint64_t>(limits.maxInstanceDepth));
  out += line("  instances", usage.instances, limits.maxInstances);
  out += line("  nets", usage.nets, limits.maxNets);
  out += line("  nodes", usage.nodes, limits.maxNets);
  out += line("  sim cycles", usage.simCycles, 0, "unbounded");
  out += line("  sim events", usage.simEvents, 0, "auto/cycle");
  out += line("  sim faults", usage.simFaults, 0, "n/a");
  return out;
}

}  // namespace zeus
