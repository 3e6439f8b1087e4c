#include "src/support/metrics.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <mutex>

#include "src/support/buildinfo.h"
#include "src/support/thread_slot.h"
#include "src/support/trace.h"

namespace zeus::metrics {

namespace {

/// Counter names, indexed by id.  The cells live in the per-thread slots
/// (src/support/thread_slot.h), so add() never allocates or locks.
std::mutex g_namesMutex;
std::vector<const char*>& names() {
  static auto* n = new std::vector<const char*>;  // never freed
  return *n;
}

uint64_t sumCells(uint32_t id) {
  uint64_t total = 0;
  threadslot::forEach([id, &total](threadslot::Slot& s) {
    total += s.cells[id].load(std::memory_order_relaxed);
  });
  return total;
}

}  // namespace

Counter::Counter(const char* name) : name_(name) {
  std::lock_guard<std::mutex> lock(g_namesMutex);
  assert(names().size() < threadslot::kMaxCounters);
  id_ = static_cast<uint32_t>(names().size());
  names().push_back(name);
}

void Counter::add(uint64_t n) {
  threadslot::local().cells[id_].fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::value() const { return sumCells(id_); }

std::vector<std::pair<std::string, uint64_t>> Counter::allValues() {
  std::lock_guard<std::mutex> lock(g_namesMutex);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(names().size());
  for (size_t i = 0; i < names().size(); ++i) {
    out.emplace_back(names()[i], sumCells(static_cast<uint32_t>(i)));
  }
  return out;
}

std::vector<PhaseTiming> phaseTimings() {
  std::vector<PhaseTiming> out;
  for (const trace::Event& e : trace::snapshot()) {
    PhaseTiming* slot = nullptr;
    for (PhaseTiming& p : out) {
      if (p.name == e.name && p.category == e.category) {
        slot = &p;
        break;
      }
    }
    if (!slot) {
      out.push_back({e.name, e.category, 0, 0});
      slot = &out.back();
    }
    slot->micros += e.durUs;
    ++slot->count;
  }
  return out;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string activityEntryJson(const ActivityEntry& e) {
  return "{\"net\": \"" + jsonEscape(e.net) +
         "\", \"toggles\": " + std::to_string(e.toggles) +
         ", \"undef_cycles\": " + std::to_string(e.undefCycles) +
         ", \"noinfl_cycles\": " + std::to_string(e.noinflCycles) +
         ", \"depth\": " + std::to_string(e.depth) + "}";
}

std::string entryListJson(const std::vector<ActivityEntry>& list) {
  std::string out = "[";
  for (size_t i = 0; i < list.size(); ++i) {
    out += i ? ",\n      " : "\n      ";
    out += activityEntryJson(list[i]);
  }
  if (!list.empty()) out += "\n    ";
  out += "]";
  return out;
}

std::string statLine(const char* label, const std::string& value) {
  std::string out = "  ";
  out += label;
  if (out.size() < 26) out.append(26 - out.size(), ' ');
  out += value;
  out += '\n';
  return out;
}

}  // namespace

std::string ActivityReport::renderText() const {
  if (!ran) return "";
  std::string out = "activity: " + std::to_string(cycles) + " cycle(s), " +
                    std::to_string(netsProfiled) + " net(s), " +
                    std::to_string(totalToggles) + " toggle(s)\n";
  if (!hottest.empty()) {
    out += "  hottest nets (toggles / undef / noinfl / depth)\n";
    for (const ActivityEntry& e : hottest) {
      std::string name = "    " + e.net;
      if (name.size() < 30) name.append(30 - name.size(), ' ');
      out += name + " " + std::to_string(e.toggles) + " / " +
             std::to_string(e.undefCycles) + " / " +
             std::to_string(e.noinflCycles) + " / " +
             std::to_string(e.depth) + "\n";
    }
  }
  if (!deepest.empty()) {
    out += "  deepest cones\n";
    for (const ActivityEntry& e : deepest) {
      std::string name = "    " + e.net;
      if (name.size() < 30) name.append(30 - name.size(), ' ');
      out += name + " depth " + std::to_string(e.depth) + ", " +
             std::to_string(e.toggles) + " toggle(s)\n";
    }
  }
  return out;
}

std::string simCountersJson(const SimCounters& c) {
  std::string out = "{";
  out += std::string("\"ran\": ") + (c.ran ? "true" : "false");
  out += ", \"evaluator\": \"" + jsonEscape(c.evaluator) + "\"";
  out += ", \"cycles\": " + std::to_string(c.cycles);
  out += ", \"lanes\": " + std::to_string(c.lanes);
  out += ", \"lane_cycles\": " + std::to_string(c.laneCycles);
  out += ", \"node_firings\": " + std::to_string(c.nodeFirings);
  out += ", \"input_events\": " + std::to_string(c.inputEvents);
  out += ", \"sweeps\": " + std::to_string(c.sweeps);
  out += ", \"net_resolutions\": " + std::to_string(c.netResolutions);
  out += ", \"short_circuit_skips\": " + std::to_string(c.shortCircuitSkips);
  out += ", \"contention_checks\": " + std::to_string(c.contentionChecks);
  out += ", \"epoch_resets\": " + std::to_string(c.epochResets);
  out += ", \"watchdog_margin_min\": " + std::to_string(c.watchdogMarginMin);
  out += ", \"faults\": " + std::to_string(c.faults);
  out += ", \"contention_faults\": " + std::to_string(c.contentionFaults);
  out += "}";
  return out;
}

std::string MetricsReport::renderJson() const {
  const ResourceUsage& u = resources.usage;
  std::string out = "{\n  \"zeus-metrics\": 1,\n  \"design\": \"" +
                    jsonEscape(design) + "\",\n";

  out += "  \"compile\": {\"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += "    {\"name\": \"" + jsonEscape(phases[i].name) +
           "\", \"category\": \"" + jsonEscape(phases[i].category) +
           "\", \"micros\": " + std::to_string(phases[i].micros) +
           ", \"count\": " + std::to_string(phases[i].count) + "}";
  }
  out += phases.empty() ? "]},\n" : "\n  ]},\n";

  out += "  \"resources\": {";
  out += "\"source_bytes\": " + std::to_string(u.sourceBytes);
  out += ", \"tokens\": " + std::to_string(u.tokens);
  out += ", \"parse_depth_peak\": " + std::to_string(u.parseDepthPeak);
  out += ", \"parse_errors\": " + std::to_string(u.parseErrors);
  out += ", \"type_depth_peak\": " + std::to_string(u.typeDepthPeak);
  out += ", \"types\": " + std::to_string(u.typesInstantiated);
  out += ", \"instance_depth_peak\": " + std::to_string(u.instanceDepthPeak);
  out += ", \"instances\": " + std::to_string(u.instances);
  out += ", \"nets\": " + std::to_string(u.nets);
  out += ", \"nodes\": " + std::to_string(u.nodes);
  out += ", \"sim_cycles\": " + std::to_string(u.simCycles);
  out += ", \"sim_events\": " + std::to_string(u.simEvents);
  out += ", \"sim_faults\": " + std::to_string(u.simFaults);
  out += "},\n";

  out += "  \"sim\": " + simCountersJson(sim) + ",\n";

  // Additive v1 blocks (PR 8): build-info stamp + latency histograms.
  out += "  \"build\": " + buildinfo::renderJson() + ",\n";
  out += "  \"latency\": " + histogram::renderLatencyBlock(latency, "  ") +
         ",\n";

  out += "  \"activity\": {";
  out += std::string("\"ran\": ") + (activity.ran ? "true" : "false");
  out += ", \"cycles\": " + std::to_string(activity.cycles);
  out += ", \"nets_profiled\": " + std::to_string(activity.netsProfiled);
  out += ", \"total_toggles\": " + std::to_string(activity.totalToggles);
  out += ",\n    \"hottest\": " + entryListJson(activity.hottest);
  out += ",\n    \"deepest\": " + entryListJson(activity.deepest);
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsReport::renderText() const {
  std::string out = "metrics for '" + design + "'\n";
  if (!phases.empty()) {
    out += "compile phases (wall-clock)\n";
    for (const PhaseTiming& p : phases) {
      out += statLine(p.name.c_str(), std::to_string(p.micros) + " us (x" +
                                          std::to_string(p.count) + ")");
    }
  }
  if (sim.ran) {
    out += "simulation (" + sim.evaluator + ", " +
           std::to_string(sim.lanes) + " lane(s))\n";
    out += statLine("cycles", std::to_string(sim.cycles));
    out += statLine("lane cycles", std::to_string(sim.laneCycles));
    out += statLine("node firings", std::to_string(sim.nodeFirings));
    out += statLine("net resolutions", std::to_string(sim.netResolutions));
    out += statLine("input events", std::to_string(sim.inputEvents));
    out += statLine("short-circuit skips",
                    std::to_string(sim.shortCircuitSkips));
    out += statLine("contention checks",
                    std::to_string(sim.contentionChecks));
    out += statLine("epoch resets", std::to_string(sim.epochResets));
    out += statLine("sweeps", std::to_string(sim.sweeps));
    if (sim.watchdogMarginMin >= 0) {
      out += statLine("watchdog margin min",
                      std::to_string(sim.watchdogMarginMin));
    }
    out += statLine("faults", std::to_string(sim.faults) + " (" +
                                  std::to_string(sim.contentionFaults) +
                                  " contention)");
  }
  out += activity.renderText();
  out += resources.render();
  return out;
}

}  // namespace zeus::metrics
