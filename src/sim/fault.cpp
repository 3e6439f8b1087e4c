#include "src/sim/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "src/core/batch_sim.h"
#include "src/sim/snapshot.h"
#include "src/sim/stimulus.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace zeus {

namespace {

metrics::Counter campaignsRun("fault-campaigns");
metrics::Counter campaignBatches("fault-campaign-batches");
metrics::Counter campaignFaults("fault-campaign-faults");

/// The detector label of an observable bit: "s", or "s[3]" (1-based
/// port index) for an array port.
std::string outputLabel(const Design& design, const Observable& obs) {
  const Port& p = design.ports[obs.port];
  return p.nets.size() == 1 ? p.name
                            : p.name + "[" + std::to_string(obs.bit + 1) + "]";
}

}  // namespace

std::string_view faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::StuckAt0: return "stuck-at-0";
    case FaultKind::StuckAt1: return "stuck-at-1";
    case FaultKind::StuckUndef: return "stuck-undef";
    case FaultKind::TransientFlip: return "transient-flip";
    case FaultKind::ForcedContention: return "forced-contention";
  }
  return "unknown";
}

std::string_view faultStatusName(FaultOutcome::Status s) {
  switch (s) {
    case FaultOutcome::Status::Undetected: return "undetected";
    case FaultOutcome::Status::Masked: return "masked";
    case FaultOutcome::Status::Detected: return "detected";
  }
  return "unknown";
}

FaultMode faultModeOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::StuckAt0: return FaultMode::Force0;
    case FaultKind::StuckAt1: return FaultMode::Force1;
    case FaultKind::StuckUndef: return FaultMode::ForceUndef;
    case FaultKind::TransientFlip: return FaultMode::Flip;
    case FaultKind::ForcedContention: return FaultMode::Contend;
  }
  return FaultMode::None;
}

std::optional<FaultSpec> makeFault(const SimGraph& graph, FaultKind kind,
                                   const std::string& netName,
                                   uint64_t fromCycle, uint64_t toCycle) {
  NetId id = graph.design->netlist.findByName(netName);
  if (id == kNoNet) return std::nullopt;
  if (graph.dense(id) == SimGraph::kNoDense) {
    // The optimizer removed the whole class: there is no simulated state
    // to fault.  Treat like an unknown net so callers report it cleanly.
    return std::nullopt;
  }
  FaultSpec f;
  f.kind = kind;
  f.denseNet = graph.dense(id);
  f.fromCycle = fromCycle;
  f.toCycle = toCycle;
  return f;
}

std::vector<FaultSpec> defaultFaultUniverse(const SimGraph& graph) {
  std::vector<FaultSpec> u;
  u.reserve(graph.denseCount * 2);
  for (uint32_t i = 0; i < graph.denseCount; ++i) {
    u.push_back({FaultKind::StuckAt0, i, 0, ~uint64_t{0}});
    u.push_back({FaultKind::StuckAt1, i, 0, ~uint64_t{0}});
  }
  return u;
}

uint64_t FaultCampaignReport::countOf(FaultOutcome::Status s) const {
  uint64_t n = 0;
  for (const FaultOutcome& f : faults)
    if (f.status == s) ++n;
  return n;
}

double FaultCampaignReport::coverage() const {
  if (faults.empty()) return 0.0;
  return static_cast<double>(countOf(FaultOutcome::Status::Detected)) /
         static_cast<double>(faults.size());
}

std::string FaultCampaignReport::renderJson() const {
  // Deterministic by construction: every field is a pure function of
  // (design, universe, cycles, seed, lanes) — never wall-clock or
  // process-local progress — so straight and crash-resumed campaigns
  // render byte-identical documents (the crash_recovery ctest diffs them).
  std::string j = "{\n  \"zeus-faults\": 1,\n";
  j += "  \"design\": \"" + metrics::jsonEscape(design) + "\",\n";
  j += "  \"cycles\": " + std::to_string(cycles) + ",\n";
  j += "  \"seed\": " + std::to_string(seed) + ",\n";
  j += "  \"lanes\": " + std::to_string(lanes) + ",\n";
  j += "  \"batches\": " + std::to_string(totalBatches) + ",\n";
  j += "  \"total_faults\": " + std::to_string(faults.size()) + ",\n";
  j += "  \"interrupted\": ";
  j += interrupted ? "true" : "false";
  j += ",\n";
  j += "  \"detected\": " +
       std::to_string(countOf(FaultOutcome::Status::Detected)) + ",\n";
  j += "  \"masked\": " + std::to_string(countOf(FaultOutcome::Status::Masked)) +
       ",\n";
  j += "  \"undetected\": " +
       std::to_string(countOf(FaultOutcome::Status::Undetected)) + ",\n";
  char cov[32];
  std::snprintf(cov, sizeof cov, "%.6f", coverage());
  j += "  \"coverage\": " + std::string(cov) + ",\n";

  // Per-output detector tally, in port declaration order of first use.
  std::vector<std::pair<std::string, uint64_t>> det;
  for (const FaultOutcome& f : faults) {
    if (f.status != FaultOutcome::Status::Detected) continue;
    auto it = std::find_if(det.begin(), det.end(),
                           [&](const auto& d) { return d.first == f.detector; });
    if (it == det.end()) det.emplace_back(f.detector, 1);
    else ++it->second;
  }
  j += "  \"detectors\": [";
  for (size_t i = 0; i < det.size(); ++i) {
    if (i) j += ", ";
    j += "{\"output\": \"" + metrics::jsonEscape(det[i].first) +
         "\", \"faults\": " + std::to_string(det[i].second) + "}";
  }
  j += "],\n  \"faults\": [\n";
  for (size_t i = 0; i < faults.size(); ++i) {
    const FaultOutcome& f = faults[i];
    j += "    {\"net\": \"" + metrics::jsonEscape(f.net) + "\", \"kind\": \"" +
         std::string(faultKindName(f.spec.kind)) + "\", \"status\": \"" +
         std::string(faultStatusName(f.status)) +
         "\", \"first_cycle\": " + std::to_string(f.firstDetectCycle) +
         ", \"detector\": \"" + metrics::jsonEscape(f.detector) +
         "\", \"sim_errors\": " + std::to_string(f.simErrors) + "}";
    j += i + 1 < faults.size() ? ",\n" : "\n";
  }
  j += "  ]\n}\n";
  return j;
}

FaultCampaignReport runFaultCampaign(const SimGraph& graph,
                                     const FaultCampaignOptions& opts,
                                     const CampaignProgress* resume) {
  ZEUS_TRACE_SPAN("fault-campaign", "sim");
  campaignsRun.add();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();

  const std::vector<FaultSpec> universe =
      opts.universe.empty() ? defaultFaultUniverse(graph) : opts.universe;
  const size_t lanes = std::clamp<size_t>(opts.lanes, 2, 64);
  const size_t perBatch = lanes - 1;

  FaultCampaignReport report;
  report.design = graph.design->topName;
  report.cycles = opts.cycles;
  report.seed = opts.seed;
  report.lanes = static_cast<uint32_t>(lanes);
  report.totalBatches = universe.empty() ? 0 : (universe.size() + perBatch - 1) / perBatch;

  const uint64_t designHash = designContentHash(*graph.design);
  size_t firstFault = 0;
  if (resume) {
    if (resume->cycles != opts.cycles || resume->seed != opts.seed ||
        resume->lanes != lanes || resume->totalFaults != universe.size() ||
        resume->done.size() != resume->nextFault ||
        resume->nextFault > universe.size() ||
        (resume->designHash != 0 && resume->designHash != designHash)) {
      throw std::invalid_argument(
          "campaign checkpoint does not match this campaign (design, "
          "cycles, seed, lanes or fault universe differ)");
    }
    firstFault = static_cast<size_t>(resume->nextFault);
    report.faults = resume->done;
  }

  const std::vector<Observable> outputs = observableOutputs(graph);
  const std::vector<PortHandle> inputs = stimulusInputs(graph);
  std::vector<Logic> bits;  // one port's stimulus, reused every cycle
  const Netlist& nl = graph.design->netlist;
  auto netName = [&](uint32_t dn) { return nl.net(graph.rootOf[dn]).name; };

  auto emitCheckpoint = [&](size_t nextFault) {
    if (!opts.onCheckpoint) return;
    CampaignProgress p;
    p.designHash = designHash;
    p.cycles = opts.cycles;
    p.seed = opts.seed;
    p.lanes = static_cast<uint32_t>(lanes);
    p.totalFaults = universe.size();
    p.nextFault = nextFault;
    p.done = report.faults;
    opts.onCheckpoint(p);
  };

  uint64_t batchesDone = 0;
  for (size_t f0 = firstFault; f0 < universe.size(); f0 += perBatch) {
    const size_t n = std::min(perBatch, universe.size() - f0);
    const uint64_t batchIndex = f0 / perBatch;
    BatchSimulation batch(graph, n + 1);
    for (size_t k = 0; k < n; ++k) {
      batch.injectFault(k + 1, universe[f0 + k]);
    }

    // Stimulus: identical on every lane, so one broadcast per port,
    // derived only from (seed, batch).
    uint64_t rng = splitmix(opts.seed ^ (batchIndex * 0x9E3779B97F4A7C15ull));
    if (!rng) rng = 1;

    const uint64_t usedLanes =
        n + 1 == 64 ? ~uint64_t{1} : ((uint64_t{1} << (n + 1)) - 2);
    uint64_t divergedEver = 0, detected = 0;
    std::vector<uint64_t> firstCycle(n + 1, 0);
    std::vector<std::string> detector(n + 1);

    for (uint64_t c = 0; c < opts.cycles; ++c) {
      batch.setRset(c == 0);  // cycle 0 is the reset pulse
      for (const PortHandle& p : inputs) {
        bits.resize(p.width);
        uint64_t word = 0;
        for (size_t b = 0; b < bits.size(); ++b) {
          if (b % 64 == 0) word = xorshift(rng);
          bits[b] = logicFromBool((word >> (b % 64)) & 1);
        }
        batch.setInputAll(p, bits);
      }
      batch.step(1);
      report.evaluatedCycles += 1;
      if (opts.onCycle) opts.onCycle(report.evaluatedCycles);

      uint64_t diff = batch.divergedLanes();
      divergedEver |= diff;
      uint64_t candidates = diff & usedLanes & ~detected;
      if (!candidates) continue;
      for (const Observable& obs : outputs) {
        uint64_t m = batch.laneDiffMask(obs.net) & candidates;
        if (!m) continue;
        Logic gv = batch.netValue(0, obs.net);
        if (!isDefined(gv)) continue;
        while (m) {
          uint32_t lane = static_cast<uint32_t>(__builtin_ctzll(m));
          m &= m - 1;
          Logic lv = batch.netValue(lane, obs.net);
          if (!isDefined(lv) || lv == gv) continue;  // not a definite diff
          detected |= uint64_t{1} << lane;
          candidates &= ~(uint64_t{1} << lane);
          firstCycle[lane] = c;
          detector[lane] = outputLabel(*graph.design, obs);
        }
        if (!candidates) break;
      }
    }

    std::vector<uint64_t> laneErrors(n + 1, 0);
    for (const SimError& e : batch.errors()) {
      if (e.lane >= 0 && static_cast<size_t>(e.lane) <= n)
        ++laneErrors[static_cast<size_t>(e.lane)];
    }
    for (size_t k = 0; k < n; ++k) {
      const uint32_t lane = static_cast<uint32_t>(k + 1);
      FaultOutcome o;
      o.spec = universe[f0 + k];
      o.net = netName(o.spec.denseNet);
      if ((detected >> lane) & 1) {
        o.status = FaultOutcome::Status::Detected;
        o.firstDetectCycle = firstCycle[lane];
        o.detector = detector[lane];
      } else if ((divergedEver >> lane) & 1) {
        o.status = FaultOutcome::Status::Masked;
      }
      o.simErrors = laneErrors[lane];
      report.faults.push_back(std::move(o));
    }
    campaignBatches.add();
    campaignFaults.add(n);

    ++batchesDone;
    const size_t nextFault = f0 + n;
    if (opts.checkpointEveryBatches &&
        batchesDone % opts.checkpointEveryBatches == 0) {
      emitCheckpoint(nextFault);
    }
    if (opts.maxMillis && nextFault < universe.size()) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - start)
                         .count();
      if (static_cast<uint64_t>(elapsed) >= opts.maxMillis) {
        // Budget exhausted: checkpoint what we have (even off-cadence) so
        // the campaign can resume, then stop at this batch boundary.
        emitCheckpoint(nextFault);
        report.interrupted = true;
        break;
      }
    }
  }
  return report;
}

}  // namespace zeus
