#include "src/sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "src/sim/snapshot.h"
#include "src/support/trace.h"

namespace zeus {

Simulation::Simulation(const SimGraph& graph, EvaluatorKind kind)
    : Simulation(graph, Options{.evaluator = kind}) {}

Simulation::Simulation(const SimGraph& graph, const Options& opts)
    : g_(graph), opts_(opts), kind_(opts.evaluator) {
  if (g_.hasCycle) {
    throw std::runtime_error("cannot simulate a cyclic design: " +
                             g_.cycleDescription);
  }
  switch (kind_) {
    case EvaluatorKind::Firing:
      firing_ = std::make_unique<FiringEvaluator>(g_);
      break;
    case EvaluatorKind::Naive:
      naive_ = std::make_unique<NaiveEvaluator>(g_);
      break;
    case EvaluatorKind::Levelized:
      levelized_ = std::make_unique<LevelizedBatchEvaluator>(g_);
      break;
  }
  reset();
  if (opts_.profileActivity) {
    prevValues_.assign(g_.denseCount, Logic::Undef);
    toggles_.assign(g_.denseCount, 0);
    undefCycles_.assign(g_.denseCount, 0);
    noinflCycles_.assign(g_.denseCount, 0);
  }
}

void Simulation::reset() {
  inputValues_.assign(g_.denseCount, Logic::Undef);
  inputSet_.assign(g_.denseCount, 0);
  inputPlanes_.assign(g_.denseCount, {});
  regValues_.assign(g_.regNodes.size(), lanesBroadcast(Logic::Undef, 1));
  // CLK reads as 1 while a cycle is evaluated.
  driveInput(g_.dense(g_.design->clk), Logic::One);
  setRset(false);
  cycle_ = 0;
  // Restore the RANDOM stream too: a reset simulation must replay exactly
  // like a freshly constructed one.
  rngState_ = kDefaultRngSeed;
  errors_.clear();
  evaluated_ = false;
  prevValid_ = false;
  profiledCycles_ = 0;
  std::fill(toggles_.begin(), toggles_.end(), 0);
  std::fill(undefCycles_.begin(), undefCycles_.end(), 0);
  std::fill(noinflCycles_.begin(), noinflCycles_.end(), 0);
}

void Simulation::profileCycle() {
  for (size_t i = 0; i < g_.denseCount; ++i) {
    Logic v = laneValue(result_.netValues[i], 0);
    if (v == Logic::Undef) ++undefCycles_[i];
    else if (v == Logic::NoInfl) ++noinflCycles_[i];
    if (prevValid_ && v != prevValues_[i]) ++toggles_[i];
    prevValues_[i] = v;
  }
  prevValid_ = true;
  ++profiledCycles_;
}

void Simulation::setInput(std::string_view port, Logic v) {
  setInput(this->port(port), v);
}

void Simulation::setInput(std::string_view port,
                          const std::vector<Logic>& bits) {
  setInput(this->port(port), bits);
}

void Simulation::setInputUint(std::string_view port, uint64_t value) {
  setInputUint(this->port(port), value);
}

void Simulation::clearInput(std::string_view port) {
  clearInput(this->port(port));
}

void Simulation::setInput(PortHandle port, Logic v) {
  setInput(port, std::span<const Logic>(&v, 1));
}

void Simulation::driveInput(uint32_t dn, Logic v) {
  inputValues_[dn] = v;
  inputSet_[dn] = 1;
  inputPlanes_[dn] = lanesBroadcast(v, 1);
}

void Simulation::setInput(PortHandle port, std::span<const Logic> bits) {
  g_.checkWidth(port, bits.size());
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  for (size_t i = 0; i < bits.size(); ++i) driveInput(slots[i], bits[i]);
}

void Simulation::setInputUint(PortHandle port, uint64_t value) {
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  for (size_t i = 0; i < slots.size(); ++i) {
    // Ports wider than 64 bits get zeros above bit 63 (shifting by >= 64
    // is undefined, not zero).
    driveInput(slots[i], logicFromBool(i < 64 && ((value >> i) & 1)));
  }
}

void Simulation::clearInput(PortHandle port) {
  for (uint32_t dn : g_.slotsOf(port).dense) {
    inputSet_[dn] = 0;
    inputValues_[dn] = Logic::Undef;
    inputPlanes_[dn] = {};
  }
}

void Simulation::setRset(bool active) {
  driveInput(g_.dense(g_.design->rset), logicFromBool(active));
}

void Simulation::setRandomSeed(uint64_t seed) {
  rngState_ = seed ? seed : 1;
}

std::vector<Logic> Simulation::saveRegisters() const {
  std::vector<Logic> out(regValues_.size());
  for (size_t k = 0; k < out.size(); ++k) out[k] = laneValue(regValues_[k], 0);
  return out;
}

void Simulation::restoreRegisters(const std::vector<Logic>& state) {
  if (state.size() != regValues_.size()) {
    throw std::invalid_argument(
        "register snapshot has wrong size for this design");
  }
  for (size_t k = 0; k < state.size(); ++k) {
    regValues_[k] = lanesBroadcast(state[k], 1);
  }
}

void Simulation::injectFault(const FaultSpec& fault) {
  if (fault.denseNet >= g_.denseCount) {
    throw std::invalid_argument("fault targets a net outside this design");
  }
  faults_.push_back(fault);
  faultWindow_.markStale();
}

void Simulation::buildFaultPlan() {
  faultWindow_.open(cycle_);
  if (levelized_) laneFaults_.resize(g_.denseCount);
  else faultPlan_.mode.assign(g_.denseCount, FaultMode::None);
  laneFaults_.any = faultPlan_.any = false;
  for (const FaultSpec& f : faults_) {
    if (!faultWindow_.activeAt(f)) continue;
    // A later fault on the same net replaces an earlier one.
    if (levelized_) {
      laneFaults_.clearNet(f.denseNet);
      laneFaults_.add(f.denseNet, faultModeOf(f.kind), 1);
    } else {
      faultPlan_.mode[f.denseNet] = faultModeOf(f.kind);
      faultPlan_.any = true;
    }
  }
  if (levelized_) laneFaults_.seal(g_);
}

void Simulation::setStatsInternal(const EvalStats& s) {
  if (firing_) firing_->setStats(s);
  else if (naive_) naive_->setStats(s);
  else levelized_->setStats(s);
}

SimSnapshot Simulation::saveSnapshot() const {
  ZEUS_TRACE_SPAN("checkpoint-save", "sim");
  SimSnapshot s;
  s.designHash = designContentHash(*g_.design);
  s.cycle = cycle_;
  s.rngState = rngState_;
  s.stats = stats();
  s.regValues = saveRegisters();
  s.inputValues = inputValues_;
  s.inputSet = inputSet_;
  s.errors = errors_;
  return s;
}

void Simulation::restoreSnapshot(const SimSnapshot& snap) {
  ZEUS_TRACE_SPAN("checkpoint-load", "sim");
  if (snap.designHash != 0 &&
      snap.designHash != designContentHash(*g_.design)) {
    throw std::invalid_argument(
        "snapshot was taken on a different design (content hash mismatch)");
  }
  if (snap.regValues.size() != regValues_.size() ||
      snap.inputValues.size() != g_.denseCount ||
      snap.inputSet.size() != g_.denseCount) {
    throw std::invalid_argument(
        "snapshot state sizes do not match this design");
  }
  restoreRegisters(snap.regValues);
  inputValues_ = snap.inputValues;
  inputSet_.assign(snap.inputSet.begin(), snap.inputSet.end());
  for (size_t i = 0; i < g_.denseCount; ++i) {
    inputPlanes_[i] =
        inputSet_[i] ? lanesBroadcast(inputValues_[i], 1) : LanePlanes{};
  }
  cycle_ = snap.cycle;
  rngState_ = snap.rngState;
  errors_ = snap.errors;
  setStatsInternal(snap.stats);
  evaluated_ = false;
  // The activity profiler intentionally restarts: profiling counters are
  // not snapshot state (documented on saveSnapshot).
  prevValid_ = false;
}

void Simulation::evaluateScalar() {
  scalarRegs_.resize(regValues_.size());
  for (size_t k = 0; k < regValues_.size(); ++k) {
    scalarRegs_[k] = laneValue(regValues_[k], 0);
  }
  CycleSeeds seeds;
  seeds.inputValues = &inputValues_;
  seeds.inputSet = &inputSet_;
  seeds.regValues = &scalarRegs_;
  seeds.rngState = rngState_;
  seeds.eventBudget = opts_.maxEventsPerCycle;
  if (!faults_.empty() && faultPlan_.any) seeds.faults = &faultPlan_;
  if (firing_) firing_->evaluate(seeds, scalar_);
  else naive_->evaluate(seeds, scalar_);
  rngState_ = scalar_.rngState;
  watchdogTripped_ = scalar_.watchdogTripped;

  // Activity is not packed: on a cycle that latches, a net has an active
  // driver exactly when its value is not NOINFL, as in the kernel.
  result_.netValues.resize(g_.denseCount);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    result_.netValues[i] = lanesBroadcast(scalar_.netValues[i], 1);
  }
  result_.collisions = scalar_.collisions;
}

void Simulation::runCycle(bool latch) {
  if (!faults_.empty() && !faultWindow_.covers(cycle_)) buildFaultPlan();
  if (levelized_) {
    BatchSeeds seeds;
    seeds.inputValues = &inputPlanes_;
    seeds.regValues = &regValues_;
    seeds.rngStates = &rngState_;
    seeds.laneMask = 1;
    if (!faults_.empty() && laneFaults_.any) seeds.faults = &laneFaults_;
    levelized_->evaluate(seeds, result_);
  } else {
    evaluateScalar();
  }
  evaluated_ = true;

  for (uint32_t dn : result_.collisions) {
    errors_.push_back(
        {cycle_, Diag::SimContention,
         g_.design->netlist.net(g_.rootOf[dn]).name,
         "more than one (0,1,UNDEF)-assignment active in one cycle"});
  }
  if (watchdogTripped_) {
    errors_.push_back(
        {cycle_, Diag::SimWatchdog, "",
         "cycle evaluation aborted by the firing watchdog (event budget "
         "exhausted); net values for this cycle are unreliable"});
  }
  // A tripped watchdog declares this cycle's net values unreliable: do
  // not latch them into registers, and do not count the cycle — nor
  // profile it (its values would poison the toggle/dwell statistics).
  if (watchdogTripped_) return;
  if (!latch) return;
  if (opts_.profileActivity) profileCycle();
  // Two-phase latch: every register reads its input's resolved value from
  // this cycle; "if in is not changed during a clock cycle, it keeps its
  // value" (§5.1) — no active assignment means keep.  A net is actively
  // driven exactly on its non-NOINFL lanes.
  for (size_t k = 0; k < g_.regNodes.size(); ++k) {
    const LanePlanes& v = result_.netValues[g_.regInput[k]];
    const uint64_t act = (v.p0 | v.p1) & 1;
    LanePlanes& r = regValues_[k];
    r.p0 = (v.p0 & act) | (r.p0 & ~act);
    r.p1 = (v.p1 & act) | (r.p1 & ~act);
  }
  ++cycle_;
}

void Simulation::step(uint64_t n) {
  ZEUS_TRACE_SPAN("simulate", "sim");
  using Clock = std::chrono::steady_clock;
  const bool timed = opts_.maxSimMillis > 0;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  for (uint64_t i = 0; i < n; ++i) {
    if (timed) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - start)
                         .count();
      if (static_cast<uint64_t>(elapsed) >= opts_.maxSimMillis && i > 0) {
        errors_.push_back(
            {cycle_, Diag::SimWallClock, "",
             "simulation stopped after " + std::to_string(i) + " of " +
                 std::to_string(n) + " cycle(s): wall-clock budget of " +
                 std::to_string(opts_.maxSimMillis) + " ms exhausted"});
        return;
      }
    }
    runCycle(/*latch=*/true);
    // A tripped watchdog means further cycles would spin on the same
    // wedged evaluation — stop the run rather than flood errors().
    if (watchdogTripped_) return;
  }
}

void Simulation::evaluateOnly() { runCycle(/*latch=*/false); }

Logic Simulation::netValue(NetId net) const {
  if (!evaluated_) return Logic::Undef;
  uint32_t dn = g_.dense(net);
  // A class the optimizer dropped has no per-cycle state: it is neither
  // driven nor read, so it reads NOINFL like any other undriven net.
  if (dn == SimGraph::kNoDense) return Logic::NoInfl;
  return laneValue(result_.netValues[dn], 0);
}

Logic Simulation::netValueByName(const std::string& name) const {
  NetId id = g_.design->netlist.findByName(name);
  if (id == kNoNet) throw std::invalid_argument("no net named '" + name + "'");
  return netValue(id);
}

std::vector<Logic> Simulation::outputBits(std::string_view port) const {
  const PortHandle h = this->port(port);
  std::vector<Logic> out(h.width);
  outputBits(h, out);
  return out;
}

Logic Simulation::output(std::string_view port) const {
  return output(this->port(port));
}

std::optional<uint64_t> Simulation::outputUint(
    std::string_view port) const {
  return outputUint(this->port(port));
}

Logic Simulation::observe(const SimGraph::PortSlots& ps, size_t i) const {
  if (!evaluated_) return Logic::Undef;
  Logic v = laneValue(result_.netValues[ps.dense[i]], 0);
  // Observation of a boolean port converts NOINFL to UNDEF (§4.1).
  if (v == Logic::NoInfl && ((ps.boolMask[i / 64] >> (i % 64)) & 1))
    v = Logic::Undef;
  return v;
}

void Simulation::outputBits(PortHandle port, std::span<Logic> out) const {
  g_.checkWidth(port, out.size());
  const SimGraph::PortSlots& ps = g_.slotsOf(port);
  for (size_t i = 0; i < out.size(); ++i) out[i] = observe(ps, i);
}

Logic Simulation::output(PortHandle port) const {
  const SimGraph::PortSlots& ps = g_.slotsOf(port);
  if (ps.dense.size() != 1) {
    throw std::invalid_argument("port '" + g_.portName(port) +
                                "' is not a single bit");
  }
  return observe(ps, 0);
}

std::optional<uint64_t> Simulation::outputUint(PortHandle port) const {
  const SimGraph::PortSlots& ps = g_.slotsOf(port);
  uint64_t value = 0;
  for (size_t i = 0; i < ps.dense.size(); ++i) {
    const Logic v = observe(ps, i);
    if (!isDefined(v)) return std::nullopt;
    if (v == Logic::One) {
      if (i >= 64) return std::nullopt;  // doesn't fit a uint64_t
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

const EvalStats& Simulation::stats() const {
  if (firing_) return firing_->stats();
  if (naive_) return naive_->stats();
  return levelized_->stats();
}

void Simulation::resetStats() {
  if (firing_) firing_->resetStats();
  else if (naive_) naive_->resetStats();
  else levelized_->resetStats();
}

metrics::SimCounters simCounters(const char* evaluator, const EvalStats& s,
                                 uint64_t cycles, uint64_t lanes,
                                 const std::vector<SimError>& errors,
                                 bool watchdog) {
  metrics::SimCounters c;
  c.ran = true;
  c.evaluator = evaluator;
  c.cycles = cycles;
  c.lanes = lanes;
  c.laneCycles = cycles * lanes;
  c.nodeFirings = s.nodeFirings;
  c.inputEvents = s.inputEvents;
  c.sweeps = s.sweeps;
  c.netResolutions = s.netResolutions;
  c.shortCircuitSkips = s.shortCircuitSkips;
  c.contentionChecks = s.contentionChecks;
  c.epochResets = s.epochResets;
  if (watchdog && s.watchdogMarginMin != ~uint64_t{0}) {
    c.watchdogMarginMin = static_cast<int64_t>(
        std::min<uint64_t>(s.watchdogMarginMin, INT64_MAX));
  }
  c.faults = errors.size();
  for (const SimError& e : errors) {
    if (e.code == Diag::SimContention) ++c.contentionFaults;
  }
  return c;
}

metrics::SimCounters Simulation::metricsCounters() const {
  const char* name = kind_ == EvaluatorKind::Firing  ? "firing"
                     : kind_ == EvaluatorKind::Naive ? "naive"
                                                     : "levelized";
  return simCounters(name, stats(), cycle_, 1, errors_,
                     kind_ == EvaluatorKind::Firing);
}

metrics::ActivityReport Simulation::activityReport(size_t topHottest,
                                                   size_t topDeepest) const {
  metrics::ActivityReport r;
  if (toggles_.empty()) return r;  // profiling never enabled
  r.ran = true;
  r.cycles = profiledCycles_;
  r.netsProfiled = g_.denseCount;
  r.totalToggles =
      std::accumulate(toggles_.begin(), toggles_.end(), uint64_t{0});

  const Netlist& nl = g_.design->netlist;
  auto entry = [&](size_t i) {
    return metrics::ActivityEntry{nl.net(g_.rootOf[i]).name, toggles_[i],
                                  undefCycles_[i], noinflCycles_[i],
                                  g_.netLevel[i]};
  };
  std::vector<uint32_t> order(g_.denseCount);
  std::iota(order.begin(), order.end(), 0);

  size_t nh = std::min(topHottest, order.size());
  std::partial_sort(order.begin(), order.begin() + nh, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      return toggles_[a] != toggles_[b]
                                 ? toggles_[a] > toggles_[b]
                                 : a < b;
                    });
  for (size_t k = 0; k < nh; ++k) {
    if (toggles_[order[k]] == 0) break;  // quiet nets are not "hottest"
    r.hottest.push_back(entry(order[k]));
  }

  size_t nd = std::min(topDeepest, order.size());
  std::partial_sort(order.begin(), order.begin() + nd, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      return g_.netLevel[a] != g_.netLevel[b]
                                 ? g_.netLevel[a] > g_.netLevel[b]
                                 : a < b;
                    });
  for (size_t k = 0; k < nd; ++k) r.deepest.push_back(entry(order[k]));
  return r;
}

}  // namespace zeus
