#include "src/core/batch_sim.h"

#include <algorithm>
#include <stdexcept>

#include "src/sim/snapshot.h"

namespace zeus {

BatchSimulation::BatchSimulation(const SimGraph& graph, size_t lanes)
    : g_(graph), lanes_(lanes), eval_(graph) {
  if (g_.hasCycle) {
    throw std::runtime_error("cannot simulate a cyclic design: " +
                             g_.cycleDescription);
  }
  if (lanes_ == 0 || lanes_ > kMaxLanes) {
    throw std::invalid_argument("batch lane count must be 1..64");
  }
  laneMask_ = lanes_ == kMaxLanes ? ~uint64_t{0}
                                  : (uint64_t{1} << lanes_) - 1;
  inputValues_.assign(g_.denseCount, {});
  regValues_.assign(g_.regNodes.size(),
                    lanesBroadcast(Logic::Undef, ~uint64_t{0}));
  seedDefaults();
}

void BatchSimulation::seedDefaults() {
  // CLK reads as 1 while a cycle is evaluated; RSET is inactive.  Every
  // lane's RANDOM stream starts from the scalar default seed, so an
  // unseeded lane replays an unseeded scalar run.
  inputValues_[g_.dense(g_.design->clk)] =
      lanesBroadcast(Logic::One, ~uint64_t{0});
  inputValues_[g_.dense(g_.design->rset)] =
      lanesBroadcast(Logic::Zero, ~uint64_t{0});
  rngStates_.fill(kDefaultRngSeed);
}

void BatchSimulation::reset() {
  inputValues_.assign(g_.denseCount, {});
  regValues_.assign(g_.regNodes.size(),
                    lanesBroadcast(Logic::Undef, ~uint64_t{0}));
  seedDefaults();
  cycle_ = 0;
  errors_.clear();
  evaluated_ = false;
}

const Port* BatchSimulation::findPortOrThrow(const std::string& name) const {
  const Port* p = g_.design->findPort(name);
  if (!p) throw std::invalid_argument("no port named '" + name + "'");
  return p;
}

void BatchSimulation::checkLane(size_t lane) const {
  if (lane >= lanes_) {
    throw std::invalid_argument("lane " + std::to_string(lane) +
                                " out of range (batch has " +
                                std::to_string(lanes_) + " lane(s))");
  }
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               Logic v) {
  setInput(lane, port, std::vector<Logic>{v});
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               const std::vector<Logic>& bits) {
  checkLane(lane);
  const Port* p = findPortOrThrow(port);
  if (bits.size() != p->nets.size()) {
    throw std::invalid_argument("port '" + p->name + "' has " +
                                std::to_string(p->nets.size()) +
                                " bit(s), got " +
                                std::to_string(bits.size()));
  }
  for (size_t i = 0; i < bits.size(); ++i) {
    laneSet(inputValues_[g_.dense(p->nets[i])],
            static_cast<uint32_t>(lane), bits[i]);
  }
}

void BatchSimulation::setInputUint(size_t lane, const std::string& port,
                                   uint64_t value) {
  const Port* p = findPortOrThrow(port);
  std::vector<Logic> bits(p->nets.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    // Ports wider than 64 bits get zeros above bit 63 (shifting by >= 64
    // is undefined, not zero).
    bits[i] = logicFromBool(i < 64 && ((value >> i) & 1));
  }
  setInput(lane, port, bits);
}

void BatchSimulation::setInputAll(const std::string& port, Logic v) {
  const Port* p = findPortOrThrow(port);
  for (NetId n : p->nets) {
    inputValues_[g_.dense(n)] = lanesBroadcast(v, ~uint64_t{0});
  }
}

void BatchSimulation::clearInput(size_t lane, const std::string& port) {
  checkLane(lane);
  const Port* p = findPortOrThrow(port);
  for (NetId n : p->nets) {
    // A cleared lane carries NOINFL = (0,0): no contribution.
    laneSet(inputValues_[g_.dense(n)], static_cast<uint32_t>(lane),
            Logic::NoInfl);
  }
}

void BatchSimulation::setRset(bool active) {
  inputValues_[g_.dense(g_.design->rset)] =
      lanesBroadcast(logicFromBool(active), ~uint64_t{0});
}

void BatchSimulation::setRset(size_t lane, bool active) {
  checkLane(lane);
  laneSet(inputValues_[g_.dense(g_.design->rset)],
          static_cast<uint32_t>(lane), logicFromBool(active));
}

void BatchSimulation::setRandomSeed(size_t lane, uint64_t seed) {
  checkLane(lane);
  rngStates_[lane] = seed ? seed : 1;
}

uint64_t BatchSimulation::randomState(size_t lane) const {
  checkLane(lane);
  return rngStates_[lane];
}

void BatchSimulation::injectFault(size_t lane, const FaultSpec& fault) {
  checkLane(lane);
  if (fault.denseNet >= g_.denseCount) {
    throw std::invalid_argument("fault targets a net outside this design");
  }
  faults_.emplace_back(static_cast<uint32_t>(lane), fault);
}

void BatchSimulation::buildFaultPlan() {
  faultPlan_.resize(g_.denseCount);  // assign() clears previous cycle too
  faultPlan_.any = false;
  for (const auto& [lane, f] : faults_) {
    if (!f.activeAt(cycle_)) continue;
    uint64_t bit = uint64_t{1} << lane;
    switch (faultModeOf(f.kind)) {
      case FaultMode::Force0: faultPlan_.force0[f.denseNet] |= bit; break;
      case FaultMode::Force1: faultPlan_.force1[f.denseNet] |= bit; break;
      case FaultMode::ForceUndef:
        faultPlan_.forceUndef[f.denseNet] |= bit;
        break;
      case FaultMode::Flip: faultPlan_.flip[f.denseNet] |= bit; break;
      case FaultMode::Contend: faultPlan_.contend[f.denseNet] |= bit; break;
      case FaultMode::None: continue;
    }
    faultPlan_.any = true;
  }
}

uint64_t BatchSimulation::laneDiffMask(NetId net) const {
  if (!evaluated_) return 0;
  uint32_t dn = g_.dense(net);
  if (dn == SimGraph::kNoDense) return 0;  // dropped class: NOINFL everywhere
  const LanePlanes& p = result_.netValues[dn];
  uint64_t g0 = (p.p0 & 1) ? ~uint64_t{0} : 0;
  uint64_t g1 = (p.p1 & 1) ? ~uint64_t{0} : 0;
  return ((p.p0 ^ g0) | (p.p1 ^ g1)) & laneMask_ & ~uint64_t{1};
}

uint64_t BatchSimulation::divergedLanes() const {
  if (!evaluated_) return 0;
  uint64_t diff = 0;
  for (size_t i = 0; i < g_.denseCount; ++i) {
    const LanePlanes& p = result_.netValues[i];
    uint64_t g0 = (p.p0 & 1) ? ~uint64_t{0} : 0;
    uint64_t g1 = (p.p1 & 1) ? ~uint64_t{0} : 0;
    diff |= (p.p0 ^ g0) | (p.p1 ^ g1);
  }
  return diff & laneMask_ & ~uint64_t{1};
}

SimSnapshot BatchSimulation::saveSnapshot(size_t lane) const {
  checkLane(lane);
  SimSnapshot s;
  s.designHash = designContentHash(*g_.design);
  s.cycle = cycle_;
  s.rngState = rngStates_[lane];
  s.regValues = saveRegisters(lane);
  s.inputValues.assign(g_.denseCount, Logic::Undef);
  s.inputSet.assign(g_.denseCount, 0);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    Logic v = laneValue(inputValues_[i], static_cast<uint32_t>(lane));
    if (v != Logic::NoInfl) {
      s.inputValues[i] = v;
      s.inputSet[i] = 1;
    }
  }
  for (const SimError& e : errors_) {
    if (e.lane != static_cast<int32_t>(lane)) continue;
    SimError scalar = e;
    scalar.lane = -1;  // scalar convention, so it restores anywhere
    s.errors.push_back(std::move(scalar));
  }
  return s;
}

void BatchSimulation::restoreSnapshot(size_t lane, const SimSnapshot& snap) {
  checkLane(lane);
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
  restoreRegisters(lane, snap.regValues);
  for (size_t i = 0; i < g_.denseCount; ++i) {
    laneSet(inputValues_[i], static_cast<uint32_t>(lane),
            snap.inputSet[i] ? snap.inputValues[i] : Logic::NoInfl);
  }
  rngStates_[lane] = snap.rngState;
  cycle_ = snap.cycle;  // shared across lanes (documented)
  for (const SimError& e : snap.errors) {
    SimError tagged = e;
    tagged.lane = static_cast<int32_t>(lane);
    errors_.push_back(std::move(tagged));
  }
  evaluated_ = false;
}

std::vector<Logic> BatchSimulation::saveRegisters(size_t lane) const {
  checkLane(lane);
  std::vector<Logic> out(regValues_.size());
  for (size_t k = 0; k < regValues_.size(); ++k) {
    out[k] = laneValue(regValues_[k], static_cast<uint32_t>(lane));
  }
  return out;
}

void BatchSimulation::restoreRegisters(size_t lane,
                                       const std::vector<Logic>& state) {
  checkLane(lane);
  if (state.size() != regValues_.size()) {
    throw std::invalid_argument(
        "register snapshot has wrong size for this design");
  }
  for (size_t k = 0; k < regValues_.size(); ++k) {
    laneSet(regValues_[k], static_cast<uint32_t>(lane), state[k]);
  }
}

void BatchSimulation::runCycle(bool latch) {
  BatchSeeds seeds;
  seeds.inputValues = &inputValues_;
  seeds.regValues = &regValues_;
  seeds.rngStates = &rngStates_;
  seeds.laneMask = laneMask_;
  if (!faults_.empty()) {
    buildFaultPlan();
    if (faultPlan_.any) seeds.faults = &faultPlan_;
  }
  eval_.evaluate(seeds, result_);
  evaluated_ = true;

  const Netlist& nl = g_.design->netlist;
  const size_t firstError = errors_.size();
  for (uint32_t dn : result_.collisions) {
    uint64_t mask = result_.activeMulti[dn] & laneMask_;
    for (uint32_t lane = 0; lane < lanes_; ++lane) {
      if (!((mask >> lane) & 1)) continue;
      errors_.push_back(
          {cycle_, Diag::SimContention, nl.net(g_.rootOf[dn]).name,
           "more than one (0,1,UNDEF)-assignment active in one cycle",
           static_cast<int32_t>(lane)});
    }
  }
  // Deterministic surfacing order: collisions arrive in schedule order
  // with lanes nested inside, so re-sort this cycle's records by
  // (lane, net).  Cycles are appended monotonically, which makes the
  // whole errors() vector ordered by (cycle, lane, net).
  std::sort(errors_.begin() + static_cast<ptrdiff_t>(firstError),
            errors_.end(), [](const SimError& a, const SimError& b) {
              return a.lane != b.lane ? a.lane < b.lane
                                      : a.netName < b.netName;
            });

  if (!latch) return;
  // Per-lane two-phase latch (§5.1): a lane's register keeps its value
  // when that lane saw no active assignment this cycle.
  for (size_t k = 0; k < g_.regNodes.size(); ++k) {
    const Node& reg = nl.node(g_.regNodes[k]);
    uint32_t in = g_.dense(reg.inputs[0]);
    uint64_t act = result_.activeAny[in];
    const LanePlanes& v = result_.netValues[in];
    LanePlanes& r = regValues_[k];
    r.p0 = (v.p0 & act) | (r.p0 & ~act);
    r.p1 = (v.p1 & act) | (r.p1 & ~act);
  }
  ++cycle_;
}

void BatchSimulation::step(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) runCycle(/*latch=*/true);
}

void BatchSimulation::evaluateOnly() { runCycle(/*latch=*/false); }

Logic BatchSimulation::netValue(size_t lane, NetId net) const {
  checkLane(lane);
  if (!evaluated_) return Logic::Undef;
  uint32_t dn = g_.dense(net);
  if (dn == SimGraph::kNoDense) return Logic::NoInfl;  // dropped class
  return laneValue(result_.netValues[dn], static_cast<uint32_t>(lane));
}

Logic BatchSimulation::netValueByName(size_t lane,
                                      const std::string& name) const {
  NetId id = g_.design->netlist.findByName(name);
  if (id == kNoNet) throw std::invalid_argument("no net named '" + name + "'");
  return netValue(lane, id);
}

std::vector<Logic> BatchSimulation::outputBits(
    size_t lane, const std::string& port) const {
  const Port* p = findPortOrThrow(port);
  std::vector<Logic> out;
  out.reserve(p->nets.size());
  for (size_t i = 0; i < p->nets.size(); ++i) {
    Logic v = netValue(lane, p->nets[i]);
    // Observation of a boolean port converts NOINFL to UNDEF (§4.1).
    if (v == Logic::NoInfl && p->kinds[i] == BasicKind::Boolean)
      v = Logic::Undef;
    out.push_back(v);
  }
  return out;
}

Logic BatchSimulation::output(size_t lane, const std::string& port) const {
  std::vector<Logic> bits = outputBits(lane, port);
  if (bits.size() != 1) {
    throw std::invalid_argument("port '" + port + "' is not a single bit");
  }
  return bits[0];
}

metrics::SimCounters BatchSimulation::metricsCounters() const {
  const EvalStats& s = stats();
  metrics::SimCounters c;
  c.ran = true;
  c.evaluator = "batch";
  c.cycles = cycle_;
  c.lanes = lanes_;
  c.laneCycles = cycle_ * lanes_;
  c.nodeFirings = s.nodeFirings;
  c.inputEvents = s.inputEvents;
  c.sweeps = s.sweeps;
  c.netResolutions = s.netResolutions;
  c.shortCircuitSkips = s.shortCircuitSkips;
  c.contentionChecks = s.contentionChecks;
  c.epochResets = s.epochResets;
  c.faults = errors_.size();
  for (const SimError& e : errors_) {
    if (e.code == Diag::SimContention) ++c.contentionFaults;
  }
  return c;
}

std::optional<uint64_t> BatchSimulation::outputUint(
    size_t lane, const std::string& port) const {
  std::vector<Logic> bits = outputBits(lane, port);
  uint64_t value = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (!isDefined(bits[i])) return std::nullopt;
    if (bits[i] == Logic::One) {
      if (i >= 64) return std::nullopt;  // doesn't fit a uint64_t
      value |= uint64_t{1} << i;
    }
  }
  return value;
}

}  // namespace zeus
