#include "src/core/batch_sim.h"

#include <algorithm>
#include <stdexcept>

#include "src/sim/snapshot.h"

namespace zeus {

namespace {

/// Transposes a 64x64 bit matrix in place: afterwards bit j of m[i] is
/// what bit i of m[j] was.  Six rounds swap ever smaller off-diagonal
/// blocks (Hacker's Delight, 7-3): 192 masked word-pair swaps instead of
/// 4096 single-bit moves.
void transpose64(std::array<uint64_t, 64>& m) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
  }
}

/// Writes two-valued bits into the lanes of `lanes`: One where `ones`
/// has a 1, Zero elsewhere; other lanes keep their values.
inline void writeLanes(LanePlanes& p, uint64_t lanes, uint64_t ones) {
  p.p0 = (p.p0 & ~lanes) | (lanes & ~ones);
  p.p1 = (p.p1 & ~lanes) | (lanes & ones);
}

}  // namespace

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

void BatchSimulation::checkLane(size_t lane) const {
  if (lane >= lanes_) {
    throw std::invalid_argument("lane " + std::to_string(lane) +
                                " out of range (batch has " +
                                std::to_string(lanes_) + " lane(s))");
  }
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               Logic v) {
  setInput(lane, this->port(port), v);
}

void BatchSimulation::setInput(size_t lane, const std::string& port,
                               const std::vector<Logic>& bits) {
  setInput(lane, this->port(port), bits);
}

void BatchSimulation::setInputUint(size_t lane, const std::string& port,
                                   uint64_t value) {
  setInputUint(lane, this->port(port), value);
}

void BatchSimulation::setInputAll(const std::string& port, Logic v) {
  setInputAll(this->port(port), v);
}

void BatchSimulation::clearInput(size_t lane, const std::string& port) {
  clearInput(lane, this->port(port));
}

void BatchSimulation::setInput(size_t lane, PortHandle port, Logic v) {
  setInput(lane, port, std::span<const Logic>(&v, 1));
}

void BatchSimulation::setInput(size_t lane, PortHandle port,
                               std::span<const Logic> bits) {
  checkLane(lane);
  g_.checkWidth(port, bits.size());
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  for (size_t i = 0; i < bits.size(); ++i) {
    laneSet(inputValues_[slots[i]], static_cast<uint32_t>(lane), bits[i]);
  }
}

void BatchSimulation::setInputUint(size_t lane, PortHandle port,
                                   uint64_t value) {
  checkLane(lane);
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  const uint64_t bit = uint64_t{1} << lane;
  for (size_t i = 0; i < slots.size(); ++i, value >>= 1) {
    // Ports wider than 64 bits get zeros above bit 63, as `value` has
    // been shifted empty by then.
    writeLanes(inputValues_[slots[i]], bit, 0 - (value & 1));
  }
}

void BatchSimulation::setInputAll(PortHandle port, Logic v) {
  for (uint32_t dn : g_.slotsOf(port).dense) {
    inputValues_[dn] = lanesBroadcast(v, laneMask_);
  }
}

void BatchSimulation::setInputAll(PortHandle port,
                                  std::span<const Logic> bits) {
  g_.checkWidth(port, bits.size());
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  for (size_t i = 0; i < bits.size(); ++i) {
    inputValues_[slots[i]] = lanesBroadcast(bits[i], laneMask_);
  }
}

void BatchSimulation::clearInput(size_t lane, PortHandle port) {
  checkLane(lane);
  const uint64_t keep = ~(uint64_t{1} << lane);
  for (uint32_t dn : g_.slotsOf(port).dense) {
    // A cleared lane carries NOINFL = (0,0): no contribution.
    inputValues_[dn].p0 &= keep;
    inputValues_[dn].p1 &= keep;
  }
}

void BatchSimulation::setInputUintLanes(PortHandle port,
                                        std::span<const uint64_t> values) {
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  const size_t words = (slots.size() + 63) / 64;  // per lane
  if (values.size() != lanes_ * words) {
    throw std::invalid_argument(
        "port '" + g_.portName(port) + "' takes " + std::to_string(words) +
        " word(s) per lane for " + std::to_string(lanes_) +
        " lane(s), got " + std::to_string(values.size()));
  }
  std::array<uint64_t, 64> ones;
  for (size_t k = 0; k < words; ++k) {
    ones.fill(0);
    for (size_t lane = 0; lane < lanes_; ++lane) {
      ones[lane] = values[lane * words + k];
    }
    transpose64(ones);  // ones[i] bit L = bit 64k + i of lane L's value
    const size_t end = std::min(slots.size(), 64 * k + 64);
    for (size_t i = 64 * k; i < end; ++i) {
      writeLanes(inputValues_[slots[i]], laneMask_, ones[i % 64]);
    }
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
  faultWindow_.markStale();
}

void BatchSimulation::buildFaultPlan() {
  faultPlan_.resize(g_.denseCount);  // assign() clears the old plan too
  faultPlan_.any = false;
  faultWindow_.open(cycle_);
  for (const auto& [lane, f] : faults_) {
    if (!faultWindow_.activeAt(f)) continue;
    faultPlan_.add(f.denseNet, faultModeOf(f.kind), uint64_t{1} << lane);
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

uint64_t BatchSimulation::designHash() const {
  if (!designHash_) designHash_ = designContentHash(*g_.design);
  return *designHash_;
}

SimSnapshot BatchSimulation::saveSnapshot(size_t lane) const {
  checkLane(lane);
  SimSnapshot s;
  s.designHash = designHash();
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
  if (snap.designHash != 0 && snap.designHash != designHash()) {
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
  seeds.rngStates = rngStates_.data();
  seeds.laneMask = laneMask_;
  if (!faults_.empty()) {
    if (!faultWindow_.covers(cycle_)) buildFaultPlan();
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
    const uint32_t in = g_.regInput[k];
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

LanePlanes BatchSimulation::lanePlanes(NetId net) const {
  if (!evaluated_) return lanesBroadcast(Logic::Undef, laneMask_);
  const uint32_t dn = g_.dense(net);
  if (dn == SimGraph::kNoDense) return {};  // dropped class: NOINFL
  const LanePlanes& p = result_.netValues[dn];
  return {p.p0 & laneMask_, p.p1 & laneMask_};
}

Logic BatchSimulation::netValueByName(size_t lane,
                                      const std::string& name) const {
  NetId id = g_.design->netlist.findByName(name);
  if (id == kNoNet) throw std::invalid_argument("no net named '" + name + "'");
  return netValue(lane, id);
}

std::vector<Logic> BatchSimulation::outputBits(
    size_t lane, const std::string& port) const {
  const PortHandle h = this->port(port);
  std::vector<Logic> out(h.width);
  outputBits(lane, h, out);
  return out;
}

Logic BatchSimulation::output(size_t lane, const std::string& port) const {
  return output(lane, this->port(port));
}

std::optional<uint64_t> BatchSimulation::outputUint(
    size_t lane, const std::string& port) const {
  return outputUint(lane, this->port(port));
}

Logic BatchSimulation::observe(const SimGraph::PortSlots& ps, size_t i,
                               size_t lane) const {
  if (!evaluated_) return Logic::Undef;
  const LanePlanes& p = result_.netValues[ps.dense[i]];
  uint64_t b0 = (p.p0 >> lane) & 1;
  uint64_t b1 = (p.p1 >> lane) & 1;
  // Observation of a boolean port converts NOINFL to UNDEF (§4.1).
  const uint64_t undef = ((b0 | b1) ^ 1) & (ps.boolMask[i / 64] >> (i % 64));
  b0 |= undef & 1;
  b1 |= undef & 1;
  return logicOfPlanes(b0, b1);
}

void BatchSimulation::outputBits(size_t lane, PortHandle port,
                                 std::span<Logic> out) const {
  checkLane(lane);
  g_.checkWidth(port, out.size());
  const SimGraph::PortSlots& ps = g_.slotsOf(port);
  for (size_t i = 0; i < out.size(); ++i) out[i] = observe(ps, i, lane);
}

Logic BatchSimulation::output(size_t lane, PortHandle port) const {
  checkLane(lane);
  const SimGraph::PortSlots& ps = g_.slotsOf(port);
  if (ps.dense.size() != 1) {
    throw std::invalid_argument("port '" + g_.portName(port) +
                                "' is not a single bit");
  }
  return observe(ps, 0, lane);
}

std::optional<uint64_t> BatchSimulation::outputUint(size_t lane,
                                                    PortHandle port) const {
  checkLane(lane);
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  if (!evaluated_) {
    if (slots.empty()) return 0;
    return std::nullopt;  // every bit reads UNDEF
  }
  // Defined lanes have exactly one plane set: (1,1) = UNDEF and
  // (0,0) = NOINFL are undefined.  Above bit 63 only a 0 fits.
  uint64_t defined = ~uint64_t{0};
  uint64_t value = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const LanePlanes& p = result_.netValues[slots[i]];
    defined &= p.p0 ^ p.p1;
    if (i < 64) value |= ((p.p1 >> lane) & 1) << i;
    else defined &= ~p.p1;
  }
  if (!((defined >> lane) & 1)) return std::nullopt;
  return value;
}

uint64_t BatchSimulation::outputUintLanes(PortHandle port,
                                          std::span<uint64_t> values) const {
  if (values.size() != lanes_) {
    throw std::invalid_argument("expected one value per lane (" +
                                std::to_string(lanes_) + "), got " +
                                std::to_string(values.size()));
  }
  const std::vector<uint32_t>& slots = g_.slotsOf(port).dense;
  if (!evaluated_) {
    std::fill(values.begin(), values.end(), 0);
    return slots.empty() ? laneMask_ : 0;  // every bit reads UNDEF
  }
  std::array<uint64_t, 64> ones{};
  uint64_t defined = laneMask_;
  for (size_t i = 0; i < slots.size(); ++i) {
    const LanePlanes& p = result_.netValues[slots[i]];
    // Defined lanes have exactly one plane set; above bit 63 only a 0
    // fits.
    defined &= p.p0 ^ p.p1;
    if (i < 64) ones[i] = p.p1;
    else defined &= ~p.p1;
  }
  transpose64(ones);  // ones[L] = lane L's value
  for (size_t lane = 0; lane < values.size(); ++lane) {
    values[lane] = ones[lane] & (0 - ((defined >> lane) & 1));
  }
  return defined;
}

metrics::SimCounters BatchSimulation::metricsCounters() const {
  return simCounters("batch", stats(), cycle_, lanes_, errors_);
}

}  // namespace zeus
