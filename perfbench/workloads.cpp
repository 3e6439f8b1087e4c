// The four benchmark workloads (README.md gives the reason for each).
//
// Every workload is a closed loop: each library call waits for the one
// before it.  Inputs come from the --seed alone; outputs are checked
// after each timed call, outside the time that call is charged.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "perfbench/perfbench.h"
#include "src/core/batch_serve.h"
#include "src/core/sim_farm.h"
#include "src/core/zeus.h"
#include "src/corpus/corpus.h"
#include "src/sim/fault.h"

namespace perfbench {

namespace {

using zeus::Logic;

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

/// Set-up repetitions before the measuring loop; the loop adds one every
/// kSetupEverySeconds.  setup_s is the median of all of them.
constexpr int kSetupReps = 11;
constexpr double kSetupEverySeconds = 0.25;

uint64_t mix64(uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The benchmark's own input generator (splitmix64).
struct Rng {
  uint64_t state;
  uint64_t next() { return mix64(state++ * kGolden); }
  uint64_t below(uint64_t n) { return next() % n; }
};

void fold(uint64_t& h, uint64_t v) { h = (h ^ v) * kFnvPrime; }

std::string hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

double ms(Clock::time_point a, Clock::time_point b) {
  return secondsBetween(a, b) * 1e3;
}

/// One design taken from source to a simulation graph at -O1.
struct Built {
  std::unique_ptr<zeus::Compilation> comp;
  std::unique_ptr<zeus::Design> design;
  std::unique_ptr<zeus::SimGraph> graph;
  uint64_t elabNodes = 0;
  uint64_t optNodes = 0;
};

Built compile(const std::string& source, const std::string& top, Tracer& tr) {
  Built b;
  {
    Tracer::Span s(tr, kFromSource);
    b.comp = zeus::Compilation::fromSource("perfbench.zeus", source);
  }
  if (!b.comp->ok()) {
    throw std::runtime_error("front end failed:\n" + b.comp->diagnosticsText());
  }
  {
    Tracer::Span s(tr, kElaborate);
    b.design = b.comp->elaborate(top);
  }
  if (!b.design) {
    throw std::runtime_error("elaboration failed:\n" +
                             b.comp->diagnosticsText());
  }
  b.elabNodes = b.design->netlist.nodeCount();
  {
    Tracer::Span s(tr, kOptimize);
    b.comp->optimize(*b.design, zeus::OptOptions{1});
  }
  if (!b.comp->ok()) {
    throw std::runtime_error("optimization failed:\n" +
                             b.comp->diagnosticsText());
  }
  b.optNodes = b.design->netlist.nodeCount();
  {
    Tracer::Span s(tr, kGraphBuild);
    b.graph = std::make_unique<zeus::SimGraph>(
        zeus::buildSimGraph(*b.design, b.comp->diags()));
  }
  if (b.graph->hasCycle) throw std::runtime_error("design is cyclic");
  return b;
}

/// Times a workload's set-up.  The host's speed switches between a fast
/// and a slow phase every few seconds, so set-ups timed only at the start
/// of a run would all land in one phase.  `first` times kSetupReps
/// repetitions and keeps the last one's result; the measuring loop then
/// calls `between` between timed calls, which times one more repetition
/// every kSetupEverySeconds, so the samples share the run's phases.
template <class F>
class SetupTimer {
 public:
  SetupTimer(Tracer& tr, F once) : tr_(tr), once_(std::move(once)) {}

  auto first() {
    for (int i = 1; i < kSetupReps; ++i) time();
    auto out = time();
    next_ = Clock::now() + kEvery;
    return out;
  }
  void between() {
    if (Clock::now() < next_) return;
    time();
    next_ = Clock::now() + kEvery;
  }
  [[nodiscard]] double medianSeconds() const { return median(seconds_); }
  [[nodiscard]] size_t reps() const { return seconds_.size(); }

 private:
  auto time() {
    const auto t0 = Clock::now();
    Tracer::Span s(tr_, kSetup);
    auto out = once_();
    seconds_.push_back(secondsBetween(t0, Clock::now()));
    return out;
  }

  static constexpr auto kEvery =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kSetupEverySeconds));

  Tracer& tr_;
  F once_;
  Clock::time_point next_;
  std::vector<double> seconds_;
};

void setSetup(const auto& timer, Report& r) {
  r.e2e["setup_s"] = timer.medianSeconds();
  r.detail["setup_reps"] = static_cast<double>(timer.reps());
}

void setMeter(const Meter& m, Report& r) {
  r.e2e["lane_cycles_per_s"] = m.laneCyclesPerSecond();
  r.e2e["ops_per_s"] = m.opsPerSecond();
  r.e2e["latency_p50_ms"] = m.p50Ms();
  r.detail["latency_p90_ms"] = m.p90Ms();
  r.detail["windows"] = static_cast<double>(m.windows());
  r.detail["latency_samples"] = static_cast<double>(m.samples());
}

std::vector<const zeus::Port*> inputPorts(const zeus::SimGraph& g) {
  std::vector<const zeus::Port*> in;
  for (const zeus::Port& p : g.design->ports) {
    if (p.mode == zeus::ast::ParamMode::In) in.push_back(&p);
  }
  return in;
}

std::vector<zeus::NetId> outputNets(const zeus::SimGraph& g) {
  std::vector<zeus::NetId> out;
  for (const zeus::Port& p : g.design->ports) {
    for (size_t b = 0; b < p.nets.size(); ++b) {
      if (p.modes[b] != zeus::ast::ParamMode::In) out.push_back(p.nets[b]);
    }
  }
  return out;
}

std::vector<const zeus::Port*> outputPorts(const zeus::SimGraph& g) {
  std::vector<const zeus::Port*> out;
  for (const zeus::Port& p : g.design->ports) {
    if (p.mode != zeus::ast::ParamMode::In) out.push_back(&p);
  }
  return out;
}

void randomBits(Rng& rng, std::vector<Logic>& bits) {
  uint64_t word = 0;
  for (size_t b = 0; b < bits.size(); ++b) {
    if (b % 64 == 0) word = rng.next();
    bits[b] = zeus::logicFromBool((word >> (b % 64)) & 1);
  }
}

/// Cycles driven under the per-cycle layer spans, so span totals can be
/// turned into per-cycle costs.
struct Work {
  uint64_t scalarCycles = 0;
  uint64_t batchCycles = 0;
  uint64_t batchLaneCycles = 0;
};

void setCounters(const zeus::metrics::SimCounters& c, uint64_t cycles,
                 Report& r) {
  const double n = static_cast<double>(std::max<uint64_t>(cycles, 1));
  r.layers["sim.node_firings_per_cycle"] =
      static_cast<double>(c.nodeFirings) / n;
  r.layers["sim.net_resolutions_per_cycle"] =
      static_cast<double>(c.netResolutions) / n;
  r.layers["sim.contention_checks_per_cycle"] =
      static_cast<double>(c.contentionChecks) / n;
  r.detail["counters.cycles"] = static_cast<double>(c.cycles);
  r.detail["counters.lane_cycles"] = static_cast<double>(c.laneCycles);
  r.detail["counters.node_firings"] = static_cast<double>(c.nodeFirings);
  r.detail["counters.net_resolutions"] = static_cast<double>(c.netResolutions);
  r.detail["counters.contention_checks"] =
      static_cast<double>(c.contentionChecks);
  r.detail["counters.sim_errors"] = static_cast<double>(c.faults);
}

/// Per-layer figures that come from the span totals of a traced pass.
void addSpanLayers(const Tracer& tr, const Work& w, Report& r) {
  if (!tr.on()) return;
  auto meanUs = [&](Layer l) {
    const Tracer::Totals& t = tr.totals(l);
    return t.calls ? static_cast<double>(t.totalNs) / 1e3 /
                         static_cast<double>(t.calls)
                   : 0.0;
  };
  auto ns = [&](Layer l) { return static_cast<double>(tr.totals(l).totalNs); };
  r.layers["compiler.from_source_us"] = meanUs(kFromSource);
  r.layers["elab.elaborate_us"] = meanUs(kElaborate);
  r.layers["transform.optimize_us"] = meanUs(kOptimize);
  r.layers["sim.graph_build_us"] = meanUs(kGraphBuild);
  if (w.batchCycles) {
    const double pack = ns(kBatchPack), step = ns(kBatchStep),
                 obs = ns(kBatchObserve);
    const double laneCycles = static_cast<double>(w.batchLaneCycles);
    r.layers["batch_sim.pack_ns"] = pack / laneCycles;
    r.layers["batch_sim.observe_ns"] = obs / laneCycles;
    r.layers["batch_sim.step_ns"] = step / static_cast<double>(w.batchCycles);
    r.layers["batch_sim.io_share"] = (pack + obs) / (pack + step + obs);
  }
  if (w.scalarCycles) {
    const double n = static_cast<double>(w.scalarCycles);
    r.layers["simulation.set_ns"] = ns(kSimulationSet) / n;
    r.layers["simulation.step_ns"] = ns(kSimulationStep) / n;
    r.layers["simulation.observe_ns"] = ns(kSimulationObserve) / n;
  }
}

/// Drives a scalar levelized Simulation for `cycles` seeded random cycles
/// through the string-keyed port API, to split set / step / observe.
void driveScalar(const zeus::SimGraph& g, uint64_t seed, uint64_t cycles,
                 Tracer& tr, Work& w) {
  zeus::Simulation sim(g, zeus::EvaluatorKind::Levelized);
  const auto inputs = inputPorts(g);
  const auto outputs = outputPorts(g);
  std::vector<std::vector<Logic>> bits(inputs.size());
  Rng rng{seed};
  uint64_t sink = 0;
  for (uint64_t c = 0; c < cycles; ++c) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      bits[i].resize(inputs[i]->nets.size());
      randomBits(rng, bits[i]);
    }
    {
      Tracer::Span s(tr, kSimulationSet);
      sim.setRset(c == 0);
      for (size_t i = 0; i < inputs.size(); ++i) {
        sim.setInput(inputs[i]->name, bits[i]);
      }
    }
    {
      Tracer::Span s(tr, kSimulationStep);
      sim.step(1);
    }
    {
      Tracer::Span s(tr, kSimulationObserve);
      for (const zeus::Port* p : outputs) {
        for (Logic v : sim.outputBits(p->name)) {
          fold(sink, static_cast<uint64_t>(v));
        }
      }
    }
  }
  w.scalarCycles += cycles;
}

/// Drives one 64-lane block the way a farm worker does (per-lane string
/// keyed inputs, netValue observation), to split pack / step / observe.
void driveBlock(const zeus::SimGraph& g, uint64_t seed, uint64_t cycles,
                Tracer& tr, Work& w) {
  constexpr size_t kLanes = zeus::BatchSimulation::kMaxLanes;
  zeus::BatchSimulation batch(g, kLanes);
  for (size_t l = 0; l < kLanes; ++l) {
    batch.setRandomSeed(l, zeus::farmLaneRngSeed(seed, l));
  }
  const auto inputs = inputPorts(g);
  const auto outputs = outputNets(g);
  std::vector<std::vector<Logic>> bits(inputs.size() * kLanes);
  Rng rng{seed};
  uint64_t sink = 0;
  for (uint64_t c = 0; c < cycles; ++c) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (size_t l = 0; l < kLanes; ++l) {
        std::vector<Logic>& v = bits[i * kLanes + l];
        v.resize(inputs[i]->nets.size());
        randomBits(rng, v);
      }
    }
    {
      Tracer::Span s(tr, kBatchPack);
      batch.setRset(c == 0);
      for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t l = 0; l < kLanes; ++l) {
          batch.setInput(l, inputs[i]->name, bits[i * kLanes + l]);
        }
      }
    }
    {
      Tracer::Span s(tr, kBatchStep);
      batch.step(1);
    }
    {
      Tracer::Span s(tr, kBatchObserve);
      for (size_t l = 0; l < kLanes; ++l) {
        for (zeus::NetId n : outputs) {
          fold(sink, static_cast<uint64_t>(batch.netValue(l, n)));
        }
      }
    }
  }
  w.batchCycles += cycles;
  w.batchLaneCycles += cycles * kLanes;
}

}  // namespace

// ---------------------------------------------------------------------
// stream-adder32: rippleCarry(32), a scalar leg and a 64-lane batch leg.
// ---------------------------------------------------------------------

Report runStreamAdder32(const Config& cfg, Tracer& tr) {
  constexpr size_t kLanes = zeus::BatchSimulation::kMaxLanes;
  // Both legs fold the outputs of the first kPairs operand pairs, in
  // stream order, into one checksum each; beyond that the stream wraps.
  constexpr size_t kPairs = size_t{1} << 16;
  // The legs alternate in slices of this much call time, so host
  // interference lands on both legs alike.
  constexpr double kSliceSeconds = 0.05;
  Report r;
  std::vector<uint32_t> a(kPairs), b(kPairs);
  std::vector<uint8_t> cin(kPairs);
  Rng rng{cfg.seed};
  for (size_t i = 0; i < kPairs; ++i) {
    const uint64_t v = rng.next();
    a[i] = static_cast<uint32_t>(v);
    b[i] = static_cast<uint32_t>(v >> 32);
    cin[i] = static_cast<uint8_t>(rng.next() & 1);
  }
  auto wrong = [&](size_t k, const std::optional<uint64_t>& s, Logic cout) {
    const uint64_t want = uint64_t{a[k]} + uint64_t{b[k]} + uint64_t{cin[k]};
    return !s || *s != (want & 0xFFFFFFFFu) ||
           cout != zeus::logicFromBool(want >> 32);
  };

  struct Setup {
    Built built;
    std::unique_ptr<zeus::Simulation> sim;
    std::unique_ptr<zeus::BatchSimulation> batch;
  };
  const std::string source =
      std::string(zeus::corpus::kAdders) + "SIGNAL adder: rippleCarry(32);\n";
  SetupTimer setup(tr, [&] {
    Setup s;
    s.built = compile(source, "adder", tr);
    Tracer::Span span(tr, kSimConstruct);
    s.sim = std::make_unique<zeus::Simulation>(*s.built.graph,
                                               zeus::EvaluatorKind::Levelized);
    s.batch = std::make_unique<zeus::BatchSimulation>(*s.built.graph, kLanes);
    return s;
  });
  const Setup su = setup.first();
  zeus::Simulation& sim = *su.sim;
  zeus::BatchSimulation& batch = *su.batch;

  Tracer::Span root(tr, kWorkload);
  Meter scalarMeter, batchMeter;
  uint64_t scalarHash = kFnvBasis, batchHash = kFnvBasis;
  uint64_t scalarCycles = 0, batchCycles = 0;
  std::array<std::optional<uint64_t>, kLanes> s;
  std::array<Logic, kLanes> cout;
  for (const auto end = Clock::now() + std::chrono::duration<double>(
                            cfg.seconds);;) {
    // Scalar leg: one operand pair per cycle.  A step is 64 pairs, the
    // same work as one batch cycle.
    for (double slice = 0; slice < kSliceSeconds;) {
      double step = 0;
      for (size_t l = 0; l < kLanes; ++l, ++scalarCycles) {
        const size_t k = scalarCycles % kPairs;
        const auto t0 = Clock::now();
        {
          Tracer::Span span(tr, kSimulationSet);
          sim.setInputUint("a", a[k]);
          sim.setInputUint("b", b[k]);
          sim.setInput("cin", zeus::logicFromBool(cin[k]));
        }
        {
          Tracer::Span span(tr, kSimulationStep);
          sim.step(1);
        }
        {
          Tracer::Span span(tr, kSimulationObserve);
          s[0] = sim.outputUint("s");
          cout[0] = sim.output("cout");
        }
        step += secondsBetween(t0, Clock::now());
        if (wrong(k, s[0], cout[0])) ++r.failed;
        if (scalarCycles < kPairs) {
          fold(scalarHash, s[0].value_or(~uint64_t{0}));
          fold(scalarHash, static_cast<uint64_t>(cout[0]));
        }
      }
      slice += step;
      scalarMeter.addLatency(step * 1e3);
      scalarMeter.addCall(step, kLanes, kLanes);
    }
    // Batch leg: 64 consecutive operand pairs per cycle, one per lane.
    for (double slice = 0; slice < kSliceSeconds; ++batchCycles) {
      const size_t first = (batchCycles * kLanes) % kPairs;
      const auto t0 = Clock::now();
      {
        Tracer::Span span(tr, kBatchPack);
        for (size_t l = 0; l < kLanes; ++l) {
          batch.setInputUint(l, "a", a[first + l]);
          batch.setInputUint(l, "b", b[first + l]);
          batch.setInput(l, "cin", zeus::logicFromBool(cin[first + l]));
        }
      }
      {
        Tracer::Span span(tr, kBatchStep);
        batch.step(1);
      }
      {
        Tracer::Span span(tr, kBatchObserve);
        for (size_t l = 0; l < kLanes; ++l) {
          s[l] = batch.outputUint(l, "s");
          cout[l] = batch.output(l, "cout");
        }
      }
      const double dt = secondsBetween(t0, Clock::now());
      slice += dt;
      batchMeter.addLatency(dt * 1e3);
      batchMeter.addCall(dt, 1, kLanes);
      for (size_t l = 0; l < kLanes; ++l) {
        if (wrong(first + l, s[l], cout[l])) ++r.failed;
        if (batchCycles * kLanes < kPairs) {
          fold(batchHash, s[l].value_or(~uint64_t{0}));
          fold(batchHash, static_cast<uint64_t>(cout[l]));
        }
      }
    }
    if (Clock::now() >= end && scalarCycles >= kPairs &&
        batchCycles * kLanes >= kPairs && scalarMeter.measured() &&
        batchMeter.measured()) {
      break;
    }
    setup.between();
  }

  // Every pair was already checked on its own, so equal checksums follow
  // from the per-pair checks; the comparison is kept as a second guard
  // and is not counted as an operation of its own.
  r.attempted = scalarCycles + batchCycles * kLanes;
  if (scalarHash != batchHash) ++r.failed;
  setMeter(scalarMeter, r);
  r.e2e["lane_cycles_per_s"] = batchMeter.laneCyclesPerSecond();
  setSetup(setup, r);
  r.detail["scalar_cycles_per_s"] = r.e2e["ops_per_s"];
  r.detail["scalar_cycles"] = static_cast<double>(scalarCycles);
  r.detail["batch_cycles"] = static_cast<double>(batchCycles);
  r.detail["batch_cycle_p50_ms"] = batchMeter.p50Ms();
  r.detail["batch_cycle_p90_ms"] = batchMeter.p90Ms();
  setCounters(batch.metricsCounters(), batchCycles, r);
  r.layers["elab.nodes"] = static_cast<double>(su.built.elabNodes);
  r.layers["transform.nodes"] = static_cast<double>(su.built.optNodes);
  addSpanLayers(tr, {scalarCycles, batchCycles, batchCycles * kLanes}, r);
  return r;
}

// ---------------------------------------------------------------------
// farm-dict64: runFarm on dicttree(64), 1024 lanes, 2 worker threads.
// ---------------------------------------------------------------------

Report runFarmDict64(const Config& cfg, Tracer& tr) {
  constexpr size_t kLanes = 1024;
  constexpr size_t kThreads = 2;
  constexpr uint64_t kCycles = 16;
  constexpr size_t kCheckedLanes = 4;  ///< lanes re-run by the scalar oracle
  Report r;
  struct Setup {
    Built built;
    std::unique_ptr<zeus::BatchSimulation> batch;
  };
  const std::string source = std::string(zeus::corpus::kDictionary) +
                             "SIGNAL dict: dicttree(64);\n";
  SetupTimer setup(tr, [&] {
    Setup s;
    s.built = compile(source, "dict", tr);
    Tracer::Span span(tr, kSimConstruct);
    s.batch = std::make_unique<zeus::BatchSimulation>(
        *s.built.graph, zeus::BatchSimulation::kMaxLanes);
    return s;
  });
  const Setup su = setup.first();
  const zeus::SimGraph& graph = *su.built.graph;

  struct Sample {
    uint64_t seed;
    std::vector<uint64_t> checksums, rngStates;
  };
  std::vector<Sample> samples;
  std::vector<double> runS, blockMean, blockMax, eff, imbalance;
  Meter meter;
  uint64_t runs = 0;
  Tracer::Span root(tr, kWorkload);
  for (const auto end = Clock::now() + std::chrono::duration<double>(
                            cfg.seconds);;) {
    zeus::FarmOptions opts;
    opts.threads = kThreads;
    opts.lanes = kLanes;
    opts.cycles = kCycles;
    opts.seed = mix64(cfg.seed * kGolden + runs);
    zeus::FarmReport rep;
    const auto t0 = Clock::now();
    {
      Tracer::Span span(tr, kFarmRun);
      rep = zeus::runFarm(graph, opts);
    }
    const auto t1 = Clock::now();
    meter.addLatency(ms(t0, t1));
    meter.addCall(secondsBetween(t0, t1), 1, kLanes * kCycles);
    const double mean = static_cast<double>(rep.blockUs.sum()) /
                        static_cast<double>(rep.blockUs.count());
    runS.push_back(rep.seconds);
    blockMean.push_back(mean);
    blockMax.push_back(static_cast<double>(rep.blockUs.max()));
    eff.push_back(static_cast<double>(rep.blockUs.sum()) / 1e6 /
                  (static_cast<double>(rep.threads) * rep.seconds));
    imbalance.push_back(static_cast<double>(rep.blockUs.max()) / mean);
    if (runs == 0) {
      setCounters(zeus::farmMetricsCounters(rep), kCycles * rep.blocks, r);
    }
    if (runs < 2 || runs % 64 == 0) {
      samples.push_back(
          {opts.seed,
           {rep.checksums.begin(), rep.checksums.begin() + kCheckedLanes},
           {rep.rngStates.begin(), rep.rngStates.begin() + kCheckedLanes}});
    }
    ++runs;
    if (t1 >= end && meter.measured()) break;
    setup.between();
  }

  // Output check: the first lanes of sampled runs against one scalar
  // Simulation per lane.
  for (const Sample& sm : samples) {
    zeus::FarmOptions opts;
    opts.threads = 1;
    opts.lanes = kCheckedLanes;
    opts.cycles = kCycles;
    opts.seed = sm.seed;
    zeus::FarmReport oracle;
    {
      Tracer::Span span(tr, kFarmOracle);
      oracle = zeus::runFarmScalarOracle(graph, opts);
    }
    if (oracle.checksums != sm.checksums || oracle.rngStates != sm.rngStates) {
      ++r.failed;
    }
  }
  r.attempted = runs;

  Work work;
  if (tr.on()) {
    driveBlock(graph, cfg.seed, 4 * kCycles, tr, work);
    driveScalar(graph, cfg.seed, kCycles, tr, work);
  }
  setMeter(meter, r);
  setSetup(setup, r);
  r.detail["farm.runs"] = static_cast<double>(runs);
  r.detail["farm.checked_runs"] = static_cast<double>(samples.size());
  r.layers["sim_farm.run_s"] = median(runS);
  r.layers["sim_farm.block_us_mean"] = median(blockMean);
  r.layers["sim_farm.block_us_max"] = median(blockMax);
  r.layers["sim_farm.parallel_eff"] = median(eff);
  r.layers["sim_farm.imbalance"] = median(imbalance);
  r.layers["elab.nodes"] = static_cast<double>(su.built.elabNodes);
  r.layers["transform.nodes"] = static_cast<double>(su.built.optNodes);
  addSpanLayers(tr, work, r);
  return r;
}

// ---------------------------------------------------------------------
// faults-am2901: full stuck-at campaigns, 256 cycles per batch.
// ---------------------------------------------------------------------

Report runFaultsAm2901(const Config& cfg, Tracer& tr) {
  constexpr uint64_t kCycles = 256;
  constexpr size_t kLanes = 64;
  Report r;
  std::string source, top;
  if (!zeus::corpus::instantiate("am2901", source, top)) {
    throw std::runtime_error("corpus has no am2901");
  }
  struct Setup {
    Built built;
    std::unique_ptr<zeus::BatchSimulation> batch;
  };
  SetupTimer setup(tr, [&] {
    Setup s;
    s.built = compile(source, top, tr);
    Tracer::Span span(tr, kSimConstruct);
    s.batch = std::make_unique<zeus::BatchSimulation>(*s.built.graph, kLanes);
    return s;
  });
  const Setup su = setup.first();
  const zeus::SimGraph& graph = *su.built.graph;
  const std::vector<zeus::FaultSpec> universe =
      zeus::defaultFaultUniverse(graph);
  const size_t batch0 = std::min(universe.size(), kLanes - 1);

  std::vector<double> cycleUs;
  Meter meter;
  uint64_t campaigns = 0, faults = 0, batches = 0;
  Clock::time_point lastBatch, lastCycle;
  const bool traced = tr.on();
  Tracer::Span root(tr, kWorkload);
  for (const auto end = Clock::now() + std::chrono::duration<double>(
                            cfg.seconds);;) {
    zeus::FaultCampaignOptions opts;
    opts.cycles = kCycles;
    opts.lanes = kLanes;
    opts.seed = mix64(cfg.seed * kGolden + campaigns);
    opts.onCycle = [&](uint64_t evaluated) {
      if (!traced && evaluated % kCycles != 0) return;
      const auto now = Clock::now();
      if (traced) {
        cycleUs.push_back(secondsBetween(lastCycle, now) * 1e6);
        lastCycle = now;
      }
      if (evaluated % kCycles == 0) {
        meter.addLatency(ms(lastBatch, now));
        lastBatch = now;
      }
    };
    zeus::FaultCampaignReport rep;
    const auto t0 = Clock::now();
    lastBatch = lastCycle = t0;
    {
      Tracer::Span span(tr, kFaultCampaign);
      rep = zeus::runFaultCampaign(graph, opts);
    }
    const auto t1 = Clock::now();
    // Each batch runs its faults plus the golden lane for kCycles.
    meter.addCall(secondsBetween(t0, t1),
                  static_cast<double>(rep.faults.size()),
                  static_cast<double>((rep.faults.size() + rep.totalBatches) *
                                      kCycles));
    faults += rep.faults.size();
    batches += rep.totalBatches;
    ++campaigns;

    // Checks: every fault classified once, and batch 0 classifies the
    // same when its faults run on their own.
    Tracer::Span check(tr, kCheck);
    using Status = zeus::FaultOutcome::Status;
    const uint64_t detected = rep.countOf(Status::Detected);
    const uint64_t masked = rep.countOf(Status::Masked);
    const uint64_t undetected = rep.countOf(Status::Undetected);
    if (rep.faults.size() != universe.size() ||
        detected + masked + undetected != universe.size()) {
      r.failed += universe.size();
    }
    zeus::FaultCampaignOptions again = opts;
    again.onCycle = nullptr;
    again.universe.assign(universe.begin(),
                          universe.begin() + static_cast<ptrdiff_t>(batch0));
    const zeus::FaultCampaignReport rerun = zeus::runFaultCampaign(graph, again);
    for (size_t k = 0; k < batch0; ++k) {
      const zeus::FaultOutcome& x = rep.faults[k];
      const zeus::FaultOutcome& y = rerun.faults[k];
      if (x.status != y.status || x.firstDetectCycle != y.firstDetectCycle ||
          x.detector != y.detector || x.simErrors != y.simErrors) {
        ++r.failed;
      }
    }
    if (campaigns == 1) {
      r.detail["fault.detected"] = static_cast<double>(detected);
      r.detail["fault.masked"] = static_cast<double>(masked);
      r.detail["fault.undetected"] = static_cast<double>(undetected);
      r.layers["fault.batches"] = static_cast<double>(rep.totalBatches);
      r.layers["fault.lane_utilization"] =
          static_cast<double>(rep.faults.size()) /
          static_cast<double>(rep.totalBatches * (kLanes - 1));
      r.layers["fault.coverage"] = rep.coverage();
      r.layers["fault.detected"] = static_cast<double>(detected);
      r.layers["fault.masked"] = static_cast<double>(masked);
      r.layers["fault.undetected"] = static_cast<double>(undetected);
    }
    if (t1 >= end && meter.measured()) break;
    setup.between();
  }
  r.attempted = faults;

  Work work;
  if (traced) {
    // Batch 0 of a campaign by hand: golden lane 0, one fault per other
    // lane, the same stimulus broadcast to every lane.
    zeus::BatchSimulation batch(graph, batch0 + 1);
    for (size_t k = 0; k < batch0; ++k) batch.injectFault(k + 1, universe[k]);
    const auto inputs = inputPorts(graph);
    const auto outputs = outputNets(graph);
    std::vector<std::vector<Logic>> bits(inputs.size());
    Rng rng{cfg.seed};
    uint64_t sink = 0;
    for (uint64_t c = 0; c < kCycles; ++c) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        bits[i].resize(inputs[i]->nets.size());
        randomBits(rng, bits[i]);
      }
      {
        Tracer::Span span(tr, kBatchPack);
        batch.setRset(c == 0);
        for (size_t i = 0; i < inputs.size(); ++i) {
          for (size_t l = 0; l <= batch0; ++l) {
            batch.setInput(l, inputs[i]->name, bits[i]);
          }
        }
      }
      {
        Tracer::Span span(tr, kBatchStep);
        batch.step(1);
      }
      {
        Tracer::Span span(tr, kBatchObserve);
        if (batch.divergedLanes() != 0) {
          for (zeus::NetId n : outputs) {
            for (uint64_t m = batch.laneDiffMask(n); m != 0; m &= m - 1) {
              const auto lane = static_cast<size_t>(__builtin_ctzll(m));
              fold(sink, static_cast<uint64_t>(batch.netValue(lane, n)));
            }
          }
        }
      }
    }
    work.batchCycles = kCycles;
    work.batchLaneCycles = kCycles * (batch0 + 1);
    setCounters(batch.metricsCounters(), kCycles, r);
    driveScalar(graph, cfg.seed, kCycles, tr, work);
    r.layers["fault.batch_cycle_us_p50"] = percentile(cycleUs, 50);
    r.layers["fault.batch_cycle_us_p99"] = percentile(std::move(cycleUs), 99);
  }
  setMeter(meter, r);
  setSetup(setup, r);
  r.detail["faults_per_s"] = r.e2e["ops_per_s"];
  r.detail["fault.campaigns"] = static_cast<double>(campaigns);
  r.detail["fault.universe"] = static_cast<double>(universe.size());
  r.detail["fault.batches_run"] = static_cast<double>(batches);
  r.layers["elab.nodes"] = static_cast<double>(su.built.elabNodes);
  r.layers["transform.nodes"] = static_cast<double>(su.built.optNodes);
  addSpanLayers(tr, work, r);
  return r;
}

// ---------------------------------------------------------------------
// serve-mix: back-to-back runServeBatch calls on seeded request lists.
// ---------------------------------------------------------------------

namespace {

// The request mix is synthetic: no request log exists to replay.  Every
// batch has the same make-up, so that batches, and runs with different
// seeds, cost about the same; the seed picks the order, the parameters
// within fixed strata, the cycle counts and the farm seeds.  See
// README.md for what each part of the mix exercises.

/// Corpus examples in the mix.  Each recurs kServeExampleRepeats times
/// per batch, so its first request compiles and the others are hits.
constexpr std::array<const char*, 6> kServeExamples = {
    "adders", "blackjack", "am2901", "systolic-stack", "patternmatch", "ram"};
constexpr size_t kServeExampleRepeats = 4;
/// Inline sources per family per batch; their parameters are spread over
/// the family's range, so nearly all of them are compile-cache misses.
constexpr size_t kServeInlinePerFamily = 8;
constexpr size_t kServeBatchSize =
    kServeExamples.size() * kServeExampleRepeats + 3 * kServeInlinePerFamily;

struct ServeRequest {
  std::string example;  ///< corpus entry, or "" for inline source
  std::string source;
  std::string top;
  uint64_t cycles = 0;
  uint64_t seed = 0;
};

/// Batch `index` of the seeded request stream.
std::vector<ServeRequest> serveBatch(uint64_t seed, uint64_t index) {
  Rng rng{mix64(seed * kGolden + index)};
  std::vector<ServeRequest> reqs;
  for (const char* name : kServeExamples) {
    for (size_t k = 0; k < kServeExampleRepeats; ++k) {
      ServeRequest& q = reqs.emplace_back();
      q.example = name;
      zeus::corpus::instantiate(q.example, q.source, q.top);
    }
  }
  // The k-th of n inline requests draws its parameter from the k-th n-th
  // of [lo, hi].
  auto stratum = [&](size_t k, uint64_t lo, uint64_t hi) {
    const uint64_t span = hi - lo + 1;
    return lo + (k * span + rng.below(span)) / kServeInlinePerFamily;
  };
  for (size_t k = 0; k < kServeInlinePerFamily; ++k) {
    reqs.push_back({"",
                    std::string(zeus::corpus::kAdders) +
                        "SIGNAL adder: rippleCarry(" +
                        std::to_string(stratum(k, 4, 32)) + ");\n",
                    "adder"});
    reqs.push_back({"",
                    std::string(zeus::corpus::kDictionary) +
                        "SIGNAL dict: dicttree(" +
                        std::to_string(stratum(k, 2, 24)) + ");\n",
                    "dict"});
    reqs.push_back({"",
                    std::string(zeus::corpus::kSorter) + "SIGNAL s: sorter(" +
                        std::to_string(2 * stratum(k, 2, 6)) + ");\n",
                    "s"});
  }
  for (size_t i = reqs.size() - 1; i > 0; --i) {
    std::swap(reqs[i], reqs[rng.below(i + 1)]);
  }
  for (ServeRequest& q : reqs) {
    q.cycles = 4 + rng.below(13);
    q.seed = rng.next() >> 12;
  }
  return reqs;
}

std::string serveJson(const std::vector<ServeRequest>& reqs) {
  std::string j = "{\"requests\": [\n";
  for (size_t i = 0; i < reqs.size(); ++i) {
    const ServeRequest& q = reqs[i];
    j += "{\"id\": \"r" + std::to_string(i) + "\", ";
    if (!q.example.empty()) {
      j += "\"example\": \"" + q.example + "\", ";
    } else {
      j += "\"source\": \"" + zeus::metrics::jsonEscape(q.source) +
           "\", \"top\": \"" + q.top + "\", ";
    }
    j += "\"cycles\": " + std::to_string(q.cycles) +
         ", \"lanes\": 64, \"threads\": 1, \"opt\": 1, \"seed\": " +
         std::to_string(q.seed) + "}";
    j += i + 1 < reqs.size() ? ",\n" : "\n";
  }
  return j + "]}\n";
}

/// The fields of one zeus-serve-v1 result row the benchmark reads.
struct ServeRow {
  bool ok = false;
  bool hit = false;
  std::string checksum;
  double latencyUs = 0;
  double farmSeconds = 0;
};

/// Value text after `"key": ` in a one-line JSON row, up to the next ','
/// or '}' (quotes stripped); nullopt when the key is absent.
std::optional<std::string> rowField(const std::string& row,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = row.find(needle);
  if (at == std::string::npos) return std::nullopt;
  size_t b = at + needle.size();
  size_t e = row.find_first_of(",}", b);
  if (e == std::string::npos) e = row.size();
  if (row[b] == '"') {
    ++b;
    e = row.find('"', b);
    if (e == std::string::npos) return std::nullopt;
  }
  return row.substr(b, e - b);
}

std::vector<ServeRow> serveRows(const std::string& response) {
  std::vector<ServeRow> rows;
  size_t pos = response.find("\"results\": [");
  while (pos != std::string::npos) {
    pos = response.find("\n    {\"id\": ", pos);
    if (pos == std::string::npos) break;
    ++pos;
    const size_t end = response.find('\n', pos);
    const std::string line = response.substr(pos, end - pos);
    ServeRow row;
    row.ok = rowField(line, "ok").value_or("") == "true";
    row.hit = rowField(line, "cache").value_or("") == "hit";
    row.checksum = rowField(line, "checksum").value_or("");
    row.latencyUs = std::stod(rowField(line, "latency_us").value_or("0"));
    row.farmSeconds = std::stod(rowField(line, "seconds").value_or("0"));
    rows.push_back(std::move(row));
    pos = end;
  }
  return rows;
}

}  // namespace

Report runServeMix(const Config& cfg, Tracer& tr) {
  constexpr uint64_t kPrefixBatches = 4;  ///< batch_serve.compiles window
  Report r;
  std::vector<std::pair<std::string, std::string>> examples;
  for (const char* name : kServeExamples) {
    std::string source, top;
    if (!zeus::corpus::instantiate(name, source, top)) {
      throw std::runtime_error(std::string("corpus has no ") + name);
    }
    examples.emplace_back(std::move(source), std::move(top));
  }
  struct Setup {
    std::vector<Built> built;
    std::vector<std::unique_ptr<zeus::BatchSimulation>> batches;
  };
  SetupTimer setup(tr, [&] {
    Setup s;
    for (const auto& [source, top] : examples) {
      s.built.push_back(compile(source, top, tr));
      Tracer::Span span(tr, kSimConstruct);
      s.batches.push_back(std::make_unique<zeus::BatchSimulation>(
          *s.built.back().graph, zeus::BatchSimulation::kMaxLanes));
    }
    return s;
  });
  const Setup su = setup.first();

  struct Sample {
    ServeRequest req;
    std::string checksum;
  };
  std::vector<Sample> samples;
  Meter meter;
  double latencyUs = 0, farmUs = 0, missUs = 0, hitUs = 0;
  uint64_t calls = 0, requests = 0, compiles = 0, hits = 0;
  uint64_t prefixCompiles = 0;
  const zeus::ServeOptions serveOpts;
  Tracer::Span root(tr, kWorkload);
  for (const auto end = Clock::now() + std::chrono::duration<double>(
                            cfg.seconds);;) {
    const std::vector<ServeRequest> reqs = serveBatch(cfg.seed, calls);
    const std::string json = serveJson(reqs);
    zeus::ServeStats stats;
    std::string response;
    const auto t0 = Clock::now();
    {
      Tracer::Span span(tr, kServeBatch);
      response = zeus::runServeBatch(json, serveOpts, &stats);
    }
    const auto t1 = Clock::now();
    const std::vector<ServeRow> rows = serveRows(response);
    if (rows.size() != reqs.size()) r.failed += reqs.size();
    for (size_t i = 0; i < rows.size() && i < reqs.size(); ++i) {
      const ServeRow& row = rows[i];
      if (!row.ok) ++r.failed;
      meter.addLatency(row.latencyUs / 1e3);
      latencyUs += row.latencyUs;
      farmUs += row.farmSeconds * 1e6;
      // Every row of the first batch, then a few rows of every 16th.
      if (calls == 0 || (calls % 16 == 0 && i % 12 == 0)) {
        samples.push_back({reqs[i], row.checksum});
      }
    }
    uint64_t laneCycles = 0;
    for (const ServeRequest& q : reqs) {
      laneCycles += zeus::BatchSimulation::kMaxLanes * q.cycles;
    }
    meter.addCall(secondsBetween(t0, t1), static_cast<double>(reqs.size()),
                  static_cast<double>(laneCycles));
    requests += reqs.size();
    compiles += stats.compiles;
    hits += stats.cacheHits;
    missUs += static_cast<double>(stats.cacheMissUs.sum());
    hitUs += static_cast<double>(stats.cacheHitUs.sum());
    if (calls < kPrefixBatches) prefixCompiles += stats.compiles;
    ++calls;
    if (t1 >= end && meter.measured()) break;
    setup.between();
  }
  r.attempted = requests;

  // Output check: sampled checksums against a direct runFarm on a design
  // the benchmark compiles itself.  Each sample compiles afresh, so the
  // check's memory does not grow with the number of samples a run takes.
  {
    Tracer::Span check(tr, kCheck);
    zeus::metrics::SimCounters counters;
    uint64_t blockCycles = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
      const ServeRequest& q = samples[i].req;
      const Built own = compile(q.source, q.top, tr);
      zeus::FarmOptions opts;
      opts.threads = 1;
      opts.lanes = zeus::BatchSimulation::kMaxLanes;
      opts.cycles = q.cycles;
      opts.seed = q.seed;
      zeus::FarmReport rep;
      {
        Tracer::Span span(tr, kFarmRun);
        rep = zeus::runFarm(*own.graph, opts);
      }
      if (hex(rep.mergedChecksum()) != samples[i].checksum) ++r.failed;
      if (i < kServeBatchSize) {
        const zeus::metrics::SimCounters c = zeus::farmMetricsCounters(rep);
        counters.cycles += c.cycles;
        counters.laneCycles += c.laneCycles;
        counters.nodeFirings += c.nodeFirings;
        counters.netResolutions += c.netResolutions;
        counters.contentionChecks += c.contentionChecks;
        counters.faults += c.faults;
        blockCycles += c.cycles * rep.blocks;
      }
    }
    setCounters(counters, blockCycles, r);
    r.detail["serve.checked_rows"] = static_cast<double>(samples.size());
  }

  Work work;
  uint64_t elabNodes = 0, optNodes = 0;
  for (size_t i = 0; i < su.built.size(); ++i) {
    elabNodes += su.built[i].elabNodes;
    optNodes += su.built[i].optNodes;
    if (tr.on()) {
      driveBlock(*su.built[i].graph, cfg.seed + i, 16, tr, work);
      driveScalar(*su.built[i].graph, cfg.seed + i, 16, tr, work);
    }
  }
  setMeter(meter, r);
  setSetup(setup, r);
  r.detail["requests_per_s"] = r.e2e["ops_per_s"];
  r.detail["request_p50_ms"] = r.e2e["latency_p50_ms"];
  r.detail["request_p90_ms"] = r.detail["latency_p90_ms"];
  r.detail["serve.calls"] = static_cast<double>(calls);
  r.detail["serve.requests"] = static_cast<double>(requests);
  r.detail["serve.compiles"] = static_cast<double>(compiles);
  r.detail["serve.cache_hits"] = static_cast<double>(hits);
  r.detail["serve.compile_share"] = missUs / latencyUs;
  const double n = static_cast<double>(requests);
  r.layers["batch_serve.compile_us_mean"] =
      compiles ? missUs / static_cast<double>(compiles) : 0;
  r.layers["batch_serve.hit_us_mean"] =
      hits ? hitUs / static_cast<double>(hits) : 0;
  r.layers["batch_serve.farm_share"] = farmUs / latencyUs;
  r.layers["batch_serve.compile_share"] = missUs / latencyUs;
  r.layers["batch_serve.overhead_us_mean"] =
      (latencyUs - farmUs - missUs - hitUs) / n;
  r.layers["batch_serve.hit_ratio"] = static_cast<double>(hits) / n;
  r.layers["batch_serve.compiles"] = static_cast<double>(prefixCompiles);
  r.layers["elab.nodes"] = static_cast<double>(elabNodes);
  r.layers["transform.nodes"] = static_cast<double>(optNodes);
  addSpanLayers(tr, work, r);
  return r;
}

}  // namespace perfbench
