// zeusc — the Zeus compiler driver.
//
// Usage:
//   zeusc <file.zeus> --top <signal> [options]
//   zeusc --example <name> [options]          (built-in paper programs)
//   zeusc --list-examples
//
// Options:
//   --dump-ast           print the parsed program
//   --dump-netlist       print nets and nodes of the elaborated design
//   --layout             solve the layout and print the ASCII floorplan
//   --svg <file>         write the layout as SVG
//   --sim <cycles>       simulate N cycles (inputs all 0) and print ports
//   --naive              use the naive fixpoint evaluator
//   --levelized          use the statically scheduled levelized evaluator
//   --stats              print the phase/counter/activity summary table
//   --trace <file>       write phase spans as Chrome trace_event JSON
//                        (load in Perfetto / chrome://tracing)
//   --metrics <file>     write the zeus-metrics-v1 JSON report
//                        (schema in docs/observability.md)
//   --report             print design statistics and the instance tree
//   --script <file>      run a testbench script (set/step/expect/...)
//   --dot <file>         write the semantics graph as GraphViz dot
//   --lint               run the static lint pass (docs/lint.md)
//   --lint-json          print lint findings as JSON (implies --lint)
//   --lint-depth <n>     combinational-depth lint threshold (default 256)
//   --lint-fanout <n>    fanout hot-spot lint threshold (default 64)
//   -O0 / -O1            optimization level (default -O1: const-fold, DCE,
//                        alias collapse; docs/optimizer.md).  The post-pass
//                        verifier runs at every level.
//   --opt-stats          print the zeus-opt-v1 JSON report (pure JSON on
//                        stdout, like --lint-json)
//   --fault-campaign     run a parallel stuck-at fault campaign over the
//                        design (--sim N sets cycles per fault, default 32)
//   --fault-out <file>   write the zeus-faults-v1 JSON report (else stdout)
//   --fault-seed <n>     stimulus seed for the fault campaign
//   --checkpoint <file>  write a resumable checkpoint (ZSNP binary); with
//                        --sim, saved at the end and on budget trips; with
//                        --fault-campaign, saved at batch boundaries
//   --checkpoint-every <n>  checkpoint cadence: every n cycles (--sim) or
//                        every n fault batches (--fault-campaign)
//   --resume <file>      resume from a checkpoint (kind auto-detected)
//   --sim-budget-ms <n>  wall-clock budget; a trip writes the checkpoint
//                        and partial metrics, then exits with code 12
//                        (11 = evaluator watchdog, docs/fault-injection.md)
//   --die-at-cycle <n>   raise a fatal signal after n evaluated cycles
//                        (crash-recovery testing)
//   --die-signal <s>     signal for --die-at-cycle: "kill" (default; the
//                        unbufferable power-cut) or "abort" (SIGABRT, so
//                        the flight recorder writes its crash dump first)
//   --sim-watchdog <n>   evaluator watchdog: abort a cycle after n
//                        firing events (0 = the design-derived default)
//   --log <file>         write the structured event log as zeus-log-v1
//                        JSONL (docs/observability.md)
//   --crash-dump <file>  flight-recorder dump path (default
//                        .zeus-crash.json); written on SIGSEGV/SIGABRT
//                        and on watchdog/budget faults
//   --version            print the build-info stamp and exit
//   --farm-threads <n>   run --sim through the multi-core simulation farm
//                        with n worker threads (docs/simulator.md)
//   --lanes <n>          total farm lanes (default 64; split into 64-lane
//                        blocks that the worker threads claim)
//   --farm-seed <n>      root seed for the farm's per-lane RANDOM streams
//                        and stimulus (default 0xC0FFEE)
//   --serve-batch <file> run a zeus-serve-request-v1 JSON request file:
//                        compile each distinct design once, fan the
//                        requests across the farm, emit zeus-serve-v1
//   --serve-out <file>   write the serve-batch response there (else stdout)
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/ast/printer.h"
#include "src/core/zeus.h"
#include "src/corpus/corpus.h"
#include "src/core/batch_serve.h"
#include "src/core/report.h"
#include "src/core/script.h"
#include "src/core/sim_farm.h"
#include "src/layout/render.h"
#include "src/sim/snapshot.h"
#include "src/support/buildinfo.h"
#include "src/support/eventlog.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zeusc <file.zeus> --top <signal> [--dump-ast] "
               "[--dump-netlist] [--layout] [--svg out.svg] [--sim N] "
               "[--naive] [--levelized] "
               "[--stats] [--lint] [--lint-json] "
               "[--lint-depth N] [--lint-fanout N] [-O0|-O1] [--opt-stats] "
               "[--trace out.json] "
               "[--metrics out.json] [--fault-campaign] [--fault-out f.json] "
               "[--fault-seed N] [--checkpoint f.snap] [--checkpoint-every N] "
               "[--resume f.snap] [--sim-budget-ms N] [--die-at-cycle N] "
               "[--die-signal kill|abort] [--sim-watchdog N] "
               "[--log out.jsonl] [--crash-dump f.json] "
               "[--farm-threads N] [--lanes N] [--farm-seed N]\n"
               "       zeusc --example <name> [options]\n"
               "       zeusc --serve-batch requests.json [--serve-out r.json]\n"
               "       zeusc --list-examples\n");
  return 2;
}

/// Upper bounds for numeric flags.  Several call sites narrow the parsed
/// long into uint32_t or int downstream; an explicit per-flag ceiling
/// turns what used to be a silent wrap into a parse error.
constexpr long kMaxU32 = 0xFFFFFFFFL;            ///< narrowed to uint32_t
constexpr long kMaxCycles = 1'000'000'000'000L;  ///< cycle/cadence counts
constexpr long kMaxMillis = 1'000'000'000L;      ///< wall-clock budgets

/// Strict decimal parse for numeric flags: rejects empty, non-numeric,
/// trailing-junk, negative and out-of-range arguments instead of silently
/// reading 0 (std::atol would turn "--sim abc" into zero cycles) or
/// wrapping at a later narrowing cast.
bool parseCount(const char* flag, const char* text, long& out,
                long maxValue = std::numeric_limits<long>::max()) {
  if (!text || !*text) {
    std::fprintf(stderr, "zeusc: %s expects a non-negative integer\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr,
                 "zeusc: invalid argument '%s' to %s (expected a "
                 "non-negative integer)\n",
                 text, flag);
    return false;
  }
  if (v > maxValue) {
    std::fprintf(stderr, "zeusc: %s value %ld is out of range (max %ld)\n",
                 flag, v, maxValue);
    return false;
  }
  out = v;
  return true;
}

bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file, top, example, svgOut;
  bool dumpAst = false, dumpNetlist = false, layout = false, naive = false;
  bool levelized = false, stats = false, report = false;
  bool lint = false, lintJson = false;
  int optLevel = 1;
  bool optStats = false;
  std::string dotOut, scriptFile, traceOut, metricsOut;
  long simCycles = -1;
  long lintDepth = -1, lintFanout = -1;
  bool faultCampaign = false;
  std::string faultOut, checkpointFile, resumeFile;
  long faultSeed = -1, checkpointEvery = -1, simBudgetMs = -1;
  long dieAtCycle = -1;
  bool dieAbort = false;
  long simWatchdog = -1;
  long farmThreads = -1, farmLanes = -1, farmSeed = -1;
  std::string serveBatchFile, serveOutFile;
  std::string logOut;
  std::string crashDump = ".zeus-crash.json";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--top") {
      const char* v = next();
      if (!v) return usage();
      top = v;
    } else if (arg == "--example") {
      const char* v = next();
      if (!v) return usage();
      example = v;
    } else if (arg == "--list-examples") {
      for (const zeus::corpus::CorpusEntry& e : zeus::corpus::all()) {
        std::printf("%-16s %s\n", e.name, e.description);
      }
      return 0;
    } else if (arg == "--dump-ast") {
      dumpAst = true;
    } else if (arg == "--dump-netlist") {
      dumpNetlist = true;
    } else if (arg == "--layout") {
      layout = true;
    } else if (arg == "--svg") {
      const char* v = next();
      if (!v) return usage();
      svgOut = v;
    } else if (arg == "--sim") {
      const char* v = next();
      if (!parseCount("--sim", v, simCycles, kMaxCycles)) return 2;
    } else if (arg == "-O0") {
      optLevel = 0;
    } else if (arg == "-O1") {
      optLevel = 1;
    } else if (arg == "--opt-stats") {
      optStats = true;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--lint-json") {
      lint = true;
      lintJson = true;
    } else if (arg == "--lint-depth") {
      const char* v = next();
      if (!parseCount("--lint-depth", v, lintDepth, kMaxU32)) return 2;
      lint = true;
    } else if (arg == "--lint-fanout") {
      const char* v = next();
      if (!parseCount("--lint-fanout", v, lintFanout, kMaxU32)) return 2;
      lint = true;
    } else if (arg == "--naive") {
      naive = true;
    } else if (arg == "--levelized") {
      levelized = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return usage();
      dotOut = v;
    } else if (arg == "--script") {
      const char* v = next();
      if (!v) return usage();
      scriptFile = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return usage();
      traceOut = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (!v) return usage();
      metricsOut = v;
    } else if (arg == "--fault-campaign") {
      faultCampaign = true;
    } else if (arg == "--fault-out") {
      const char* v = next();
      if (!v) return usage();
      faultOut = v;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      // The seed widens to uint64_t: any non-negative long is in range.
      if (!parseCount("--fault-seed", v, faultSeed)) return 2;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (!v) return usage();
      checkpointFile = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (!parseCount("--checkpoint-every", v, checkpointEvery, kMaxCycles)) {
        return 2;
      }
    } else if (arg == "--resume") {
      const char* v = next();
      if (!v) return usage();
      resumeFile = v;
    } else if (arg == "--sim-budget-ms") {
      const char* v = next();
      if (!parseCount("--sim-budget-ms", v, simBudgetMs, kMaxMillis)) return 2;
    } else if (arg == "--die-at-cycle") {
      const char* v = next();
      if (!parseCount("--die-at-cycle", v, dieAtCycle, kMaxCycles)) return 2;
    } else if (arg == "--die-signal") {
      const char* v = next();
      if (!v) return usage();
      if (std::strcmp(v, "kill") == 0) {
        dieAbort = false;
      } else if (std::strcmp(v, "abort") == 0) {
        dieAbort = true;
      } else {
        std::fprintf(stderr,
                     "zeusc: --die-signal expects 'kill' or 'abort'\n");
        return 2;
      }
    } else if (arg == "--sim-watchdog") {
      const char* v = next();
      if (!parseCount("--sim-watchdog", v, simWatchdog, kMaxU32)) return 2;
    } else if (arg == "--log") {
      const char* v = next();
      if (!v) return usage();
      logOut = v;
    } else if (arg == "--crash-dump") {
      const char* v = next();
      if (!v) return usage();
      crashDump = v;
    } else if (arg == "--version") {
      std::printf("%s\n", zeus::buildinfo::versionLine().c_str());
      return 0;
    } else if (arg == "--farm-threads") {
      const char* v = next();
      if (!parseCount("--farm-threads", v, farmThreads, 256)) return 2;
      if (farmThreads == 0) {
        std::fprintf(stderr, "zeusc: --farm-threads expects at least 1\n");
        return 2;
      }
    } else if (arg == "--lanes") {
      const char* v = next();
      if (!parseCount("--lanes", v, farmLanes, 1 << 20)) return 2;
      if (farmLanes == 0) {
        std::fprintf(stderr, "zeusc: --lanes expects at least 1\n");
        return 2;
      }
    } else if (arg == "--farm-seed") {
      const char* v = next();
      // The seed widens to uint64_t: any non-negative long is in range.
      if (!parseCount("--farm-seed", v, farmSeed)) return 2;
    } else if (arg == "--serve-batch") {
      const char* v = next();
      if (!v) return usage();
      serveBatchFile = v;
    } else if (arg == "--serve-out") {
      const char* v = next();
      if (!v) return usage();
      serveOutFile = v;
    } else if (!arg.empty() && arg[0] != '-') {
      file = arg;
    } else {
      return usage();
    }
  }
  if (naive && levelized) {
    std::fprintf(stderr,
                 "zeusc: choose at most one of --naive, --levelized\n");
    return 2;
  }

  // The flight recorder is always armed: any zeusc that dies on
  // SIGSEGV/SIGABRT — or trips a watchdog/budget fault below — leaves a
  // zeus-crash-v1 post-mortem behind.  (--die-at-cycle's default SIGKILL
  // is uncatchable by design: the crash-recovery tests want a power cut.)
  zeus::flightrec::arm(crashDump.c_str());
  if (!logOut.empty()) zeus::eventlog::setEnabled(true);
  auto emitLog = [&]() {
    if (logOut.empty()) return;
    if (writeFile(logOut, zeus::eventlog::renderJsonl())) {
      std::printf("wrote %s\n", logOut.c_str());
    }
  };

  // Batch-request mode stands alone: it compiles and simulates per
  // request, so the usual <file>/--top requirement does not apply.
  if (!serveBatchFile.empty()) {
    std::ifstream in(serveBatchFile);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", serveBatchFile.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    zeus::ServeOptions sopts;
    if (farmThreads > 0) sopts.defaultThreads = static_cast<size_t>(farmThreads);
    if (farmLanes > 0) sopts.defaultLanes = static_cast<size_t>(farmLanes);
    if (simCycles >= 0) sopts.defaultCycles = static_cast<uint64_t>(simCycles);
    if (farmSeed >= 0) sopts.defaultSeed = static_cast<uint64_t>(farmSeed);
    sopts.defaultOptLevel = optLevel;
    zeus::ServeStats sstats;
    std::string response = zeus::runServeBatch(ss.str(), sopts, &sstats);
    if (!serveOutFile.empty()) {
      if (!writeFile(serveOutFile, response)) return 1;
      std::printf("wrote %s\n", serveOutFile.c_str());
    } else {
      std::printf("%s", response.c_str());
    }
    std::fprintf(stderr,
                 "serve-batch: %zu request(s), %zu compile(s), %zu cache "
                 "hit(s), %zu failure(s)\n",
                 sstats.requests, sstats.compiles, sstats.cacheHits,
                 sstats.failures);
    emitLog();
    return sstats.failures == 0 ? 0 : 1;
  }

  std::string source, name;
  if (!example.empty()) {
    // Overriding --top opts out of the default instantiation line that
    // corpus::instantiate appends for the parameterized families.
    const zeus::corpus::CorpusEntry* e = zeus::corpus::find(example);
    if (!e) {
      std::fprintf(stderr, "unknown example '%s' (try --list-examples)\n",
                   example.c_str());
      return 2;
    }
    name = std::string(e->name) + ".zeus";
    if (!top.empty()) {
      source = e->source;
    } else {
      zeus::corpus::instantiate(example, source, top);
    }
  } else {
    if (file.empty() || top.empty()) return usage();
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
    name = file;
  }

  // Spans are recorded from the very first pipeline phase, so tracing has
  // to be switched on before Compilation::fromSource runs the lexer.
  // --stats reuses the phase timings for its summary table.
  if (!traceOut.empty() || !metricsOut.empty() || stats) {
    zeus::trace::setEnabled(true);
  }

  auto comp = zeus::Compilation::fromSource(name, source);

  zeus::metrics::MetricsReport mreport;
  mreport.design = top;
  // Flushes the observability sinks; called on *every* exit path once a
  // Compilation exists, so failed runs still leave partial trace/metrics
  // files behind (the report simply carries sim.ran = false).
  auto emitSinks = [&]() {
    mreport.resources = comp->resourceReport();
    mreport.phases = zeus::metrics::phaseTimings();
    if (!traceOut.empty() &&
        writeFile(traceOut, zeus::trace::renderChromeJson())) {
      std::printf("wrote %s\n", traceOut.c_str());
    }
    if (!metricsOut.empty() && writeFile(metricsOut, mreport.renderJson())) {
      std::printf("wrote %s\n", metricsOut.c_str());
    }
    emitLog();
  };
  // Failure exit: show how close the run came to its resource budgets
  // (the usual first question when a compile or simulation dies), then
  // flush whatever observability data accumulated before the failure.
  auto fail = [&](int rc) {
    std::fprintf(stderr, "%s", comp->resourceReport().render().c_str());
    emitSinks();
    return rc;
  };

  if (dumpAst) std::printf("%s\n", zeus::ast::dump(comp->program()).c_str());
  if (!comp->ok()) {
    std::fprintf(stderr, "%s", comp->diagnosticsText().c_str());
    return fail(1);
  }
  auto design = comp->elaborate(top);
  std::fprintf(stderr, "%s", comp->diagnosticsText().c_str());
  if (!design) return fail(1);

  // --lint-json and --opt-stats promise pure JSON on stdout.
  if (!lintJson && !optStats) {
    std::printf("design '%s': %zu nets, %zu nodes, %zu ports\n", top.c_str(),
                design->netlist.netCount(), design->netlist.nodeCount(),
                design->ports.size());
  }

  if (lint) {
    zeus::LintOptions lopts;
    if (lintDepth >= 0) lopts.maxDepth = static_cast<uint32_t>(lintDepth);
    if (lintFanout >= 0) lopts.maxFanout = static_cast<uint32_t>(lintFanout);
    zeus::LintReport lr = comp->lint(*design, lopts);
    if (lintJson) {
      std::printf("%s", lr.renderJson(comp->sources(), top).c_str());
    } else {
      std::printf("%s", lr.renderText(comp->sources()).c_str());
    }
    if (lr.hasErrors()) return fail(1);
  }

  // Optimization pipeline + post-pass verifier (docs/optimizer.md).  Runs
  // after lint (findings refer to pre-optimization structure); every later
  // stage reports on or simulates the verified graph it returns, which is
  // null for a cyclic design.  -O0 still verifies.
  zeus::OptOptions oopts;
  oopts.level = optLevel;
  zeus::OptReport optReport = comp->optimize(*design, oopts);
  if (optStats) std::printf("%s", optReport.renderJson(top).c_str());
  if (!comp->ok() || !optReport.graph) {
    std::fprintf(stderr, "%s", comp->diagnosticsText().c_str());
    return fail(1);
  }
  const zeus::SimGraph& graph = *optReport.graph;

  if (dumpNetlist) {
    for (zeus::NetId i = 0; i < design->netlist.netCount(); ++i) {
      const zeus::Net& n = design->netlist.net(i);
      zeus::NetId root = design->netlist.find(i);
      std::printf("  net %-40s %-9s%s%s\n", n.name.c_str(),
                  n.kind == zeus::BasicKind::Boolean ? "boolean" : "multiplex",
                  root != i ? (" == " + design->netlist.net(root).name).c_str()
                            : "",
                  n.isPrimaryInput    ? " [in]"
                  : n.isPrimaryOutput ? " [out]"
                                      : "");
    }
    for (const zeus::Node& node : design->netlist.nodes()) {
      std::printf("  %-7s ->%s\n",
                  std::string(zeus::nodeOpName(node.op)).c_str(),
                  node.output != zeus::kNoNet
                      ? (" " + design->netlist.net(node.output).name).c_str()
                      : "");
    }
  }

  if (report) {
    zeus::checkSequentialOrder(*design, graph, comp->diags());
    zeus::DesignStats ds = zeus::computeStats(*design, graph);
    std::printf("%s", zeus::renderStats(ds).c_str());
    std::printf("%s", zeus::renderInstanceTree(*design).c_str());
  }
  if (!dotOut.empty()) {
    std::ofstream out(dotOut);
    out << zeus::exportDot(*design);
    std::printf("wrote %s\n", dotOut.c_str());
  }

  if (layout || !svgOut.empty()) {
    zeus::LayoutResult lr = zeus::solveLayout(*design, comp->diags());
    std::printf("layout: %lldx%lld cells, %zu leaf cells\n",
                static_cast<long long>(lr.bounds.w),
                static_cast<long long>(lr.bounds.h), lr.leafCount());
    if (layout) std::printf("%s", zeus::renderAscii(lr).c_str());
    if (!svgOut.empty()) {
      std::ofstream out(svgOut);
      out << zeus::renderSvg(lr);
      std::printf("wrote %s\n", svgOut.c_str());
    }
  }

  const zeus::EvaluatorKind evalKind =
      naive        ? zeus::EvaluatorKind::Naive
      : levelized  ? zeus::EvaluatorKind::Levelized
                   : zeus::EvaluatorKind::Firing;
  const bool wantActivity = stats || !metricsOut.empty();

  if (!scriptFile.empty()) {
    std::ifstream in(scriptFile);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", scriptFile.c_str());
      return fail(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    zeus::Simulation::Options sopts;
    sopts.evaluator = evalKind;
    sopts.profileActivity = wantActivity;
    zeus::Simulation sim(graph, sopts);
    zeus::ScriptResult sr = zeus::runScript(sim, ss.str());
    comp->recordSimulation(sim);
    mreport.sim = sim.metricsCounters();
    mreport.activity = sim.activityReport();
    std::printf("%s", sr.log.c_str());
    std::printf("script: %d expectation(s) checked, %s\n",
                sr.expectationsChecked, sr.ok ? "PASS" : "FAIL");
    if (!sr.ok) return fail(1);
  }

  // Parallel fault-simulation campaign (docs/fault-injection.md): lane 0
  // golden, every other lane one stuck-at fault, classified against the
  // primary outputs.  --sim N sets the cycles per fault batch.
  if (faultCampaign) {
    zeus::FaultCampaignOptions fopts;
    if (simCycles > 0) fopts.cycles = static_cast<uint64_t>(simCycles);
    if (faultSeed >= 0) fopts.seed = static_cast<uint64_t>(faultSeed);
    if (simBudgetMs >= 0) fopts.maxMillis = static_cast<uint64_t>(simBudgetMs);
    fopts.checkpointEveryBatches =
        checkpointEvery > 0 ? static_cast<uint64_t>(checkpointEvery)
        : !checkpointFile.empty() ? 1
                                  : 0;
    if (!checkpointFile.empty()) {
      fopts.onCheckpoint = [&](const zeus::CampaignProgress& progress) {
        std::string err;
        if (!zeus::saveCampaignFile(checkpointFile, progress, err)) {
          std::fprintf(stderr, "zeusc: checkpoint write failed: %s\n",
                       err.c_str());
        }
      };
    }
    if (dieAtCycle >= 0) {
      // Crash-injection hook for the recovery tests: the process vanishes
      // mid-campaign exactly as a power cut would, after the last
      // batch-boundary checkpoint landed atomically.
      fopts.onCycle = [&](uint64_t evaluated) {
        if (evaluated >= static_cast<uint64_t>(dieAtCycle)) {
          std::fflush(nullptr);
          // "abort" dies through the flight-recorder handler (crash dump,
          // then SIGABRT); "kill" stays the uncatchable power cut.
          raise(dieAbort ? SIGABRT : SIGKILL);
        }
      };
    }
    zeus::CampaignProgress progress;
    bool haveResume = false;
    if (!resumeFile.empty()) {
      std::string err;
      if (!zeus::loadCampaignFile(resumeFile, progress, err)) {
        std::fprintf(stderr, "zeusc: cannot resume from %s: %s\n",
                     resumeFile.c_str(), err.c_str());
        return fail(1);
      }
      haveResume = true;
    }
    zeus::FaultCampaignReport fr;
    try {
      fr = zeus::runFaultCampaign(graph, fopts,
                                  haveResume ? &progress : nullptr);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "zeusc: %s\n", e.what());
      if (std::string(e.what()).find("does not match this campaign") !=
          std::string::npos) {
        std::fprintf(stderr,
                     "zeusc: note: campaign checkpoints depend on the "
                     "optimization level; rerun with the -O flag the "
                     "checkpoint was written with (docs/optimizer.md)\n");
      }
      return fail(1);
    }
    std::string json = fr.renderJson();
    if (!faultOut.empty()) {
      if (!writeFile(faultOut, json)) return fail(1);
      std::printf("wrote %s\n", faultOut.c_str());
    } else {
      std::printf("%s", json.c_str());
    }
    std::printf(
        "fault campaign: %llu faults, %llu detected, %llu masked, "
        "%llu undetected, coverage %.1f%%%s\n",
        static_cast<unsigned long long>(fr.faults.size()),
        static_cast<unsigned long long>(
            fr.countOf(zeus::FaultOutcome::Status::Detected)),
        static_cast<unsigned long long>(
            fr.countOf(zeus::FaultOutcome::Status::Masked)),
        static_cast<unsigned long long>(
            fr.countOf(zeus::FaultOutcome::Status::Undetected)),
        100.0 * fr.coverage(), fr.interrupted ? " (interrupted)" : "");
    emitSinks();
    if (fr.interrupted) {
      // Exit 12 = wall-clock budget trip (checkpoint + partial metrics
      // were already flushed above; 11 is the evaluator watchdog).
      std::fprintf(stderr,
                   "zeusc: campaign stopped by --sim-budget-ms; resume "
                   "with --resume %s\n",
                   checkpointFile.empty() ? "<checkpoint>"
                                          : checkpointFile.c_str());
      zeus::flightrec::dumpNow("budget");
      return 12;
    }
    return 0;
  }

  // Multi-core simulation farm (docs/simulator.md): N worker threads ×
  // 64-lane batch blocks, deterministic per-lane stimulus and RANDOM
  // streams.  Replaces the scalar --sim loop below when requested.
  if (farmThreads > 0) {
    if (simCycles < 0) {
      std::fprintf(stderr, "zeusc: --farm-threads requires --sim N\n");
      return fail(2);
    }
    zeus::FarmOptions fopts;
    fopts.threads = static_cast<size_t>(farmThreads);
    if (farmLanes > 0) fopts.lanes = static_cast<size_t>(farmLanes);
    fopts.cycles = static_cast<uint64_t>(simCycles);
    if (farmSeed >= 0) fopts.seed = static_cast<uint64_t>(farmSeed);
    zeus::FarmSnapshot resume;
    bool haveResume = false;
    if (!resumeFile.empty()) {
      std::string err;
      if (!zeus::loadFarmFile(resumeFile, resume, err)) {
        std::fprintf(stderr, "zeusc: cannot resume from %s: %s\n",
                     resumeFile.c_str(), err.c_str());
        return fail(1);
      }
      haveResume = true;
    }
    if (!checkpointFile.empty()) {
      fopts.checkpointAtCycle = checkpointEvery > 0
                                    ? static_cast<uint64_t>(checkpointEvery)
                                    : fopts.cycles;
      fopts.onCheckpoint = [&](const zeus::FarmSnapshot& snap) {
        std::string err;
        if (!zeus::saveFarmFile(checkpointFile, snap, err)) {
          std::fprintf(stderr, "zeusc: checkpoint write failed: %s\n",
                       err.c_str());
        }
      };
    }
    zeus::FarmReport fr;
    try {
      fr = zeus::runFarm(graph, fopts, haveResume ? &resume : nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "zeusc: %s\n", e.what());
      if (std::string(e.what()).find("content hash") != std::string::npos) {
        std::fprintf(stderr,
                     "zeusc: note: checkpoints depend on the optimization "
                     "level; rerun with the -O flag the checkpoint was "
                     "written with (docs/optimizer.md)\n");
      }
      return fail(1);
    }
    for (const zeus::SimError& e : fr.errors) {
      std::printf("  runtime error, cycle %llu, lane %d, %s: %s\n",
                  static_cast<unsigned long long>(e.cycle), e.lane,
                  e.netName.c_str(), e.message.c_str());
    }
    std::printf(
        "farm: %llu cycle(s) x %zu lane(s), %zu block(s) on %zu "
        "thread(s), checksum %016llx, %zu error(s), %.3g lane-cycles/s\n",
        static_cast<unsigned long long>(fr.cycles), fr.lanes, fr.blocks,
        fr.threads, static_cast<unsigned long long>(fr.mergedChecksum()),
        fr.errors.size(), fr.laneCyclesPerSec());
    mreport.sim = zeus::farmMetricsCounters(fr);
    mreport.latency.push_back(
        zeus::histogram::snapshot(fr.blockUs, "farm.block_us", "us"));
    if (stats) {
      mreport.resources = comp->resourceReport();
      mreport.phases = zeus::metrics::phaseTimings();
      std::printf("%s", mreport.renderText().c_str());
    }
    emitSinks();
    return 0;
  }

  if (simCycles >= 0) {
    zeus::Simulation::Options sopts;
    sopts.evaluator = evalKind;
    sopts.profileActivity = wantActivity;
    if (simBudgetMs >= 0) sopts.maxSimMillis = static_cast<uint64_t>(simBudgetMs);
    if (simWatchdog >= 0) {
      sopts.maxEventsPerCycle = static_cast<uint64_t>(simWatchdog);
    }
    zeus::Simulation sim(graph, sopts);
    // Checkpoint/resume/budget/crash flags switch the run from one big
    // step() into cycle-by-cycle stepping so state can be saved (and the
    // wall clock checked) at every cycle boundary.  An explicit
    // --sim-watchdog opts into the same budget-fault handling (exit 11 +
    // flight-recorder dump).
    const bool chunked = !checkpointFile.empty() || checkpointEvery > 0 ||
                         !resumeFile.empty() || simBudgetMs >= 0 ||
                         dieAtCycle >= 0 || simWatchdog >= 0;
    int simRc = 0;
    if (!resumeFile.empty()) {
      zeus::SimSnapshot snap;
      std::string err;
      if (!zeus::loadSnapshotFile(resumeFile, snap, err)) {
        std::fprintf(stderr, "zeusc: cannot resume from %s: %s\n",
                     resumeFile.c_str(), err.c_str());
        return fail(1);
      }
      try {
        sim.restoreSnapshot(snap);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "zeusc: cannot resume from %s: %s\n",
                     resumeFile.c_str(), e.what());
        if (std::string(e.what()).find("content hash") != std::string::npos) {
          std::fprintf(stderr,
                       "zeusc: note: checkpoints depend on the optimization "
                       "level; rerun with the -O flag the checkpoint was "
                       "written with (docs/optimizer.md)\n");
        }
        return fail(1);
      }
      std::printf("resumed %s at cycle %llu\n", resumeFile.c_str(),
                  static_cast<unsigned long long>(sim.cycle()));
    } else {
      for (const zeus::Port& p : design->ports) {
        if (p.mode == zeus::ast::ParamMode::In) {
          sim.setInputUint(sim.port(p.name), 0);
        }
      }
      sim.setRset(true);
      sim.step();
      sim.setRset(false);
    }
    if (!chunked) {
      if (simCycles > 1) sim.step(static_cast<uint64_t>(simCycles - 1));
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      auto writeCheckpoint = [&]() {
        if (checkpointFile.empty()) return;
        std::string err;
        if (!zeus::saveSnapshotFile(checkpointFile, sim.saveSnapshot(),
                                    err)) {
          std::fprintf(stderr, "zeusc: checkpoint write failed: %s\n",
                       err.c_str());
        }
      };
      const uint64_t total = static_cast<uint64_t>(simCycles);
      while (sim.cycle() < total) {
        const size_t errsBefore = sim.errors().size();
        sim.step(1);
        // A tripped watchdog aborts the cycle WITHOUT advancing
        // sim.cycle(); re-stepping would trip it identically forever.
        if (sim.errors().size() > errsBefore &&
            sim.errors().back().code == zeus::Diag::SimWatchdog) {
          break;
        }
        if (checkpointEvery > 0 &&
            sim.cycle() % static_cast<uint64_t>(checkpointEvery) == 0) {
          writeCheckpoint();
        }
        if (dieAtCycle >= 0 &&
            sim.cycle() >= static_cast<uint64_t>(dieAtCycle)) {
          std::fflush(nullptr);
          raise(dieAbort ? SIGABRT : SIGKILL);
        }
        // Simulation::step's own guard only trips between cycles of one
        // multi-cycle call, so the chunked loop keeps its own clock.
        if (simBudgetMs >= 0) {
          const auto ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          if (ms > simBudgetMs) {
            simRc = 12;
            break;
          }
        }
      }
      writeCheckpoint();  // final (or budget-trip) resumable state
    }
    std::vector<zeus::Logic> values;
    for (const zeus::Port& p : design->ports) {
      const zeus::PortHandle h = sim.port(p.name);
      values.resize(h.width);
      sim.outputBits(h, values);
      std::string bits;
      for (zeus::Logic v : values) {
        bits += logicName(v);
        bits += ' ';
      }
      std::printf("  %-4s %-12s = %s\n",
                  p.mode == zeus::ast::ParamMode::In    ? "IN"
                  : p.mode == zeus::ast::ParamMode::Out ? "OUT"
                                                        : "INOUT",
                  p.name.c_str(), bits.c_str());
    }
    comp->recordSimulation(sim);
    mreport.sim = sim.metricsCounters();
    mreport.activity = sim.activityReport();
    zeus::eventlog::emit(
        zeus::eventlog::Severity::Info, "sim", "run-done",
        {zeus::eventlog::num("cycles", sim.cycle()),
         zeus::eventlog::num("faults",
                             static_cast<uint64_t>(sim.errors().size()))});
    bool budgetFault = false;
    for (const zeus::SimError& e : sim.errors()) {
      std::printf("  runtime error, cycle %llu, %s: %s\n",
                  static_cast<unsigned long long>(e.cycle),
                  e.netName.c_str(), e.message.c_str());
      if (e.code == zeus::Diag::SimWatchdog ||
          e.code == zeus::Diag::SimWallClock) {
        budgetFault = true;
      }
      // Distinct exit codes per budget-fault class, but only when the run
      // opted into checkpoint/budget handling — plain `--sim N` keeps
      // exit 0 for recoverable runtime faults (the corpus sweeps rely on
      // that).  Watchdog (11) outranks wall-clock (12).
      if (chunked) {
        if (e.code == zeus::Diag::SimWatchdog) {
          simRc = 11;
        } else if (e.code == zeus::Diag::SimWallClock && simRc == 0) {
          simRc = 12;
        }
      }
    }
    // A watchdog or wall-clock fault means the run hit a budget: show the
    // consumption-vs-budget report so the user can see which one and by
    // how much, without rerunning under --stats.
    if (budgetFault || simRc != 0) {
      std::fprintf(stderr, "%s", comp->resourceReport().render().c_str());
    }
    if (simRc != 0) {
      std::fprintf(stderr,
                   "zeusc: simulation stopped by %s budget (exit %d); "
                   "checkpoint %s\n",
                   simRc == 11 ? "the evaluator watchdog" : "the wall-clock",
                   simRc,
                   checkpointFile.empty() ? "not requested (--checkpoint)"
                                          : checkpointFile.c_str());
      zeus::eventlog::emit(
          zeus::eventlog::Severity::Error, "sim",
          simRc == 11 ? "watchdog-fault" : "budget-fault",
          {zeus::eventlog::num("cycle", sim.cycle()),
           zeus::eventlog::num("exit", static_cast<uint64_t>(simRc))});
      zeus::flightrec::dumpNow(simRc == 11 ? "watchdog" : "budget");
      emitSinks();
      return simRc;
    }
  }

  if (stats) {
    mreport.resources = comp->resourceReport();
    mreport.phases = zeus::metrics::phaseTimings();
    std::printf("%s", mreport.renderText().c_str());
  }

  emitSinks();
  return 0;
}
