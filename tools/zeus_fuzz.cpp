// Crash-free fuzz harness for the Zeus compilation pipeline.
//
// One entry point, two drivers:
//
//   * libFuzzer: build with -DZEUS_FUZZ_LIBFUZZER=ON and a clang
//     -fsanitize=fuzzer toolchain; LLVMFuzzerTestOneInput is the usual
//     hook.
//   * corpus replay (default): `zeus_fuzz FILE...` runs every file
//     through the same pipeline and exits non-zero only when an input
//     crashes or produces an unstructured failure.  This mode is wired
//     into ctest (fuzz_corpus_replay) so the checked-in regression corpus
//     runs on every test invocation — under ASan+UBSan with
//     -DZEUS_SANITIZE=ON.
//
// The invariant being fuzzed: for ANY byte string, the pipeline either
// succeeds or reports structured diagnostics.  It never aborts, never
// trips a sanitizer, and never hangs — resource limits (zeus::Limits)
// bound every stage.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/zeus.h"
#include "src/sim/graph.h"
#include "src/sim/snapshot.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace {

// Tight budgets so pathological inputs fail fast instead of timing out.
zeus::Limits fuzzLimits() {
  zeus::Limits lim;
  lim.maxSourceBytes = 1u << 20;
  lim.maxTokens = 1u << 18;
  lim.maxParseDepth = 64;
  lim.maxParseErrors = 32;
  lim.maxTypeDepth = 64;
  lim.maxTypes = 1u << 14;
  lim.maxInstanceDepth = 64;
  lim.maxInstances = 1u << 14;
  lim.maxNets = 1u << 18;
  lim.maxElabSteps = 1u << 20;
  return lim;
}

/// Runs one input through lex/parse/check, elaborates every top-level
/// SIGNAL declaration, and simulates a few cycles when a design survives.
/// Returns true iff the pipeline behaved: success, or structured
/// diagnostics — never an exception or a crash.
bool runOne(const uint8_t* data, size_t size) {
  // Fuzz with the observability layer live: span recording and per-net
  // activity profiling run on every input, so the instrumentation paths
  // (including the JSON renderers) get the same crash-free guarantee as
  // the pipeline itself.  The buffer is cleared per input to bound memory.
  zeus::trace::clear();
  zeus::trace::setEnabled(true);
  // Every input also replays the binary checkpoint loaders
  // (src/sim/snapshot.h): truncated, corrupt or adversarial ZSNP bytes
  // must produce a structured error string, never a crash or an OOM.
  {
    std::string err;
    zeus::SnapshotKind kind;
    (void)zeus::snapshotKindOfBytes(data, size, kind, err);
    zeus::SimSnapshot snap;
    (void)zeus::snapshotFromBytes(data, size, snap, err);
    zeus::CampaignProgress progress;
    (void)zeus::campaignFromBytes(data, size, progress, err);
    zeus::FarmSnapshot farm;
    (void)zeus::farmFromBytes(data, size, farm, err);
  }
  std::string text(reinterpret_cast<const char*>(data), size);
  auto comp = zeus::Compilation::fromSource("fuzz.zeus", std::move(text),
                                            fuzzLimits());
  if (!comp->ok()) return true;  // structured rejection is a pass

  for (const zeus::ast::DeclPtr& d : comp->program().decls) {
    if (d->kind != zeus::ast::DeclKind::Signal) continue;
    for (const std::string& top : d->names) {
      auto design = comp->elaborate(top);
      if (!design) continue;  // elaboration error: structured, fine
      zeus::SimGraph graph = zeus::buildSimGraph(*design, comp->diags());
      if (graph.hasCycle) continue;  // reported as CombinationalLoop
      // The static lint pass must behave on anything that survives
      // elaboration: findings are structured diagnostics, never a crash.
      zeus::LintReport lr = zeus::runLint(*design, graph, comp->diags());
      (void)lr.renderText(comp->sources());
      (void)lr.renderJson(comp->sources(), top);
      // The optimization pipeline + post-pass verifier must behave on
      // every design that survives elaboration.  A verifier failure means
      // a pass emitted a malformed graph — that IS the kind of bug this
      // harness exists to catch, so treat it as a hard failure.
      zeus::OptReport opt = zeus::optimizeDesign(*design, comp->diags());
      (void)opt.renderJson(top);
      if (opt.ran && !opt.verified) {
        std::fprintf(stderr, "zeus_fuzz: optimizer verifier failed: %s\n",
                     opt.verifyError.c_str());
        return false;
      }
      // Simulate the *optimized* design on the graph the pipeline
      // verified: the evaluators must behave on post-pipeline graphs too.
      if (!opt.graph) continue;  // cyclic: reported as CombinationalLoop
      zeus::Simulation::Options sopts;
      sopts.maxEventsPerCycle = 1u << 22;
      sopts.maxSimMillis = 2000;
      sopts.usage = comp->usage();
      sopts.profileActivity = true;
      zeus::Simulation sim(*opt.graph, sopts);
      sim.setRandomSeed(0x5eedull);
      sim.step(4);  // runtime faults land in sim.errors(), not here
      comp->recordSimulation(sim);
      // Render every observability sink and discard the output: the
      // metrics/trace serializers must behave on arbitrary designs too.
      zeus::metrics::MetricsReport mr;
      mr.design = top;
      mr.phases = zeus::metrics::phaseTimings();
      mr.resources = comp->resourceReport();
      mr.sim = sim.metricsCounters();
      mr.activity = sim.activityReport();
      (void)mr.renderJson();
      (void)mr.renderText();
      (void)zeus::trace::renderChromeJson();
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Structured failures (the optimizer verifier rejecting a pass's
  // output) are findings just like crashes: trap so libFuzzer saves the
  // input.
  if (!runOne(data, size)) __builtin_trap();
  return 0;
}

#ifndef ZEUS_FUZZ_LIBFUZZER
int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (!f) {
      std::fprintf(stderr, "FAIL %s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
    if (runOne(bytes.data(), bytes.size())) {
      std::fprintf(stderr, "ok   %s (%zu bytes)\n", argv[i], bytes.size());
    } else {
      std::fprintf(stderr, "FAIL %s\n", argv[i]);
      ++failures;
    }
  }
  return failures ? 1 : 0;
}
#endif
