// zeus_perfbench: the repository benchmark program (see README.md).
//
//   zeus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH]
//
// --trace 0 measures the workload for S seconds and prints the end-to-end
// metrics.  --trace 1 measures it untraced for S/2 seconds, then traced
// for S/2 seconds, prints the tracing overhead and each layer's self time,
// writes the spans to PATH, and prints the per-layer metrics.  The last
// line of stdout is always the result object.
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "perfbench/perfbench.h"
#include "src/support/buildinfo.h"

namespace {

using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric lists of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"lane_cycles_per_s", "1/s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"compiler.from_source_us", "us"},
    {"elab.elaborate_us", "us"},
    {"transform.optimize_us", "us"},
    {"sim.graph_build_us", "us"},
    {"elab.nodes", "count"},
    {"transform.nodes", "count"},
    {"batch_sim.pack_ns", "ns"},
    {"batch_sim.step_ns", "ns"},
    {"batch_sim.observe_ns", "ns"},
    {"batch_sim.io_share", "fraction"},
    {"simulation.set_ns", "ns"},
    {"simulation.step_ns", "ns"},
    {"simulation.observe_ns", "ns"},
    {"sim.node_firings_per_cycle", "count"},
    {"sim.net_resolutions_per_cycle", "count"},
    {"sim.contention_checks_per_cycle", "count"},
    {"sim_farm.run_s", "s"},
    {"sim_farm.block_us_mean", "us"},
    {"sim_farm.block_us_max", "us"},
    {"sim_farm.parallel_eff", "fraction"},
    {"sim_farm.imbalance", "ratio"},
    {"fault.batch_cycle_us_p50", "us"},
    {"fault.batch_cycle_us_p99", "us"},
    {"fault.batches", "count"},
    {"fault.lane_utilization", "fraction"},
    {"fault.coverage", "fraction"},
    {"fault.detected", "count"},
    {"fault.masked", "count"},
    {"fault.undetected", "count"},
    {"batch_serve.compile_us_mean", "us"},
    {"batch_serve.hit_us_mean", "us"},
    {"batch_serve.farm_share", "fraction"},
    {"batch_serve.compile_share", "fraction"},
    {"batch_serve.overhead_us_mean", "us"},
    {"batch_serve.hit_ratio", "fraction"},
    {"batch_serve.compiles", "count"},
};

struct Workload {
  const char* name;
  Report (*run)(const perfbench::Config&, perfbench::Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"stream-adder32", perfbench::runStreamAdder32},
    {"farm-dict64", perfbench::runFarmDict64},
    {"faults-am2901", perfbench::runFaultsAm2901},
    {"serve-mix", perfbench::runServeMix},
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string jsonObject(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ", ";
    s += "\"" + k + "\": " + num(v);
  }
  return s + "}";
}

int cpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void usage(const char* why, const char* arg = "") {
  std::fprintf(stderr,
               "zeus_perfbench: %s%s\nusage: zeus_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why, arg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, traceOut;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::atoll(value);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--trace-out") {
      traceOut = value;
    } else {
      usage("unknown option ", argv[i]);
    }
  }
  if (argc % 2 == 0) usage("options take one value each");
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (!w) usage("unknown or missing --workload");
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds and --trace are required");
  }

  try {
    perfbench::Config cfg{workload, static_cast<uint64_t>(seed), seconds};
    std::string stamp = "{\"workload\": \"" + workload +
                        "\", \"seed\": " + std::to_string(seed) +
                        ", \"seconds\": " + num(seconds) +
                        ", \"trace\": " + std::to_string(trace) +
                        ", \"nproc\": " + std::to_string(cpuCount()) +
                        ", \"build\": " + zeus::buildinfo::renderJson();
    Report result;
    if (trace == 0) {
      perfbench::Tracer off(false);
      result = w->run(cfg, off);
      result.e2e["peak_rss_mb"] = peakRssMb();
      stamp += ", \"detail\": " + jsonObject(result.detail);
    } else {
      cfg.seconds = seconds / 2;
      perfbench::Tracer off(false);
      Report base = w->run(cfg, off);
      perfbench::Tracer on(true);
      result = w->run(cfg, on);
      std::printf("tracing overhead (untraced -> traced):\n");
      for (const char* m : {"ops_per_s", "lane_cycles_per_s"}) {
        std::printf("  %-18s %14.6g -> %14.6g  (%+.2f%%)\n", m, base.e2e[m],
                    result.e2e[m],
                    100.0 * (1.0 - result.e2e[m] / base.e2e[m]));
      }
      std::printf("layer self time (traced pass):\n%s",
                  on.selfTimeTable().c_str());
      if (!traceOut.empty()) {
        if (!on.writeChromeJson(traceOut)) {
          std::fprintf(stderr, "zeus_perfbench: cannot write %s\n",
                       traceOut.c_str());
          return 1;
        }
        std::printf("spans: %s (%llu not kept)\n", traceOut.c_str(),
                    static_cast<unsigned long long>(on.droppedRecords()));
      }
      stamp += ", \"untraced\": " + jsonObject(base.e2e) +
               ", \"traced\": " + jsonObject(result.e2e) +
               ", \"detail\": " + jsonObject(result.detail);
      result.attempted += base.attempted;
      result.failed += base.failed;
    }
    std::printf("%s}\n", stamp.c_str());

    // A layer the workload never calls reads 0.
    const std::map<std::string, double>& values =
        trace == 0 ? result.e2e : result.layers;
    using Specs = std::span<const MetricSpec>;
    const Specs specs = trace == 0 ? Specs(kEndToEnd) : Specs(kPerLayer);
    bool finite = true;
    std::string out = "{";
    for (const MetricSpec& m : specs) {
      const auto it = values.find(m.name);
      const double v = it == values.end() ? 0.0 : it->second;
      finite = finite && std::isfinite(v);
      if (out.size() > 1) out += ", ";
      out += std::string("\"") + m.name + "\": {\"value\": " + num(v) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}";
    const bool correct = finite && result.failed == 0 && result.attempted > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed), out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zeus_perfbench: %s\n", e.what());
    return 1;
  }
}
