// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark drives the zeus library only through its public headers.
// Every call into a library layer is wrapped in a Tracer::Span from the
// benchmark's own code; with tracing off a span costs one branch, so the
// untraced run measures the library as callers see it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The library calls the benchmark times.  Each name is
/// "<library layer>.<public function group>".
enum Layer : uint8_t {
  kWorkload,          ///< the whole timed workload (root span)
  kSetup,             ///< one set-up repetition
  kFromSource,        ///< Compilation::fromSource (lexer, parser, sema)
  kElaborate,         ///< Compilation::elaborate
  kOptimize,          ///< Compilation::optimize
  kGraphBuild,        ///< buildSimGraph
  kSimConstruct,      ///< Simulation / BatchSimulation constructors
  kSimulationSet,     ///< Simulation::setInput*
  kSimulationStep,    ///< Simulation::step
  kSimulationObserve, ///< Simulation::output*
  kBatchPack,         ///< BatchSimulation::setInput* (per-lane port I/O)
  kBatchStep,         ///< BatchSimulation::step (kernel, latch, contention)
  kBatchObserve,      ///< BatchSimulation::output* / netValue / lane diffs
  kFarmRun,           ///< runFarm
  kFarmOracle,        ///< runFarmScalarOracle (output check)
  kFaultCampaign,     ///< runFaultCampaign
  kServeBatch,        ///< runServeBatch
  kCheck,             ///< the benchmark's own output checks
  kLayerCount
};

[[nodiscard]] const char* layerName(Layer l);

/// In-memory span recorder.  Spans nest on one thread (the benchmark's
/// main thread); a layer's self time is its span time minus the time its
/// child spans cover.  Totals cover every span; the individual records
/// are kept up to kMaxRecords so a long traced run stays small.
class Tracer {
 public:
  static constexpr size_t kMaxRecords = size_t{1} << 17;

  struct Totals {
    uint64_t calls = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
  };

  class Span {
   public:
    Span(Tracer& t, Layer l) : t_(t.on_ ? &t : nullptr) {
      if (t_) t_->begin(l);
    }
    ~Span() {
      if (t_) t_->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const Totals& totals(Layer l) const { return totals_[l]; }
  [[nodiscard]] uint64_t droppedRecords() const { return dropped_; }

  /// Chrome trace-event JSON: one complete event per kept span, with its
  /// record id and parent id in "args".  False when the file cannot be
  /// written.
  bool writeChromeJson(const std::string& path) const;
  /// One line per layer that ran: calls, total and self time.
  [[nodiscard]] std::string selfTimeTable() const;

 private:
  struct Open {
    Layer layer;
    int32_t record;  ///< index into records_, -1 when not kept
    int64_t start;
    int64_t childNs;
  };
  struct Record {
    Layer layer;
    int32_t parent;
    int64_t start;
    int64_t end;
  };

  [[nodiscard]] int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  void begin(Layer l);
  void end();

  bool on_;
  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
  std::array<Totals, kLayerCount> totals_{};
};

/// Exact percentile (0..100) of the samples, interpolating linearly
/// between the two nearest ranks.  0 when there are no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// Windowed measurement of a closed loop.  Timed calls and the step
/// latency samples they yield accumulate into a window until it holds
/// kWindowSeconds of call time; the window then yields its rates and the
/// exact p50 and p90 of its samples.  Each reported figure is the
/// fast-side decile over the run's windows: the rate exceeded, and the
/// latency undercut, by one window in ten.  On a shared host, other
/// tenants' memory traffic slows a thread by up to 40% for stretches of
/// seconds to minutes, in a mix that differs from run to run.
/// Interference only slows the code down, so the fastest windows show it
/// with the least interference; a decile, not the single fastest window,
/// keeps one lucky window from setting the figure.  Rates and latencies
/// come from the same windows, so they agree with each other.
class Meter {
 public:
  static constexpr double kWindowSeconds = 0.5;
  /// Windows a measurement needs before its deciles count.
  static constexpr size_t kMinWindows = 20;

  /// One step latency sample, in milliseconds.  A call's samples are
  /// added before the call itself, so they land in its window.
  void addLatency(double ms) { stepMs_.push_back(ms); }
  /// One timed call: its duration, the ops and lane-cycles it completed.
  void addCall(double seconds, double ops, double laneCycles);

  [[nodiscard]] bool measured() const {
    return opsRate_.size() >= kMinWindows;
  }
  [[nodiscard]] double opsPerSecond() const {
    return percentile(opsRate_, 90);
  }
  [[nodiscard]] double laneCyclesPerSecond() const {
    return percentile(laneRate_, 90);
  }
  [[nodiscard]] double p50Ms() const { return percentile(p50_, 10); }
  [[nodiscard]] double p90Ms() const { return percentile(p90_, 10); }
  [[nodiscard]] size_t windows() const { return opsRate_.size(); }
  [[nodiscard]] uint64_t samples() const { return samples_; }

 private:
  double seconds_ = 0, ops_ = 0, laneCycles_ = 0;
  uint64_t samples_ = 0;
  std::vector<double> stepMs_;
  std::vector<double> opsRate_, laneRate_, p50_, p90_;
};

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;  ///< measuring time of this pass
};

/// What one pass of a workload measured.  `e2e` and `layers` are keyed by
/// the metric names of BENCHMARK.json; `detail` holds the exact work
/// counts and the workload's own figures, printed on the stamp line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, double> detail;
};

Report runStreamAdder32(const Config& cfg, Tracer& tr);
Report runFarmDict64(const Config& cfg, Tracer& tr);
Report runFaultsAm2901(const Config& cfg, Tracer& tr);
Report runServeMix(const Config& cfg, Tracer& tr);

}  // namespace perfbench
