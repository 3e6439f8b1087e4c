#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perfbench/perfbench.h"

namespace perfbench {

const char* layerName(Layer l) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "workload",           "setup",
      "compiler.from_source", "elab.elaborate",
      "transform.optimize", "sim.graph_build",
      "sim.construct",      "simulation.set",
      "simulation.step",    "simulation.observe",
      "batch_sim.pack",     "batch_sim.step",
      "batch_sim.observe",  "sim_farm.run",
      "sim_farm.oracle",    "fault.campaign",
      "batch_serve.run",    "check",
  };
  return kNames[l];
}

void Tracer::begin(Layer l) {
  int32_t record = -1;
  // A span is kept only when its parent was kept, so every kept record's
  // parent id points at a kept record.
  const bool parentKept = stack_.empty() || stack_.back().record >= 0;
  if (parentKept && records_.size() < kMaxRecords) {
    record = static_cast<int32_t>(records_.size());
    records_.push_back(
        {l, stack_.empty() ? -1 : stack_.back().record, 0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back({l, record, nowNs(), 0});
}

void Tracer::end() {
  const int64_t now = nowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = now - open.start;
  Totals& t = totals_[open.layer];
  ++t.calls;
  t.totalNs += dur;
  t.selfNs += dur - open.childNs;
  if (!stack_.empty()) stack_.back().childNs += dur;
  if (open.record >= 0) {
    records_[static_cast<size_t>(open.record)].start = open.start;
    records_[static_cast<size_t>(open.record)].end = now;
  }
}

bool Tracer::writeChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char buf[256];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                  layerName(r.layer), static_cast<double>(r.start) / 1e3,
                  static_cast<double>(r.end - r.start) / 1e3, i, r.parent,
                  i + 1 < records_.size() ? "," : "");
    out << buf;
  }
  out << "], \"dropped\": " << dropped_ << "}\n";
  return static_cast<bool>(out);
}

std::string Tracer::selfTimeTable() const {
  std::string s;
  char buf[160];
  for (uint8_t i = 0; i < kLayerCount; ++i) {
    const Totals& t = totals_[i];
    if (t.calls == 0) continue;
    std::snprintf(buf, sizeof buf,
                  "  %-22s calls %10llu  total %11.3f ms  self %11.3f ms\n",
                  layerName(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(t.calls),
                  static_cast<double>(t.totalNs) / 1e6,
                  static_cast<double>(t.selfNs) / 1e6);
    s += buf;
  }
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + static_cast<ptrdiff_t>(lo) + 1,
                                     v.end());
  return a + (b - a) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

void Meter::addCall(double seconds, double ops, double laneCycles) {
  seconds_ += seconds;
  ops_ += ops;
  laneCycles_ += laneCycles;
  if (seconds_ < kWindowSeconds) return;
  opsRate_.push_back(ops_ / seconds_);
  laneRate_.push_back(laneCycles_ / seconds_);
  if (!stepMs_.empty()) {
    p50_.push_back(percentile(stepMs_, 50));
    p90_.push_back(percentile(stepMs_, 90));
  }
  samples_ += stepMs_.size();
  stepMs_.clear();
  seconds_ = ops_ = laneCycles_ = 0;
}

}  // namespace perfbench
