#include "src/sim/wave.h"

#include <cctype>

namespace zeus {

void WaveRecorder::watchPort(const std::string& port,
                             const std::string& label) {
  const Port& p = sim_.design().ports[sim_.port(port).index];
  for (size_t i = 0; i < p.nets.size(); ++i) {
    Track t;
    t.label = (label.empty() ? port : label);
    if (p.nets.size() > 1) t.label += "[" + std::to_string(i + 1) + "]";
    t.nets = {p.nets[i]};
    tracks_.push_back(std::move(t));
  }
}

void WaveRecorder::watchNet(NetId net, const std::string& label) {
  Track t;
  t.label = label;
  if (t.label.empty()) {
    // Default to the netlist name so the VCD $var is never nameless.
    const Netlist& nl = sim_.design().netlist;
    if (net < nl.netCount()) t.label = nl.net(net).name;
    if (t.label.empty()) t.label = "net<" + std::to_string(net) + ">";
  }
  t.nets = {net};
  tracks_.push_back(std::move(t));
}

void WaveRecorder::sample() {
  for (Track& t : tracks_) {
    t.history.push_back(sim_.netValue(t.nets[0]));
  }
  ++samples_;
}

std::string WaveRecorder::renderTable() const {
  size_t width = 0;
  for (const Track& t : tracks_) width = std::max(width, t.label.size());
  std::string out;
  for (const Track& t : tracks_) {
    out += t.label;
    out.append(width - t.label.size() + 1, ' ');
    out += "| ";
    for (Logic v : t.history) {
      switch (v) {
        case Logic::Zero: out += '0'; break;
        case Logic::One: out += '1'; break;
        case Logic::Undef: out += 'x'; break;
        case Logic::NoInfl: out += 'z'; break;
      }
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

namespace {

char vcdChar(Logic v) {
  switch (v) {
    case Logic::Zero: return '0';
    case Logic::One: return '1';
    case Logic::Undef: return 'x';
    case Logic::NoInfl: return 'z';
  }
  return 'x';
}

/// VCD reference names allow [a-zA-Z0-9_$] identifiers with an optional
/// trailing " [index]" bit-select.  Labels like "sum[1]" become
/// "sum [1]"; any other illegal character becomes '_' so gtkwave-style
/// parsers accept the file.
std::string vcdReference(const std::string& label) {
  std::string base = label;
  std::string select;
  size_t open = label.find_last_of('[');
  if (open != std::string::npos && !label.empty() &&
      label.back() == ']' && open > 0) {
    bool digits = open + 1 < label.size() - 1;
    for (size_t i = open + 1; i + 1 < label.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(label[i]))) {
        digits = false;
        break;
      }
    }
    if (digits) {
      base = label.substr(0, open);
      select = " " + label.substr(open);
    }
  }
  for (char& c : base) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '$') {
      c = '_';
    }
  }
  if (base.empty()) base = "_";
  return base + select;
}

}  // namespace

std::string WaveRecorder::renderVcd(const std::string& module) const {
  // Full VCD header (IEEE 1364 §18.2): $date / $version / $timescale.
  // The date text is fixed so two runs of the same stimulus produce
  // byte-identical files (golden tests diff the output).
  std::string out =
      "$date\n  (deterministic run)\n$end\n"
      "$version\n  Zeus WaveRecorder\n$end\n"
      "$timescale\n  1ns\n$end\n"
      "$scope module " + module + " $end\n";
  for (size_t i = 0; i < tracks_.size(); ++i) {
    out += "$var wire 1 s" + std::to_string(i) + " " +
           vcdReference(tracks_[i].label) + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";
  if (samples_ == 0) return out;
  // Initial-value block at time 0, then value *changes* only.
  out += "#0\n$dumpvars\n";
  for (size_t i = 0; i < tracks_.size(); ++i) {
    out += std::string(1, vcdChar(tracks_[i].history[0])) + "s" +
           std::to_string(i) + "\n";
  }
  out += "$end\n";
  for (size_t c = 1; c < samples_; ++c) {
    bool stamped = false;
    for (size_t i = 0; i < tracks_.size(); ++i) {
      if (tracks_[i].history[c] == tracks_[i].history[c - 1]) continue;
      if (!stamped) {
        out += "#" + std::to_string(c) + "\n";
        stamped = true;
      }
      out += std::string(1, vcdChar(tracks_[i].history[c])) + "s" +
             std::to_string(i) + "\n";
    }
  }
  return out;
}

}  // namespace zeus
