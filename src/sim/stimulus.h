// Internal: the pseudo-random streams and port selections shared by the
// evaluators, the fault campaign and the simulation farm.  One definition
// each, so every engine draws the same §8 RANDOM bits and the campaign
// and the farm drive and observe the same port bits.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/graph.h"

namespace zeus {

/// xorshift64, advanced in place: the §8 RANDOM stream (one draw per
/// RANDOM node per cycle, low bit used) and the stimulus streams.
inline uint64_t xorshift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// splitmix64: a stateless mix for deriving independent streams from
/// (seed, index), so a run resumed at a boundary replays the exact
/// stimulus of a straight run.
inline uint64_t splitmix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// One observable primary-output bit: bit `bit` (0-based) of
/// Design::ports[port].
struct Observable {
  NetId net;
  uint32_t port;
  uint32_t bit;
};

/// Every non-IN port bit, in port declaration order.
inline std::vector<Observable> observableOutputs(const SimGraph& g) {
  std::vector<Observable> out;
  const std::vector<Port>& ports = g.design->ports;
  for (size_t pi = 0; pi < ports.size(); ++pi) {
    const Port& p = ports[pi];
    for (size_t b = 0; b < p.nets.size(); ++b) {
      if (p.modes[b] == ast::ParamMode::In) continue;
      out.push_back({p.nets[b], static_cast<uint32_t>(pi),
                     static_cast<uint32_t>(b)});
    }
  }
  return out;
}

/// The IN ports, resolved once per run, in port declaration order.
inline std::vector<PortHandle> stimulusInputs(const SimGraph& g) {
  std::vector<PortHandle> in;
  for (const Port& p : g.design->ports) {
    if (p.mode == ast::ParamMode::In) in.push_back(g.port(p.name));
  }
  return in;
}

}  // namespace zeus
