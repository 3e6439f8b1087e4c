#include "src/core/script.h"

#include <sstream>
#include <vector>

namespace zeus {

namespace {

bool parseValue(const std::string& tok, uint64_t& out) {
  try {
    if (tok.rfind("0b", 0) == 0) {
      out = std::stoull(tok.substr(2), nullptr, 2);
    } else {
      out = std::stoull(tok);
    }
    return true;
  } catch (...) {
    return false;
  }
}

std::string portValueText(const Simulation& sim, PortHandle port) {
  std::vector<Logic> values(port.width);
  sim.outputBits(port, values);
  std::string bits;
  for (Logic v : values) {
    bits += logicName(v);
    bits += ' ';
  }
  return bits;
}

}  // namespace

ScriptResult runScript(Simulation& sim, const std::string& text) {
  ScriptResult r;
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  auto fail = [&](const std::string& message) {
    r.ok = false;
    r.failedLine = lineNo;
    r.log += "line " + std::to_string(lineNo) + ": " + message + "\n";
  };

  while (r.ok && std::getline(in, line)) {
    ++lineNo;
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd)) continue;

    try {
      if (cmd == "set") {
        std::string port, value;
        if (!(ls >> port >> value)) {
          fail("set needs <port> <value>");
          break;
        }
        uint64_t v;
        if (!parseValue(value, v)) {
          fail("bad value '" + value + "'");
          break;
        }
        sim.setInputUint(port, v);
      } else if (cmd == "setx") {
        std::string port;
        if (!(ls >> port)) {
          fail("setx needs <port>");
          break;
        }
        const PortHandle h = sim.port(port);
        sim.setInput(h, std::vector<Logic>(h.width, Logic::Undef));
      } else if (cmd == "clear") {
        std::string port;
        if (!(ls >> port)) {
          fail("clear needs <port>");
          break;
        }
        sim.clearInput(port);
      } else if (cmd == "reset") {
        uint64_t n = 1;
        std::string tok;
        if (ls >> tok && !parseValue(tok, n)) {
          fail("bad cycle count '" + tok + "'");
          break;
        }
        sim.setRset(true);
        sim.step(n);
        sim.setRset(false);
      } else if (cmd == "step") {
        uint64_t n = 1;
        std::string tok;
        if (ls >> tok && !parseValue(tok, n)) {
          fail("bad cycle count '" + tok + "'");
          break;
        }
        sim.step(n);
      } else if (cmd == "expect") {
        std::string port, value;
        if (!(ls >> port >> value)) {
          fail("expect needs <port> <value>");
          break;
        }
        uint64_t want;
        if (!parseValue(value, want)) {
          fail("bad value '" + value + "'");
          break;
        }
        ++r.expectationsChecked;
        const PortHandle h = sim.port(port);
        auto got = sim.outputUint(h);
        if (!got) {
          fail("expected " + port + " = " + value +
               ", got undefined bits: " + portValueText(sim, h));
          break;
        }
        if (*got != want) {
          fail("expected " + port + " = " + value + ", got " +
               std::to_string(*got));
          break;
        }
      } else if (cmd == "expectx") {
        std::string port;
        if (!(ls >> port)) {
          fail("expectx needs <port>");
          break;
        }
        ++r.expectationsChecked;
        const PortHandle h = sim.port(port);
        std::vector<Logic> bits(h.width);
        sim.outputBits(h, bits);
        for (Logic v : bits) {
          if (v != Logic::Undef) {
            fail("expected " + port + " all-UNDEF, got " +
                 portValueText(sim, h));
            break;
          }
        }
      } else if (cmd == "print") {
        std::string port;
        if (!(ls >> port)) {
          fail("print needs <port>");
          break;
        }
        r.log += port + " = " + portValueText(sim, sim.port(port)) +
                 "(cycle " + std::to_string(sim.cycle()) + ")\n";
      } else {
        fail("unknown command '" + cmd + "'");
        break;
      }
    } catch (const std::exception& e) {
      fail(e.what());
      break;
    }
  }

  for (const SimError& e : sim.errors()) {
    r.log += "runtime error, cycle " + std::to_string(e.cycle) + ", " +
             e.netName + ": " + e.message + "\n";
  }
  return r;
}

}  // namespace zeus
