// Property test for port I/O on the 64-lane BatchSimulation.  Every write
// path (string, handle, lane word, broadcast, clear) and every read path
// (output, outputBits, outputUint, lane words) must agree, lane by lane,
// with a scalar Simulation fed that lane's inputs — on boolean and
// multiplex ports, with all four Logic values, and on a port wider than
// 64 bits.  Runs in the default (optimised) build on purpose: a gather
// that is right at -O1 can still be miscompiled at -O2.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

// a/c/w are boolean inputs (w is 70 bits wide), bus is a multiplex INOUT
// port the design also drives (so lanes can contend), bo observes the bus
// through a boolean port (NOINFL reads UNDEF there, §4.1), and co sits
// behind a register so lane histories matter.
const char* kIoDesign = R"(
TYPE io = COMPONENT (IN a: ARRAY[1..8] OF boolean; IN c: boolean;
                     IN w: ARRAY[1..70] OF boolean;
                     bus: ARRAY[1..8] OF multiplex;
                     OUT ao, bo: ARRAY[1..8] OF boolean; OUT co: boolean;
                     OUT wo: ARRAY[1..70] OF boolean) IS
  SIGNAL r: REG;
BEGIN
  FOR i := 1 TO 8 DO
    ao[i] := AND(a[i], c);
    IF a[i] THEN bus[i] := c END;
    bo[i] := bus[i]
  END;
  r.in := c;
  co := r.out;
  FOR i := 1 TO 70 DO wo[i] := w[i] END
END;
SIGNAL top: io;
)";

constexpr Logic kLogic[] = {Logic::Zero, Logic::One, Logic::Undef,
                            Logic::NoInfl};

struct Harness {
  const SimGraph& g;
  BatchSimulation batch;
  std::vector<std::unique_ptr<Simulation>> ref;  ///< one per lane
  std::mt19937_64 rng;

  Harness(const SimGraph& graph, size_t lanes, uint64_t seed)
      : g(graph), batch(graph, lanes), rng(seed) {
    for (size_t l = 0; l < lanes; ++l) {
      ref.push_back(std::make_unique<Simulation>(graph));
    }
  }

  bool coin() { return rng() & 1; }
  std::vector<Logic> randomBits(size_t width) {
    std::vector<Logic> bits(width);
    for (Logic& v : bits) v = kLogic[rng() % 4];
    return bits;
  }

  /// One random write to `port`, mirrored on the scalar references.
  /// Scalar writes alternate between string and handle overloads too.
  void write(const Port& port) {
    const PortHandle h = batch.port(port.name);
    const size_t lanes = batch.lanes();
    auto scalarBits = [&](size_t l, const std::vector<Logic>& bits) {
      if (coin()) ref[l]->setInput(port.name, bits);
      else ref[l]->setInput(ref[l]->port(port.name), bits);
    };
    switch (rng() % 9) {
      case 0:  // per-lane bits, string or handle
        for (size_t l = 0; l < lanes; ++l) {
          if (!coin()) continue;
          const std::vector<Logic> bits = randomBits(h.width);
          if (coin()) batch.setInput(l, port.name, bits);
          else batch.setInput(l, h, bits);
          scalarBits(l, bits);
        }
        break;
      case 1:  // per-lane single Logic on a one-bit port
        if (h.width != 1) break;
        for (size_t l = 0; l < lanes; ++l) {
          if (!coin()) continue;
          const Logic v = kLogic[rng() % 4];
          if (coin()) batch.setInput(l, port.name, v);
          else batch.setInput(l, h, v);
          if (coin()) ref[l]->setInput(port.name, v);
          else ref[l]->setInput(ref[l]->port(port.name), v);
        }
        break;
      case 2:  // per-lane unsigned value (bits above 63 read 0)
        for (size_t l = 0; l < lanes; ++l) {
          if (!coin()) continue;
          const uint64_t v = rng();
          if (coin()) batch.setInputUint(l, port.name, v);
          else batch.setInputUint(l, h, v);
          if (coin()) ref[l]->setInputUint(port.name, v);
          else ref[l]->setInputUint(ref[l]->port(port.name), v);
        }
        break;
      case 3: {  // whole-port lane words, ceil(width / 64) per lane
        const size_t words = (h.width + 63) / 64;
        std::vector<uint64_t> values(lanes * words);
        for (uint64_t& v : values) v = coin() ? rng() : rng() & 0xFF;
        batch.setInputUintLanes(h, values);
        for (size_t l = 0; l < lanes; ++l) {
          std::vector<Logic> bits(h.width);
          for (size_t i = 0; i < h.width; ++i) {
            const uint64_t word = values[l * words + i / 64];
            bits[i] = logicFromBool((word >> (i % 64)) & 1);
          }
          scalarBits(l, bits);
        }
        break;
      }
      case 4:  // per-lane clear
        for (size_t l = 0; l < lanes; ++l) {
          if (!coin()) continue;
          if (coin()) batch.clearInput(l, port.name);
          else batch.clearInput(l, h);
          if (coin()) ref[l]->clearInput(port.name);
          else ref[l]->clearInput(ref[l]->port(port.name));
        }
        break;
      case 5: {  // one Logic on every bit of every lane
        const Logic v = kLogic[rng() % 4];
        if (coin()) batch.setInputAll(port.name, v);
        else batch.setInputAll(h, v);
        for (size_t l = 0; l < lanes; ++l) {
          scalarBits(l, std::vector<Logic>(h.width, v));
        }
        break;
      }
      case 6: {  // broadcast of one port value
        const std::vector<Logic> bits = randomBits(h.width);
        batch.setInputAll(h, bits);
        for (size_t l = 0; l < lanes; ++l) scalarBits(l, bits);
        break;
      }
      default:  // inputs persist unchanged
        break;
    }
  }

  void step() {
    batch.step();
    for (auto& s : ref) s->step();
  }

  /// Every read path of every port on every lane against the scalar
  /// reference, plus the lane's runtime errors.
  void check(const std::string& where) {
    const size_t lanes = batch.lanes();
    std::vector<uint64_t> words(lanes);
    for (const Port& port : g.design->ports) {
      const PortHandle h = batch.port(port.name);
      const uint64_t defined = batch.outputUintLanes(h, words);
      const uint64_t used =
          lanes == 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
      ASSERT_EQ(defined & ~used, 0u)
          << where << port.name << ": defined mask names unused lanes";
      std::vector<Logic> bits(h.width);
      for (size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE(where + " port " + port.name + " lane " +
                     std::to_string(l));
        const Simulation& s = *ref[l];
        const std::vector<Logic> want = s.outputBits(port.name);
        ASSERT_EQ(batch.outputBits(l, port.name), want);
        batch.outputBits(l, h, bits);
        ASSERT_EQ(bits, want);
        s.outputBits(s.port(port.name), bits);
        ASSERT_EQ(bits, want);
        const std::optional<uint64_t> wantUint = s.outputUint(port.name);
        ASSERT_EQ(s.outputUint(s.port(port.name)), wantUint);
        ASSERT_EQ(batch.outputUint(l, port.name), wantUint);
        ASSERT_EQ(batch.outputUint(l, h), wantUint);
        ASSERT_EQ((defined >> l) & 1, wantUint.has_value() ? 1u : 0u);
        ASSERT_EQ(words[l], wantUint.value_or(0));
        if (h.width == 1) {
          ASSERT_EQ(batch.output(l, port.name), want[0]);
          ASSERT_EQ(batch.output(l, h), want[0]);
          ASSERT_EQ(s.output(s.port(port.name)), want[0]);
        }
      }
    }
    for (size_t l = 0; l < lanes; ++l) {
      std::vector<SimError> got;
      for (const SimError& e : batch.errors()) {
        if (e.lane != static_cast<int32_t>(l)) continue;
        got.push_back(e);
        got.back().lane = -1;
      }
      std::vector<SimError> want = ref[l]->errors();
      auto order = [](const SimError& a, const SimError& b) {
        return a.cycle != b.cycle ? a.cycle < b.cycle : a.netName < b.netName;
      };
      std::sort(want.begin(), want.end(), order);
      ASSERT_EQ(got, want) << where << " lane " << l;
    }
  }
};

TEST(BatchPortIo, EveryWriteAndReadPathMatchesScalarLanes) {
  Built b = buildOk(kIoDesign, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_FALSE(g.hasCycle);
  ASSERT_GT(g.design->findPort("w")->nets.size(), 64u);
  size_t contention = 0;
  for (size_t lanes : {size_t{1}, size_t{7}, size_t{63}, size_t{64}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Harness hx(g, lanes, seed * 1000 + lanes);
      const std::string run = std::to_string(lanes) + " lane(s), seed " +
                              std::to_string(seed) + ", ";
      hx.check(run + "before any step:");
      if (testing::Test::HasFatalFailure()) return;
      for (int cycle = 0; cycle < 16; ++cycle) {
        for (const Port& port : g.design->ports) {
          if (port.mode != ast::ParamMode::Out) hx.write(port);
        }
        hx.step();
        hx.check(run + "cycle " + std::to_string(cycle) + ":");
        if (testing::Test::HasFatalFailure()) return;
      }
      contention += hx.batch.errors().size();
    }
  }
  EXPECT_GT(contention, 0u) << "the bus never contended: weak stimulus";
}

TEST(BatchPortIo, HandleOverloadsKeepEveryCheck) {
  Built b = buildOk(kIoDesign, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  SimGraph other = buildSimGraph(*b.design, b.comp->diags());
  BatchSimulation batch(g, 4);
  Simulation sim(g);

  EXPECT_THROW((void)batch.port("nope"), std::invalid_argument);
  EXPECT_THROW((void)sim.port("nope"), std::invalid_argument);
  const PortHandle a = batch.port("a");
  EXPECT_EQ(a.width, 8u);

  // A handle only works on the graph that resolved it.
  const PortHandle foreign = other.port("a");
  EXPECT_THROW(batch.setInputUint(0, foreign, 1), std::invalid_argument);
  EXPECT_THROW(sim.setInputUint(foreign, 1), std::invalid_argument);
  EXPECT_THROW((void)batch.outputUint(0, PortHandle{}),
               std::invalid_argument);

  // Width, lane and lane-count checks.
  const std::vector<Logic> three(3, Logic::One);
  EXPECT_THROW(batch.setInput(0, a, three), std::invalid_argument);
  EXPECT_THROW(sim.setInput(a, three), std::invalid_argument);
  EXPECT_THROW(batch.setInputAll(a, three), std::invalid_argument);
  EXPECT_THROW(batch.setInputUint(4, a, 1), std::invalid_argument);
  EXPECT_THROW(batch.clearInput(4, a), std::invalid_argument);
  EXPECT_THROW((void)batch.outputUint(4, a), std::invalid_argument);
  std::vector<uint64_t> words(3);
  EXPECT_THROW(batch.setInputUintLanes(a, words), std::invalid_argument);
  EXPECT_THROW((void)batch.outputUintLanes(a, words), std::invalid_argument);
  std::vector<uint64_t> oneWordPerLane(4);  // "w" needs two per lane
  EXPECT_THROW(batch.setInputUintLanes(batch.port("w"), oneWordPerLane),
               std::invalid_argument);
  std::vector<Logic> out(7);
  EXPECT_THROW(batch.outputBits(0, a, out), std::invalid_argument);
  EXPECT_THROW(sim.outputBits(a, out), std::invalid_argument);
  EXPECT_THROW((void)batch.output(0, a), std::invalid_argument);
  EXPECT_THROW((void)sim.output(a), std::invalid_argument);
  EXPECT_NO_THROW((void)batch.output(0, batch.port("c")));
}

TEST(BatchPortIo, LaneWordsRoundTripAllLanes) {
  // The transpose on both sides: what lane L is given through lane words
  // is what lane L reads back, bit for bit, on a full 64-lane batch.  The
  // 70-bit port takes two words per lane.
  Built b = buildOk(kIoDesign, "top");
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  BatchSimulation batch(g, 64);
  const PortHandle w = batch.port("w"), wo = batch.port("wo");
  std::vector<uint64_t> in(64 * 2, 0), low(64), out(64);
  std::mt19937_64 rng(7);
  for (size_t l = 0; l < 64; ++l) low[l] = in[2 * l] = rng();
  in[2 * 5 + 1] = 0b100;  // lane 5: bit 67 set, so its value does not fit
  batch.setInputUintLanes(w, in);
  batch.step();
  EXPECT_EQ(batch.outputUintLanes(wo, out), ~uint64_t{1 << 5});
  for (size_t l = 0; l < 64; ++l) {
    const std::vector<Logic> bits = batch.outputBits(l, "wo");
    for (size_t i = 0; i < 70; ++i) {
      const uint64_t bit = (in[2 * l + i / 64] >> (i % 64)) & 1;
      ASSERT_EQ(bits[i], logicFromBool(bit)) << "lane " << l << " bit " << i;
    }
    if (l == 5) {
      EXPECT_EQ(batch.outputUint(l, wo), std::nullopt);
      EXPECT_EQ(out[l], 0u);
    } else {
      EXPECT_EQ(batch.outputUint(l, wo), low[l]) << "lane " << l;
      EXPECT_EQ(out[l], low[l]) << "lane " << l;
    }
  }
}

}  // namespace
}  // namespace zeus::test
