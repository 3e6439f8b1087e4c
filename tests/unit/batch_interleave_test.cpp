// Generative interleaving test for batch port I/O.  BatchSimulation stages
// per-lane port writes and transposes them into its bit planes once per
// cycle, and serves outputUint reads from a per-port cache filled once
// per evaluation.  Random call sequences on random lanes — every per-lane
// setter through its string and handle overloads, the broadcast and
// lane-word setters, all-lane and per-lane RSET, snapshots saved from one
// lane and restored into another, reset, step, evaluateOnly and every
// read path — must leave every lane equal to a scalar firing-rule
// Simulation (the §8 oracle) fed the same calls.  The designs are the
// corpus at -O0 and -O1 and one design with a 70-bit port and two
// aliased multiplex ports.  Runs in the default optimised build.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "tests/support/test_util.h"

namespace zeus::test {
namespace {

// w is 70 bits wide.  m and n are multiplex ports joined by `==`, so they
// share dense slots and the last write to either must win.  r sits behind
// a register, so lane histories and restored registers matter.
const char* kWideAliasDesign = R"(
TYPE io = COMPONENT (IN a: ARRAY[1..4] OF boolean; IN c: boolean;
                     IN w: ARRAY[1..70] OF boolean;
                     m, n: ARRAY[1..3] OF multiplex;
                     OUT ao: ARRAY[1..4] OF boolean; OUT co: boolean;
                     OUT wo: ARRAY[1..70] OF boolean;
                     OUT mo: ARRAY[1..3] OF boolean) IS
  SIGNAL r: REG;
BEGIN
  FOR i := 1 TO 4 DO ao[i] := AND(a[i], c) END;
  FOR i := 1 TO 3 DO
    m[i] == n[i];
    IF a[i] THEN m[i] := c END;
    mo[i] := m[i]
  END;
  r.in := XOR(c, w[70]);
  co := r.out;
  FOR i := 1 TO 70 DO wo[i] := w[i] END
END;
SIGNAL top: io;
)";

constexpr Logic kLogic[] = {Logic::Zero, Logic::One, Logic::Undef,
                            Logic::NoInfl};

/// SimErrors in (cycle, net) order, one readable line each, lane left out.
std::vector<std::string> sortedErrors(std::vector<SimError> errors) {
  std::stable_sort(errors.begin(), errors.end(),
                   [](const SimError& a, const SimError& b) {
                     return a.cycle != b.cycle ? a.cycle < b.cycle
                                               : a.netName < b.netName;
                   });
  std::vector<std::string> lines;
  for (const SimError& e : errors) {
    lines.push_back("cycle " + std::to_string(e.cycle) + " code " +
                    std::to_string(static_cast<int>(e.code)) + " net '" +
                    e.netName + "': " + e.message);
  }
  return lines;
}

/// One batch and one scalar reference per lane, driven by the same random
/// calls.  Errors are compared per lane as sorted lists: the batch orders
/// a cycle's errors by net name, the scalar engines by schedule.
class Mirror {
 public:
  Mirror(const SimGraph& g, size_t lanes, uint64_t seed)
      : g_(g), batch_(g, lanes), rng_(seed), want_(lanes), seen_(lanes) {
    for (size_t l = 0; l < lanes; ++l) {
      ref_.push_back(std::make_unique<Simulation>(g, EvaluatorKind::Firing));
    }
    for (const Port& p : g.design->ports) {
      if (p.mode != ast::ParamMode::Out) writable_.push_back(&p);
    }
  }

  /// Runs `ops` random calls, checking reads as it goes.
  void run(size_t ops, const std::string& where) {
    for (size_t i = 0; i < ops; ++i) {
      const std::string at = where + " op " + std::to_string(i) + ": ";
      one(at);
      if (testing::Test::HasFatalFailure()) return;
    }
    checkAll(where + " end: ");
    if (testing::Test::HasFatalFailure()) return;
    checkErrors(where + " end: ");
  }

 private:
  size_t lanes() const { return batch_.lanes(); }
  bool coin() { return rng_() & 1; }
  size_t lane() { return rng_() % lanes(); }
  const Port& port() { return *writable_[rng_() % writable_.size()]; }
  /// Two-valued half the time, so the flush's complement path and its
  /// UNDEF/NOINFL path both run.
  std::vector<Logic> bits(size_t width) {
    std::vector<Logic> v(width);
    const unsigned kinds = coin() ? 2 : 4;
    for (Logic& b : v) b = kLogic[rng_() % kinds];
    return v;
  }

  void one(const std::string& at) {
    switch (rng_() % 16) {
      case 0:
      case 1: {  // per-lane bits
        const Port& p = port();
        const size_t l = lane();
        const std::vector<Logic> v = bits(p.nets.size());
        if (coin()) batch_.setInput(l, p.name, v);
        else batch_.setInput(l, batch_.port(p.name), v);
        if (coin()) ref_[l]->setInput(p.name, v);
        else ref_[l]->setInput(ref_[l]->port(p.name), v);
        break;
      }
      case 2: {  // per-lane single Logic
        const Port& p = port();
        if (p.nets.size() != 1) break;
        const size_t l = lane();
        const Logic v = kLogic[rng_() % 4];
        if (coin()) batch_.setInput(l, p.name, v);
        else batch_.setInput(l, batch_.port(p.name), v);
        ref_[l]->setInput(p.name, v);
        break;
      }
      case 3:
      case 4: {  // per-lane unsigned value
        const Port& p = port();
        const size_t l = lane();
        const uint64_t v = coin() ? rng_() : rng_() & 0xF;
        if (coin()) batch_.setInputUint(l, p.name, v);
        else batch_.setInputUint(l, batch_.port(p.name), v);
        ref_[l]->setInputUint(ref_[l]->port(p.name), v);
        break;
      }
      case 5: {  // per-lane clear
        const Port& p = port();
        const size_t l = lane();
        if (coin()) batch_.clearInput(l, p.name);
        else batch_.clearInput(l, batch_.port(p.name));
        ref_[l]->clearInput(p.name);
        break;
      }
      case 6: {  // broadcasts
        const Port& p = port();
        if (coin()) {
          const Logic v = kLogic[rng_() % 4];
          if (coin()) batch_.setInputAll(p.name, v);
          else batch_.setInputAll(batch_.port(p.name), v);
          const std::vector<Logic> all(p.nets.size(), v);
          for (auto& s : ref_) s->setInput(p.name, all);
        } else {
          const std::vector<Logic> v = bits(p.nets.size());
          batch_.setInputAll(batch_.port(p.name), v);
          for (auto& s : ref_) s->setInput(p.name, v);
        }
        break;
      }
      case 7: {  // whole-port lane words
        const Port& p = port();
        const size_t width = p.nets.size(), words = (width + 63) / 64;
        std::vector<uint64_t> values(lanes() * words);
        for (uint64_t& v : values) v = rng_();
        batch_.setInputUintLanes(batch_.port(p.name), values);
        for (size_t l = 0; l < lanes(); ++l) {
          std::vector<Logic> v(width);
          for (size_t i = 0; i < width; ++i) {
            v[i] = logicFromBool((values[l * words + i / 64] >> (i % 64)) & 1);
          }
          ref_[l]->setInput(p.name, v);
        }
        break;
      }
      case 8: {  // RSET, all lanes or one
        const bool active = rng_() % 4 == 0;
        if (coin()) {
          batch_.setRset(active);
          for (auto& s : ref_) s->setRset(active);
        } else {
          const size_t l = lane();
          batch_.setRset(l, active);
          ref_[l]->setRset(active);
        }
        break;
      }
      case 9:  // a snapshot of one lane restored into another
        moveLane(at);
        break;
      case 10:
      case 11:
      case 12:
        if (rng_() % 4 == 0) {
          batch_.evaluateOnly();
          for (auto& s : ref_) s->evaluateOnly();
        } else {
          const uint64_t n = 1 + rng_() % 2;
          batch_.step(n);
          for (auto& s : ref_) s->step(n);
        }
        collectErrors();
        stale_ = false;
        break;
      case 13:
        if (rng_() % 8 != 0) break;
        batch_.reset();
        for (auto& s : ref_) s->reset();
        stale_ = false;  // the references read unevaluated too
        for (size_t l = 0; l < lanes(); ++l) {
          want_[l].clear();
          seen_[l] = 0;
        }
        break;
      case 14:  // one read, so the cache is filled between other calls
        checkRead(lane(), g_.design->ports[rng_() % g_.design->ports.size()],
                  at);
        break;
      default:
        checkAll(at);
        break;
    }
  }

  /// Appends each reference's new errors to that lane's expected list.
  void collectErrors() {
    for (size_t l = 0; l < lanes(); ++l) {
      const std::vector<SimError>& e = ref_[l]->errors();
      want_[l].insert(want_[l].end(), e.begin() + seen_[l], e.end());
      seen_[l] = e.size();
    }
  }

  void moveLane(const std::string& at) {
    const size_t from = lane(), to = lane();
    const SimSnapshot got = batch_.saveSnapshot(from);
    SimSnapshot want = ref_[from]->saveSnapshot();
    // A batch lane cannot tell an input driven NOINFL from an unset one
    // (both contribute nothing), and its snapshot records both as unset.
    for (size_t i = 0; i < want.inputSet.size(); ++i) {
      if (want.inputSet[i] && want.inputValues[i] == Logic::NoInfl) {
        want.inputSet[i] = 0;
        want.inputValues[i] = Logic::Undef;
      }
    }
    ASSERT_EQ(got.designHash, want.designHash) << at;
    ASSERT_EQ(got.cycle, want.cycle) << at;
    ASSERT_EQ(got.rngState, want.rngState) << at;
    ASSERT_EQ(got.regValues, want.regValues) << at;
    ASSERT_EQ(got.inputValues, want.inputValues) << at << "lane " << from;
    ASSERT_EQ(got.inputSet, want.inputSet) << at << "lane " << from;
    ASSERT_EQ(sortedErrors(got.errors), sortedErrors(want_[from])) << at;

    // A write to the target lane between the save and the restore: the
    // restore replaces it.
    const Port& p = port();
    const uint64_t v = rng_();
    batch_.setInputUint(to, p.name, v);
    ref_[to]->setInputUint(p.name, v);

    // The batch appends the snapshot's errors to the lane's, where a
    // scalar restore replaces them, and reads UNDEF on every lane until
    // the next evaluation (stale_).
    batch_.restoreSnapshot(to, got);
    ref_[to]->restoreSnapshot(want);
    stale_ = true;
    want_[to].insert(want_[to].end(), got.errors.begin(), got.errors.end());
    seen_[to] = ref_[to]->errors().size();
  }

  /// What lane `l` should read on `p`: the reference's values, or, between
  /// a restore and the next evaluation, the unevaluated reads (every bit
  /// UNDEF) that the batch shows on every lane then.
  std::vector<Logic> wantBits(size_t l, const Port& p) const {
    if (stale_) return std::vector<Logic>(p.nets.size(), Logic::Undef);
    return ref_[l]->outputBits(p.name);
  }
  std::optional<uint64_t> wantUint(size_t l, const Port& p) const {
    if (stale_) {
      return p.nets.empty() ? std::optional<uint64_t>(0) : std::nullopt;
    }
    return ref_[l]->outputUint(p.name);
  }

  /// Every read path of `p` on lane `l` against the reference.
  void checkRead(size_t l, const Port& p, const std::string& at) {
    const PortHandle h = batch_.port(p.name);
    const std::optional<uint64_t> want = wantUint(l, p);
    ASSERT_EQ(batch_.outputUint(l, p.name), want)
        << at << p.name << " lane " << l;
    ASSERT_EQ(batch_.outputUint(l, h), want) << at << p.name << " lane " << l;
    const std::vector<Logic> bits = wantBits(l, p);
    ASSERT_EQ(batch_.outputBits(l, p.name), bits)
        << at << p.name << " lane " << l;
    if (bits.size() == 1) {
      ASSERT_EQ(batch_.output(l, p.name), bits[0])
          << at << p.name << " lane " << l;
      ASSERT_EQ(batch_.output(l, h), bits[0]) << at << p.name << " lane " << l;
    }
  }

  void checkAll(const std::string& at) {
    std::vector<uint64_t> words(lanes());
    for (const Port& p : g_.design->ports) {
      const uint64_t defined =
          batch_.outputUintLanes(batch_.port(p.name), words);
      for (size_t l = 0; l < lanes(); ++l) {
        const std::optional<uint64_t> want = wantUint(l, p);
        ASSERT_EQ((defined >> l) & 1, want.has_value() ? 1u : 0u)
            << at << p.name << " lane " << l;
        ASSERT_EQ(words[l], want.value_or(0)) << at << p.name << " lane " << l;
        checkRead(l, p, at);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
    ASSERT_EQ(batch_.cycle(), ref_[0]->cycle()) << at;
  }

  /// Every lane's errors against the reference's (collectErrors).
  void checkErrors(const std::string& at) {
    for (size_t l = 0; l < lanes(); ++l) {
      std::vector<SimError> got;
      for (const SimError& e : batch_.errors()) {
        if (e.lane != static_cast<int32_t>(l)) continue;
        got.push_back(e);
      }
      ASSERT_EQ(sortedErrors(got), sortedErrors(want_[l]))
          << at << "errors of lane " << l;
    }
  }

  const SimGraph& g_;
  BatchSimulation batch_;
  std::vector<std::unique_ptr<Simulation>> ref_;
  std::mt19937_64 rng_;
  std::vector<const Port*> writable_;
  std::vector<std::vector<SimError>> want_;  ///< per lane, see collectErrors
  std::vector<size_t> seen_;  ///< per lane: reference errors collected
  bool stale_ = false;        ///< restored since the last evaluation
};

/// Runs the mirror on one graph: `seeds` runs at 64 lanes (every flush
/// and cache fill a full transpose) and as many at 5 lanes.
void runMirrors(const SimGraph& g, const std::string& name, size_t ops,
                uint64_t seeds) {
  ASSERT_FALSE(g.hasCycle) << name;
  for (size_t lanes : {size_t{64}, size_t{5}}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      Mirror m(g, lanes, seed * 7919 + lanes);
      m.run(ops, name + ", " + std::to_string(lanes) + " lane(s), seed " +
                     std::to_string(seed));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BatchInterleave, WideAndAliasedPortsMatchScalarLanes) {
  Built b = buildOk(kWideAliasDesign, "top");
  ASSERT_NE(b.design, nullptr);
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  ASSERT_GT(g.design->findPort("w")->nets.size(), 64u);
  // The aliased ports share their slots, so a staged write to one must
  // flush the other's first.
  ASSERT_EQ(g.portSlots[g.port("m").index].dense,
            g.portSlots[g.port("n").index].dense);
  runMirrors(g, "wide/alias", 1500, 2);
}

class BatchInterleaveCorpus
    : public ::testing::TestWithParam<corpus::CorpusEntry> {};

TEST_P(BatchInterleaveCorpus, MatchesScalarLanesAtO0AndO1) {
  std::string top;
  const std::string src = corpusSource(GetParam(), &top);
  for (bool optimize : {false, true}) {
    Built b = buildOk(src, top);
    ASSERT_NE(b.design, nullptr);
    if (optimize) {
      OptReport rep = b.comp->optimize(*b.design);
      ASSERT_TRUE(rep.verified) << rep.verifyError;
    }
    SimGraph g = buildSimGraph(*b.design, b.comp->diags());
    // No port shares RSET's slot (the checker allows no alias of a
    // boolean net but an instance's IN or a formal OUT parameter, and
    // none between two booleans), so setRset never has to flush staged
    // port writes first.
    const uint32_t rset = g.dense(g.design->rset);
    for (const SimGraph::PortSlots& ps : g.portSlots) {
      ASSERT_EQ(std::count(ps.dense.begin(), ps.dense.end(), rset), 0);
    }
    runMirrors(g, std::string(GetParam().name) + (optimize ? " -O1" : " -O0"),
               200, 1);
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, BatchInterleaveCorpus, ::testing::ValuesIn(corpus::all()),
    [](const ::testing::TestParamInfo<corpus::CorpusEntry>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(BatchInterleave, UnknownPortNamesThePort) {
  // Names resolve through std::string_view; the error still quotes the
  // name it was given, on every string overload of both facades.
  Built b = buildOk(kWideAliasDesign, "top");
  ASSERT_NE(b.design, nullptr);
  SimGraph g = buildSimGraph(*b.design, b.comp->diags());
  BatchSimulation batch(g, 4);
  Simulation sim(g);
  auto message = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  const std::string want = "no port named 'x'";
  EXPECT_EQ(message([&] { (void)g.port("x"); }), want);
  EXPECT_EQ(message([&] { (void)batch.port("x"); }), want);
  EXPECT_EQ(message([&] { batch.setInput(0, "x", Logic::One); }), want);
  EXPECT_EQ(message([&] { batch.setInputUint(0, "x", 1); }), want);
  EXPECT_EQ(message([&] { batch.clearInput(0, "x"); }), want);
  EXPECT_EQ(message([&] { batch.setInputAll("x", Logic::One); }), want);
  EXPECT_EQ(message([&] { (void)batch.outputUint(0, "x"); }), want);
  EXPECT_EQ(message([&] { (void)batch.output(0, "x"); }), want);
  EXPECT_EQ(message([&] { (void)sim.port("x"); }), want);
  EXPECT_EQ(message([&] { sim.setInputUint("x", 1); }), want);
  EXPECT_EQ(message([&] { (void)sim.outputUint("x"); }), want);
  EXPECT_EQ(message([&] { (void)sim.outputBits("x"); }), want);
  const std::string name = "x";  // a std::string argument takes the same path
  EXPECT_EQ(message([&] { sim.setInput(name, Logic::One); }), want);
  EXPECT_EQ(g.design->findPort(""), nullptr);
  EXPECT_NE(g.design->findPort(std::string_view("wo!", 2)), nullptr);
}

}  // namespace
}  // namespace zeus::test
