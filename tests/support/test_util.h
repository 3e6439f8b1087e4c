// Shared helpers for the Zeus test suite.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>

#include "src/core/zeus.h"
#include "src/corpus/corpus.h"

namespace zeus::test {

/// A scratch file path private to this test process.  ctest runs
/// zeus_tests twice at once (the whole suite, and the thread_stress
/// filter of it), so a fixed name would let one process read the other's
/// half-written file.
inline std::string privateTempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Returns a directly elaboratable source for a corpus entry, appending an
/// instantiation line for the parameterized programs (whose `top` is "").
/// `*top` receives the SIGNAL name to elaborate.
inline std::string corpusSource(const corpus::CorpusEntry& e,
                                std::string* top) {
  std::string source = e.source;
  *top = e.top;
  if (top->empty()) {
    if (std::string(e.name) == "adders") {
      source += "SIGNAL t: rippleCarry(8);\n";
    } else if (std::string(e.name).rfind("tree", 0) == 0) {
      source += "SIGNAL t: tree(8);\n";
    } else if (std::string(e.name) == "htree") {
      source += "SIGNAL t: htree(16);\n";
    } else if (std::string(e.name) == "routing") {
      source += "SIGNAL t: routingnetwork(8);\n";
    } else if (std::string(e.name) == "systolic-stack") {
      source += "SIGNAL t: systolicstack(8);\n";
    } else if (std::string(e.name) == "dictionary") {
      source += "SIGNAL t: dicttree(8);\n";
    } else if (std::string(e.name) == "snake") {
      source += "SIGNAL t: snake(3,4);\n";
    } else if (std::string(e.name) == "sorter") {
      source += "SIGNAL t: sorter(4);\n";
    } else if (std::string(e.name) == "matvec") {
      source += "SIGNAL t: matvec(4);\n";
    } else {
      ADD_FAILURE() << "no instantiation rule for " << e.name;
    }
    *top = "t";
  }
  return source;
}

/// Compiles a source string and asserts there were no errors.
inline std::unique_ptr<Compilation> compileOk(const std::string& src) {
  auto comp = Compilation::fromSource("test.zeus", src);
  EXPECT_TRUE(comp->ok()) << comp->diagnosticsText();
  return comp;
}

/// Compiles + elaborates, asserting success.
struct Built {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<Design> design;
};

inline Built buildOk(const std::string& src, const std::string& top) {
  Built b;
  b.comp = Compilation::fromSource("test.zeus", src);
  EXPECT_TRUE(b.comp->ok()) << b.comp->diagnosticsText();
  if (!b.comp->ok()) return b;
  b.design = b.comp->elaborate(top);
  EXPECT_NE(b.design, nullptr) << b.comp->diagnosticsText();
  return b;
}

/// Compiles + elaborates and expects the given diagnostic code.
inline void expectElabError(const std::string& src, const std::string& top,
                            Diag code) {
  auto comp = Compilation::fromSource("test.zeus", src);
  if (comp->ok()) {
    auto design = comp->elaborate(top);
    EXPECT_EQ(design, nullptr) << "elaboration unexpectedly succeeded";
  }
  EXPECT_TRUE(comp->diags().has(code)) << comp->diagnosticsText();
}

}  // namespace zeus::test
