// Per-rule firing / non-firing coverage. Snippets live in raw strings, which doubles as a
// live demonstration that banned tokens inside literals never fire when this file itself is
// linted as part of the repo tree.

#include "tools/lint/rules.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tools/lint/driver.h"

namespace probcon::lint {
namespace {

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(std::count_if(findings.begin(), findings.end(),
                                        [&](const Finding& f) { return f.rule == rule; }));
}

// --- R1: determinism ---------------------------------------------------------------------

TEST(DeterminismRule, FiresOnEntropyAndClocks) {
  const auto findings = LintSource("src/foo.cc", R"code(
    #include <ctime>
    void f() {
      std::random_device rd;
      auto t = std::chrono::system_clock::now();
      auto u = time(nullptr);
      srand(42);
      int r = rand();
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-determinism"), 6);
}

TEST(DeterminismRule, CleanSeededCodeDoesNotFire) {
  const auto findings = LintSource("src/foo.cc", R"code(
    #include "src/common/rng.h"
    // rand() and time(nullptr) in a comment must not fire.
    void f() {
      probcon::Rng rng(42);
      const char* msg = "never call rand() or srand() here";
      double x = rng.NextDouble();
      double elapsed_time = timer(now);  // identifiers merely containing banned words
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-determinism"), 0);
}

TEST(DeterminismRule, MemberClockIsNotTheCLibrary) {
  const auto findings = LintSource("src/foo.cc", R"code(
    void f(const Simulator& sim) {
      double now = sim.clock();
      double t = scheduler->clock();
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-determinism"), 0);
}

TEST(DeterminismRule, AllowlistedRngSeamMayUseEntropy) {
  const auto findings = LintSource("src/common/rng.cc", R"code(
    uint64_t EntropySeed() { return std::random_device{}(); }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-determinism"), 0);
}

TEST(DeterminismRule, ServeLayerMayUseSteadyClockOnly) {
  // The scoped monotonic-clock waiver: steady_clock is legal under src/serve/ (deadline
  // watchdog, latency metrics) ...
  const auto serve_clock = LintSource("src/serve/server.cc", R"code(
    void Arm() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(serve_clock, "probcon-determinism"), 0);

  // ... but ONLY steady_clock: ambient entropy and calendar clocks still fire there ...
  const auto serve_entropy = LintSource("src/serve/server.cc", R"code(
    void Bad() {
      std::random_device rd;
      auto wall = std::chrono::system_clock::now();
    }
  )code");
  EXPECT_EQ(CountRule(serve_entropy, "probcon-determinism"), 2);

  // ... and steady_clock outside the scoped paths keeps firing.
  const auto elsewhere = LintSource("src/analysis/reliability.cc", R"code(
    void Bad() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(elsewhere, "probcon-determinism"), 1);
}

TEST(DeterminismRule, ObsSpanFilesCarryMonotonicWaiver) {
  // SpanTimer (src/obs/span.{h,cc}) is the obs layer's one steady_clock consumer; the
  // waiver covers exactly those two files, not the rest of src/obs/.
  const auto span_ok = LintSource("src/obs/span.cc", R"code(
    void T() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(span_ok, "probcon-determinism"), 0);

  const auto other_obs = LintSource("src/obs/metrics.cc", R"code(
    void T() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(other_obs, "probcon-determinism"), 1);
}

TEST(DeterminismRule, ServeBenchFileEntryMatchesExactFile) {
  const auto bench_ok = LintSource("bench/serve_load.cc", R"code(
    void T() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(bench_ok, "probcon-determinism"), 0);

  const auto other_bench = LintSource("bench/sim_validation.cc", R"code(
    void T() { auto now = std::chrono::steady_clock::now(); }
  )code");
  EXPECT_EQ(CountRule(other_bench, "probcon-determinism"), 1);
}

TEST(DeterminismRule, TimeWithVariableArgumentDoesNotFire) {
  const auto findings = LintSource("src/foo.cc", R"code(
    void f(double when) { schedule.time(when); double t2 = advance_time(when); }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-determinism"), 0);
}

// --- R2: unordered iteration -------------------------------------------------------------

TEST(UnorderedIterRule, FiresOnRangedForOverUnorderedMap) {
  const auto findings = LintSource("src/foo.cc", R"code(
    std::unordered_map<int, double> weights_;
    void Export() {
      for (const auto& [node, weight] : weights_) {
        Emit(node, weight);
      }
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-unordered-iter"), 1);
}

TEST(UnorderedIterRule, FiresOnExplicitBeginWalk) {
  const auto findings = LintSource("src/foo.cc", R"code(
    std::unordered_set<uint64_t> pending_;
    void Drain() {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        Handle(*it);
      }
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-unordered-iter"), 1);
}

TEST(UnorderedIterRule, MembershipAndVectorIterationAreClean) {
  const auto findings = LintSource("src/foo.cc", R"code(
    std::unordered_set<uint64_t> cancelled_;
    std::vector<int> order_;
    bool Run() {
      if (cancelled_.count(7) > 0) return false;
      for (const int id : order_) {
        Handle(id);
      }
      return cancelled_.find(9) != cancelled_.end();
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-unordered-iter"), 0);
}

TEST(UnorderedIterRule, ClassicForWithTernaryDoesNotConfuseParser) {
  const auto findings = LintSource("src/foo.cc", R"code(
    std::unordered_map<int, int> m_;
    void f(bool flip) {
      for (int i = flip ? 1 : 0; i < 10; ++i) {
        Touch(i);
      }
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-unordered-iter"), 0);
}

// --- R3: check hygiene + header namespace hygiene ----------------------------------------

TEST(CheckRule, FiresOnRawAssertInSrc) {
  const auto findings = LintSource("src/foo.cc", R"code(
    #include <cassert>
    void f(int n) { assert(n > 0); }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-check"), 2);  // include + call
}

TEST(CheckRule, CheckMacrosAndStaticAssertAreClean) {
  const auto findings = LintSource("src/foo.cc", R"code(
    #include "src/common/check.h"
    void f(int n) {
      CHECK(n > 0) << "bad n";
      DCHECK(n < 100);
      static_assert(sizeof(int) == 4);
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-check"), 0);
}

TEST(CheckRule, AssertOutsideSrcIsNotOurBusiness) {
  const auto findings = LintSource("tests/foo_test.cc", R"code(
    void f(int n) { assert(n > 0); }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-check"), 0);
}

TEST(UsingNamespaceRule, FiresInHeadersOnly) {
  const std::string snippet = R"code(
    using namespace std;
    void f();
  )code";
  EXPECT_EQ(CountRule(LintSource("src/foo.h", snippet), "probcon-using-namespace"), 1);
  EXPECT_EQ(CountRule(LintSource("src/foo.cc", snippet), "probcon-using-namespace"), 0);
}

TEST(UsingNamespaceRule, UsingDeclarationIsClean) {
  const auto findings = LintSource("src/foo.h", R"code(
    using std::vector;
    namespace probcon { void f(); }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-using-namespace"), 0);
}

// --- R4: ownership -----------------------------------------------------------------------

TEST(OwnershipRule, FiresOnNakedNewAndDelete) {
  const auto findings = LintSource("src/foo.cc", R"code(
    void f() {
      int* p = new int(7);
      delete p;
      int* a = new int[4];
      delete[] a;
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-ownership"), 4);
}

TEST(OwnershipRule, DeletedFunctionsAndMakeUniqueAreClean) {
  const auto findings = LintSource("src/foo.cc", R"code(
    struct NoCopy {
      NoCopy(const NoCopy&) = delete;
      NoCopy& operator=(const NoCopy&) = delete;
    };
    void f() {
      auto p = std::make_unique<int>(7);
      std::vector<int> v(4);
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-ownership"), 0);
}

// --- R5: Kahan accumulation --------------------------------------------------------------

TEST(KahanRule, FiresOnScalarDoubleReductionInLoop) {
  const auto findings = LintSource("src/analysis/foo.cc", R"code(
    double Total(const std::vector<double>& xs) {
      double sum = 0.0;
      for (const double x : xs) {
        sum += x;
      }
      return sum;
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-kahan"), 1);
}

TEST(KahanRule, KahanSumAndSubscriptedDpAreClean) {
  const auto findings = LintSource("src/analysis/foo.cc", R"code(
    double Total(const std::vector<double>& xs, std::vector<double>& e) {
      KahanSum sum;
      for (const double x : xs) {
        sum += x;
        e[2] += x * 0.5;  // DP cell update, not a scalar reduction
      }
      return sum.Total();
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-kahan"), 0);
}

TEST(KahanRule, AccumulationOutsideLoopIsClean) {
  const auto findings = LintSource("src/analysis/foo.cc", R"code(
    double f(double a, double b) {
      double acc = a;
      acc += b;  // two-term update, not a loop reduction
      return acc;
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-kahan"), 0);
}

TEST(KahanRule, OnlyAppliesUnderAnalysis) {
  const auto findings = LintSource("src/sim/foo.cc", R"code(
    double Total(const std::vector<double>& xs) {
      double sum = 0.0;
      for (const double x : xs) {
        sum += x;
      }
      return sum;
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-kahan"), 0);
}

TEST(KahanRule, InnerScopeDeclarationAtSameLoopDepthIsClean) {
  const auto findings = LintSource("src/analysis/foo.cc", R"code(
    void f(const std::vector<double>& xs) {
      for (const double x : xs) {
        double mass = x;
        mass += 0.5;  // declared and updated at the same loop depth
        Use(mass);
      }
    }
  )code");
  EXPECT_EQ(CountRule(findings, "probcon-kahan"), 0);
}

// --- R9: orphan headers (tree-level) -----------------------------------------------------

TEST(OrphanHeaderRule, OwnCcAndTestsAreNotCallers) {
  const auto findings = FindOrphanHeaders({
      {"src/a/mod.h", "#pragma once\nint Mod();\n"},
      {"src/a/mod.cc", "#include \"src/a/mod.h\"\nint Mod() { return 1; }\n"},
      {"tests/a/mod_test.cc", "#include \"src/a/mod.h\"\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "probcon-orphan-header");
  EXPECT_EQ(findings[0].path, "src/a/mod.h");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(OrphanHeaderRule, AnyOtherLintedIncluderIsACaller) {
  const auto findings = FindOrphanHeaders({
      {"src/a/mod.h", "int Mod();\n"},
      {"bench/mod_bench.cc", "#include \"src/a/mod.h\"\n"},
      {"src/b/lib.h", "int Lib();\n"},
      {"src/c/user.h", "#include \"src/b/lib.h\"\n"},
      {"examples/demo.cc", "  #  include \"src/c/user.h\"\n"},
  });
  EXPECT_TRUE(findings.empty());
}

TEST(OrphanHeaderRule, OnlyHeadersUnderSrcAndRealDirectivesCount) {
  const auto findings = FindOrphanHeaders({
      {"bench/bench_util.h", "int Util();\n"},  // not under src/: never judged
      {"src/e/z.h", "int Z();\n"},
      {"src/f.cc",
       "// #include \"src/e/z.h\"\n"
       "const char* k = \"#include \\\"src/e/z.h\\\"\";\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/e/z.h");
}

}  // namespace
}  // namespace probcon::lint
