// End-to-end: materialize the fixture mini-tree (tests/lint/fixtures/*.txt, where "__" in a
// fixture name encodes a path separator and the trailing ".txt" keeps the repo-wide lint
// walk away), run LintTree over it like CI runs over the real tree, and pin down exactly
// which findings appear — and that the baseline absorbs all of them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "tools/lint/baseline.h"
#include "tools/lint/driver.h"
#include "tools/lint/finding.h"
#include "tools/lint/rules.h"

namespace probcon::lint {
namespace {

namespace fs = std::filesystem;

class LintE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs the cases of this fixture concurrently.
    std::string dir = (fs::path(::testing::TempDir()) / "probcon_lint_e2e_XXXXXX").string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr) << dir;
    root_ = dir;
    const fs::path fixtures(PROBCON_LINT_FIXTURE_DIR);
    ASSERT_TRUE(fs::is_directory(fixtures)) << fixtures;
    for (const auto& entry : fs::directory_iterator(fixtures)) {
      if (entry.path().extension() != ".txt") {
        continue;
      }
      // "src__analysis__sum_fire.cc.txt" -> "src/analysis/sum_fire.cc"
      std::string rel = entry.path().stem().string();  // strips ".txt"
      size_t pos = 0;
      while ((pos = rel.find("__", pos)) != std::string::npos) {
        rel.replace(pos, 2, "/");
      }
      const fs::path dest = root_ / rel;
      fs::create_directories(dest.parent_path());
      fs::copy_file(entry.path(), dest);
    }
  }

  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(LintE2eTest, MiniTreeProducesExactlyTheExpectedFindings) {
  const std::vector<Finding> findings = LintTree(root_.string(), {"src"});

  std::map<std::string, std::map<std::string, int>> by_file_rule;
  for (const Finding& finding : findings) {
    ++by_file_rule[finding.path][finding.rule];
  }

  const std::map<std::string, std::map<std::string, int>> expected = {
      {"src/entropy_fire.cc",
       {{"probcon-determinism", 2}}},  // random_device + system_clock
      {"src/iter_fire.cc", {{"probcon-unordered-iter", 1}}},
      {"src/hygiene_fire.h",
       {{"probcon-using-namespace", 1}, {"probcon-check", 1}, {"probcon-ownership", 1}}},
      {"src/analysis/sum_fire.cc", {{"probcon-kahan", 1}}},
      {"src/suppressed_noreason.cc", {{"probcon-nolint", 1}}},
      // src/serve/deadline_ok.cc is absent: steady_clock is waived under src/serve/.
      {"src/serve/entropy_fire.cc",
       {{"probcon-determinism", 2}}},  // random_device + system_clock still fire there
      // Concurrency rules (tree-level pass). Each *_clean sibling is absent: the fixed
      // shapes produce nothing.
      {"src/exec/helpwait_fire.cc", {{"probcon-blocking-under-lock", 1}}},
      {"src/serve/lockorder_fire.cc", {{"probcon-lock-order", 1}}},
      {"src/serve/guarded_fire.cc", {{"probcon-guarded-field", 1}}},
      // R9: only its own .cc includes orphan_fire.h. orphan_clean.h is absent because
      // orphan_fire.cc includes it; the hygiene headers have no includer either and are
      // absent because a suppression with a reason on their line 1 exempts them.
      {"src/orphan_fire.h", {{"probcon-orphan-header", 1}}},
  };
  EXPECT_EQ(by_file_rule, expected);
}

// R9 judges a linted subtree against the whole tree: orphan_clean.h's only caller,
// orphan_fire.cc, lies outside the single file linted here.
TEST_F(LintE2eTest, OrphanRuleJudgesOneFileAgainstTheWholeTree) {
  EXPECT_TRUE(LintTree(root_.string(), {"src/orphan_clean.h"}).empty());
  const std::vector<Finding> fire = LintTree(root_.string(), {"src/orphan_fire.h"});
  ASSERT_EQ(fire.size(), 1u);
  EXPECT_EQ(fire[0].rule, "probcon-orphan-header");
}

TEST_F(LintE2eTest, FindingsAreSortedAndAnchored) {
  const std::vector<Finding> findings = LintTree(root_.string(), {"src"});
  ASSERT_FALSE(findings.empty());
  for (size_t i = 1; i < findings.size(); ++i) {
    EXPECT_FALSE(findings[i] < findings[i - 1]);
  }
  for (const Finding& finding : findings) {
    EXPECT_GT(finding.line, 0) << finding.path;
    EXPECT_GT(finding.col, 0) << finding.path;
    const std::string human = FormatHuman(finding);
    EXPECT_NE(human.find(finding.path + ":"), std::string::npos);
    EXPECT_NE(human.find("[" + finding.rule + "]"), std::string::npos);
  }
}

// The deadlock that shipped in the original ParallelFor completion wait (helping the pool
// while holding the group mutex) must be caught by R7 in its pre-fix shape, and the
// lock-order cycle must surface as an error with its witness edges attached.
TEST_F(LintE2eTest, ConcurrencyFindingsCarrySeverityAndEdges) {
  const std::vector<Finding> findings = LintTree(root_.string(), {"src"});
  bool saw_cycle = false;
  bool saw_blocking = false;
  for (const Finding& finding : findings) {
    if (finding.rule == "probcon-lock-order") {
      saw_cycle = true;
      EXPECT_EQ(finding.severity, "error");
      EXPECT_GE(finding.edges.size(), 2u) << "cycle findings carry their witness edges";
      for (const FindingEdge& edge : finding.edges) {
        EXPECT_FALSE(edge.from.empty());
        EXPECT_FALSE(edge.to.empty());
        EXPECT_GT(edge.line, 0);
      }
    } else if (finding.rule == "probcon-blocking-under-lock") {
      saw_blocking = true;
      EXPECT_EQ(finding.path, "src/exec/helpwait_fire.cc");
      EXPECT_EQ(finding.severity, "warning");
      EXPECT_NE(finding.message.find("TryRunOneTask"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_cycle);
  EXPECT_TRUE(saw_blocking);
}

TEST_F(LintE2eTest, WrittenBaselineAbsorbsEveryFinding) {
  const std::vector<Finding> findings = LintTree(root_.string(), {"src"});
  const Baseline baseline = ParseBaseline(SerializeBaseline(findings));

  std::vector<Finding> fresh;
  std::vector<Finding> baselined;
  ApplyBaseline(baseline, findings, fresh, baselined);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(baselined.size(), findings.size());
}

TEST_F(LintE2eTest, JsonOutputIsWellFormedAndDeterministic) {
  const std::vector<Finding> findings = LintTree(root_.string(), {"src"});
  const std::string json = FormatJson(findings);
  EXPECT_EQ(json, FormatJson(findings));
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(json.find("\"count\": " + std::to_string(findings.size())), std::string::npos);
  for (const Finding& finding : findings) {
    EXPECT_NE(json.find("\"path\": \"" + finding.path + "\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"" + finding.severity + "\""), std::string::npos);
  }
  // The lock-order finding serializes its witness edges.
  EXPECT_NE(json.find("\"edges\": ["), std::string::npos);
}

TEST_F(LintE2eTest, CollectFilesIsSortedAndSkipsNonSources) {
  std::ofstream(root_ / "src" / "notes.md") << "# not a source file\n";
  const std::vector<std::string> files = CollectFiles(root_.string(), {"src"});
  ASSERT_FALSE(files.empty());
  for (size_t i = 1; i < files.size(); ++i) {
    EXPECT_LT(files[i - 1], files[i]);
  }
  for (const std::string& file : files) {
    EXPECT_EQ(file.find("notes.md"), std::string::npos);
  }
  // Missing directories are skipped without error.
  EXPECT_TRUE(CollectFiles(root_.string(), {"no_such_dir"}).empty());
}

}  // namespace
}  // namespace probcon::lint
