// Tree walking + file IO for probcon-lint.

#ifndef PROBCON_TOOLS_LINT_DRIVER_H_
#define PROBCON_TOOLS_LINT_DRIVER_H_

#include <string>
#include <vector>

#include "tools/lint/concurrency.h"
#include "tools/lint/finding.h"
#include "tools/lint/rules.h"

namespace probcon::lint {

// Default directories linted when none are given on the command line.
const std::vector<std::string>& DefaultLintDirs();

// Recursively collects .h/.hpp/.cc/.cpp files under `root`/`dir` for each dir, returning
// repo-relative forward-slash paths in sorted order (deterministic across platforms).
// Nonexistent dirs are skipped (a fixture mini-tree need not have all four).
std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& dirs);

// Reads every collected file into memory. Unreadable files produce a probcon-io finding in
// `io_findings` (when non-null) so CI never silently skips anything.
std::vector<SourceFile> ReadTree(const std::string& root, const std::vector<std::string>& dirs,
                                 std::vector<Finding>* io_findings);

// R9 probcon-orphan-header: every header under src/ must be #included by a file of
// `sources` outside tests/ other than its own .cc. Reports each orphan at its line 1, so
// `// NOLINT(probcon-orphan-header): reason` on that line exempts it. Findings are
// unsorted and unsuppressed; LintTree runs it over the default dirs, keeps the findings on
// linted files, and applies NOLINTs.
std::vector<Finding> FindOrphanHeaders(const std::vector<SourceFile>& sources);

// Lints every collected file. Returns sorted findings; files that cannot be read produce a
// probcon-io finding so CI never silently skips anything.
std::vector<Finding> LintTree(const std::string& root, const std::vector<std::string>& dirs,
                              const LintOptions& options = LintOptions());

}  // namespace probcon::lint

#endif  // PROBCON_TOOLS_LINT_DRIVER_H_
