#include "tools/lint/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "tools/lint/concurrency.h"
#include "tools/lint/lexer.h"
#include "tools/lint/suppressions.h"

namespace probcon::lint {
namespace {

namespace fs = std::filesystem;

bool HasLintableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

// The quoted paths of a file's `#include "..."` directives.
std::vector<std::string> QuotedIncludes(const std::string& content) {
  std::vector<std::string> includes;
  for (const Token& token : Lex(content)) {
    if (token.kind != TokenKind::kPpDirective) {
      continue;
    }
    const size_t keyword = token.text.find_first_not_of(" \t");
    if (keyword == std::string::npos || token.text.compare(keyword, 7, "include") != 0) {
      continue;
    }
    const size_t open = token.text.find('"', keyword);
    const size_t close = open == std::string::npos ? open : token.text.find('"', open + 1);
    if (close != std::string::npos) {
      includes.push_back(token.text.substr(open + 1, close - open - 1));
    }
  }
  return includes;
}

}  // namespace

const std::vector<std::string>& DefaultLintDirs() {
  static const std::vector<std::string> kDirs = {"src", "tests", "bench", "examples"};
  return kDirs;
}

std::vector<std::string> CollectFiles(const std::string& root,
                                      const std::vector<std::string>& dirs) {
  std::vector<std::string> files;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) {
      // A single file path is also accepted (useful for `probcon-lint src/foo.cc`).
      if (fs::is_regular_file(base, ec) && HasLintableExtension(base)) {
        files.push_back(dir);
      }
      continue;
    }
    for (fs::recursive_directory_iterator it(base, ec), end; it != end; it.increment(ec)) {
      if (ec) {
        break;
      }
      if (!it->is_regular_file(ec) || !HasLintableExtension(it->path())) {
        continue;
      }
      files.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<SourceFile> ReadTree(const std::string& root, const std::vector<std::string>& dirs,
                                 std::vector<Finding>* io_findings) {
  std::vector<SourceFile> sources;
  for (const std::string& file : CollectFiles(root, dirs)) {
    std::ifstream in(fs::path(root) / file, std::ios::binary);
    if (!in) {
      if (io_findings != nullptr) {
        io_findings->push_back(Finding{"probcon-io", file, 0, 0, file,
                                       "cannot read file; lint coverage is incomplete"});
      }
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.push_back(SourceFile{file, buffer.str()});
  }
  return sources;
}

std::vector<Finding> FindOrphanHeaders(const std::vector<SourceFile>& sources) {
  // Header path -> whether some file other than its own .cc and the tests includes it.
  std::map<std::string, bool> called;
  for (const SourceFile& source : sources) {
    const fs::path path(source.path);
    if (source.path.rfind("src/", 0) == 0 &&
        (path.extension() == ".h" || path.extension() == ".hpp")) {
      called.emplace(source.path, false);
    }
  }
  for (const SourceFile& source : sources) {
    if (source.path.rfind("tests/", 0) == 0) {
      continue;
    }
    const fs::path stem = fs::path(source.path).replace_extension();
    for (const std::string& include : QuotedIncludes(source.content)) {
      const auto header = called.find(include);
      if (header != called.end() && include != source.path &&
          fs::path(include).replace_extension() != stem) {
        header->second = true;
      }
    }
  }
  std::vector<Finding> findings;
  for (const auto& [header, has_caller] : called) {
    if (!has_caller) {
      findings.push_back(Finding{"probcon-orphan-header", header, 1, 1, header,
                                 "no file outside tests/ includes this header except its "
                                 "own .cc: give the module a caller or delete it"});
    }
  }
  return findings;
}

std::vector<Finding> LintTree(const std::string& root, const std::vector<std::string>& dirs,
                              const LintOptions& options) {
  std::vector<Finding> findings;
  const std::vector<SourceFile> sources = ReadTree(root, dirs, &findings);

  // Per-file token rules (R1-R5), with their own suppression handling inside LintSource.
  for (const SourceFile& source : sources) {
    std::vector<Finding> file_findings = LintSource(source.path, source.content, options);
    findings.insert(findings.end(), std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }

  // Tree-level rules: the orphan-header rule (R9) and the concurrency rules (R6-R8, one
  // model over every file), then NOLINT filtering against each finding's own file.
  // Hygiene findings are NOT re-collected here — LintSource already reported them once
  // per file. R9 judges the linted headers against the whole default tree, so linting one
  // subtree does not report headers whose callers lie outside it.
  std::set<std::string> linted;
  for (const SourceFile& source : sources) {
    linted.insert(source.path);
  }
  std::vector<Finding> tree_findings;
  for (Finding& finding : FindOrphanHeaders(ReadTree(root, DefaultLintDirs(), nullptr))) {
    if (linted.count(finding.path) > 0) {
      tree_findings.push_back(std::move(finding));
    }
  }
  if (options.analyze_concurrency) {
    std::vector<Finding> concurrency = AnalyzeConcurrency(BuildModel(sources));
    tree_findings.insert(tree_findings.end(), std::make_move_iterator(concurrency.begin()),
                         std::make_move_iterator(concurrency.end()));
  }
  std::map<std::string, SuppressionSet> suppressions_by_path;
  auto suppressions_for = [&](const std::string& path) -> const SuppressionSet& {
    auto it = suppressions_by_path.find(path);
    if (it != suppressions_by_path.end()) {
      return it->second;
    }
    SuppressionSet set;
    for (const SourceFile& source : sources) {
      if (source.path == path) {
        std::vector<Finding> ignored_hygiene;
        set = ParseSuppressions(path, Lex(source.content), KnownRules(), ignored_hygiene);
        break;
      }
    }
    return suppressions_by_path.emplace(path, std::move(set)).first->second;
  };
  for (Finding& finding : tree_findings) {
    if (!suppressions_for(finding.path).Suppresses(finding.rule, finding.line)) {
      findings.push_back(std::move(finding));
    }
  }

  std::sort(findings.begin(), findings.end());
  return findings;
}

}  // namespace probcon::lint
