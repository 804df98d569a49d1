#include "tools/lint/rules.h"

#include <algorithm>
#include <map>

#include "tools/lint/lexer.h"
#include "tools/lint/suppressions.h"
#include "tools/lint/token.h"

namespace probcon::lint {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool PathInList(const std::string& path, const std::vector<std::string>& entries) {
  for (const std::string& entry : entries) {
    if (path == entry || EndsWith(path, "/" + entry)) {
      return true;
    }
  }
  return false;
}

// Like PathInList, but entries ending in '/' match as directory prefixes.
bool PathInScopedList(const std::string& path, const std::vector<std::string>& entries) {
  for (const std::string& entry : entries) {
    if (!entry.empty() && entry.back() == '/') {
      if (StartsWith(path, entry)) {
        return true;
      }
    } else if (path == entry || EndsWith(path, "/" + entry)) {
      return true;
    }
  }
  return false;
}

bool IsHeader(const std::string& path) { return EndsWith(path, ".h") || EndsWith(path, ".hpp"); }

// Identifiers banned outright by R1, with the reasons shown to the user.
const std::map<std::string, std::string>& BannedEntropyIdents() {
  static const std::map<std::string, std::string> kBanned = {
      {"random_device", "ambient entropy; seed a probcon::Rng instead (src/common/rng.h)"},
      {"default_random_engine", "implementation-defined engine; use probcon::Rng"},
      {"random_shuffle", "implementation-defined shuffle; use Rng::Shuffle"},
      {"srand", "global C RNG; use a seeded probcon::Rng"},
      {"system_clock", "wall clock; sim time comes from the Simulator, never the host"},
      {"steady_clock", "host clock; results must be a pure function of seeds"},
      {"high_resolution_clock", "host clock; results must be a pure function of seeds"},
      {"gettimeofday", "wall clock; results must be a pure function of seeds"},
      {"clock_gettime", "wall clock; results must be a pure function of seeds"},
      {"timespec_get", "wall clock; results must be a pure function of seeds"},
  };
  return kBanned;
}

// Include directives banned by R1 ("include <ctime>" etc. after '#' stripping).
const std::vector<std::string>& BannedIncludes() {
  static const std::vector<std::string> kBanned = {"<ctime>", "<time.h>", "<sys/time.h>"};
  return kBanned;
}

class RuleRunner {
 public:
  RuleRunner(const std::string& path, const std::vector<Token>& tokens,
             const LintOptions& options)
      : path_(path), options_(options) {
    for (const Token& token : tokens) {
      if (token.kind != TokenKind::kComment && token.kind != TokenKind::kPpDirective) {
        code_.push_back(&token);
      }
      if (token.kind == TokenKind::kPpDirective) {
        directives_.push_back(&token);
      }
    }
  }

  std::vector<Finding> Run() {
    if (!PathInList(path_, options_.entropy_allowlist)) {
      allow_steady_clock_ = PathInScopedList(path_, options_.monotonic_clock_allowlist);
      CheckDeterminism();
    }
    CheckUnorderedIteration();
    if (StartsWith(path_, options_.check_prefix)) {
      CheckAssertHygiene();
    }
    if (IsHeader(path_)) {
      CheckUsingNamespace();
    }
    if (!PathInList(path_, options_.ownership_allowlist)) {
      CheckOwnership();
    }
    if (StartsWith(path_, options_.kahan_prefix)) {
      CheckKahan();
    }
    return std::move(findings_);
  }

 private:
  const Token* At(size_t i) const { return i < code_.size() ? code_[i] : nullptr; }

  void Report(const std::string& rule, const Token& token, const std::string& message) {
    findings_.push_back(Finding{rule, path_, token.line, token.col, token.text, message});
  }

  // R1: no ambient entropy, no host clocks.
  void CheckDeterminism() {
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.kind != TokenKind::kIdentifier) {
        continue;
      }
      const auto banned = BannedEntropyIdents().find(tok.text);
      if (banned != BannedEntropyIdents().end()) {
        if (tok.text == "steady_clock" && allow_steady_clock_) {
          continue;  // Scoped waiver: serving-layer deadline/latency clocks.
        }
        Report("probcon-determinism", tok, "'" + tok.text + "': " + banned->second);
        continue;
      }
      const Token* next = At(i + 1);
      if (next == nullptr || !next->IsPunct("(")) {
        continue;
      }
      // rand/time/clock are only banned as free functions; a member spelled `.clock()` is
      // somebody's API, not the C library.
      const Token* prev = i > 0 ? code_[i - 1] : nullptr;
      if (prev != nullptr && (prev->IsPunct(".") || prev->IsPunct("->"))) {
        continue;
      }
      if (tok.text == "rand") {
        Report("probcon-determinism", tok, "'rand()': global C RNG; use a seeded probcon::Rng");
      } else if (tok.text == "time") {
        const Token* arg = At(i + 2);
        if (arg != nullptr &&
            (arg->IsIdent("nullptr") || arg->IsIdent("NULL") ||
             (arg->kind == TokenKind::kNumber && arg->text == "0"))) {
          Report("probcon-determinism", tok,
                 "'time(" + arg->text + ")': wall clock; results must be a pure function of seeds");
        }
      } else if (tok.text == "clock") {
        const Token* close = At(i + 2);
        if (close != nullptr && close->IsPunct(")")) {
          Report("probcon-determinism", tok, "'clock()': host CPU clock; use simulator time");
        }
      }
    }
    for (const Token* directive : directives_) {
      for (const std::string& include : BannedIncludes()) {
        if (directive->text.find("include") != std::string::npos &&
            directive->text.find(include) != std::string::npos) {
          Report("probcon-determinism", *directive,
                 "#include " + include + ": wall-clock API surface; keep host time out of "
                 "deterministic code");
        }
      }
    }
  }

  // R2: iteration over unordered containers is nondeterministically ordered.
  //
  // Heuristic, file-local type tracking: every name declared right after an
  // `unordered_{map,set,multimap,multiset}<...>` spelling (variables, members, parameters,
  // and functions returning one) is treated as unordered; ranged-for ranges and .begin()
  // chains mentioning such a name fire. Sort keys first (vector of pairs, std::map) or
  // suppress with a reason if the order provably cannot reach committed results.
  void CheckUnorderedIteration() {
    const std::set<std::string> unordered_names = CollectUnorderedNames();
    if (unordered_names.empty()) {
      return;
    }

    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.kind != TokenKind::kIdentifier) {
        continue;
      }
      if (tok.text == "for" && At(i + 1) != nullptr && At(i + 1)->IsPunct("(")) {
        CheckRangedFor(i, unordered_names);
        continue;
      }
      if (unordered_names.count(tok.text) == 0) {
        continue;
      }
      const Token* dot = At(i + 1);
      const Token* member = At(i + 2);
      if (dot != nullptr && member != nullptr && (dot->IsPunct(".") || dot->IsPunct("->")) &&
          (member->IsIdent("begin") || member->IsIdent("cbegin") || member->IsIdent("rbegin"))) {
        Report("probcon-unordered-iter", tok,
               "iterator walk over unordered container '" + tok.text +
                   "': iteration order is nondeterministic; sort keys first");
      }
    }
  }

  std::set<std::string> CollectUnorderedNames() {
    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    std::set<std::string> names;
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.kind != TokenKind::kIdentifier || kUnorderedTypes.count(tok.text) == 0) {
        continue;
      }
      size_t j = i + 1;
      if (At(j) == nullptr || !At(j)->IsPunct("<")) {
        continue;
      }
      int depth = 0;
      for (; j < code_.size(); ++j) {
        if (code_[j]->IsPunct("<")) {
          ++depth;
        } else if (code_[j]->IsPunct(">")) {
          if (--depth == 0) {
            ++j;
            break;
          }
        }
      }
      // Skip cv/ref/pointer decoration between the type and the declared name.
      while (At(j) != nullptr &&
             (At(j)->IsPunct("&") || At(j)->IsPunct("*") || At(j)->IsPunct("&&") ||
              At(j)->IsIdent("const"))) {
        ++j;
      }
      const Token* name = At(j);
      if (name != nullptr && name->kind == TokenKind::kIdentifier) {
        names.insert(name->text);
      }
    }
    return names;
  }

  // Fires when the range expression of `for (decl : range)` mentions an unordered name.
  void CheckRangedFor(size_t for_index, const std::set<std::string>& unordered_names) {
    size_t i = for_index + 1;  // '('
    int depth = 0;
    bool pending_ternary = false;
    size_t colon = 0;
    for (; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.IsPunct("(") || tok.IsPunct("{") || tok.IsPunct("[")) {
        ++depth;
      } else if (tok.IsPunct(")") || tok.IsPunct("}") || tok.IsPunct("]")) {
        if (--depth == 0) {
          return;  // classic for, or no colon found
        }
      } else if (depth == 1 && tok.IsPunct(";")) {
        // A ';' at top level before the ':' means either a classic for loop or a
        // range-for init-statement; in both cases keep scanning for a real ':'.
        continue;
      } else if (depth == 1 && tok.IsPunct("?")) {
        pending_ternary = true;
      } else if (depth == 1 && tok.IsPunct(":")) {
        if (pending_ternary) {
          pending_ternary = false;
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == 0) {
      return;
    }
    for (i = colon + 1; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.IsPunct("(") || tok.IsPunct("{") || tok.IsPunct("[")) {
        ++depth;
      } else if (tok.IsPunct(")") || tok.IsPunct("}") || tok.IsPunct("]")) {
        if (--depth == 0) {
          break;
        }
      } else if (tok.kind == TokenKind::kIdentifier && unordered_names.count(tok.text) > 0) {
        Report("probcon-unordered-iter", *code_[for_index],
               "ranged-for over unordered container '" + tok.text +
                   "': iteration order is nondeterministic; sort keys first");
        return;
      }
    }
  }

  // R3a: assert() compiles away under NDEBUG; production invariants must not.
  void CheckAssertHygiene() {
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      if (tok.IsIdent("assert") && At(i + 1) != nullptr && At(i + 1)->IsPunct("(")) {
        Report("probcon-check", tok,
               "raw assert() vanishes under NDEBUG; use CHECK/DCHECK from src/common/check.h");
      }
    }
    for (const Token* directive : directives_) {
      if (directive->text.find("include") == std::string::npos) {
        continue;
      }
      if (directive->text.find("<cassert>") != std::string::npos ||
          directive->text.find("<assert.h>") != std::string::npos) {
        Report("probcon-check", *directive,
               "#include <cassert>: use CHECK/DCHECK from src/common/check.h instead");
      }
    }
  }

  // R3b: headers must not inject namespaces into every includer.
  void CheckUsingNamespace() {
    for (size_t i = 0; i + 2 < code_.size(); ++i) {
      if (code_[i]->IsIdent("using") && code_[i + 1]->IsIdent("namespace") &&
          code_[i + 2]->IsIdent("std")) {
        Report("probcon-using-namespace", *code_[i],
               "'using namespace std' in a header leaks into every includer");
      }
    }
  }

  // R4: naked new/delete. Values, containers, and unique_ptr own everything here.
  void CheckOwnership() {
    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];
      const Token* prev = i > 0 ? code_[i - 1] : nullptr;
      if (tok.IsIdent("new")) {
        if (prev != nullptr && prev->IsIdent("operator")) {
          continue;  // operator new overload declaration
        }
        Report("probcon-ownership", tok,
               "naked 'new'; use std::make_unique / containers for ownership");
      } else if (tok.IsIdent("delete")) {
        if (prev != nullptr && (prev->IsPunct("=") || prev->IsIdent("operator"))) {
          continue;  // `= delete` or operator delete
        }
        Report("probcon-ownership", tok,
               "naked 'delete'; let unique_ptr / containers release storage");
      }
    }
  }

  // R5: scalar double reductions inside loops in src/analysis/ must go through KahanSum —
  // naive accumulation loses exactly the low-order probability mass that sets the nines.
  // Tracks `double name` declarations per scope; `name += ...` in a deeper loop fires.
  // DP-style updates into subscripted cells (e[k] += ...) are not scalar reductions and are
  // ignored, as is accumulation at the declaration's own loop depth.
  void CheckKahan() {
    struct DoubleDecl {
      size_t brace_level;
      int loop_depth;
    };
    std::map<std::string, DoubleDecl> doubles;

    // Brace stack entries: true when the block is a loop body.
    std::vector<bool> blocks;
    int loop_depth = 0;
    // Loops whose body had no braces: each entry closes at the next ';' at paren depth 0.
    int braceless_loops = 0;
    bool pending_loop_block = false;  // set after for(...)/while(...)/do, before its body
    int paren_depth = 0;

    for (size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = *code_[i];

      if (tok.IsIdent("for") || tok.IsIdent("while")) {
        // Skip the control parens, then decide braced vs braceless body.
        size_t j = i + 1;
        if (At(j) == nullptr || !At(j)->IsPunct("(")) {
          continue;
        }
        int depth = 0;
        for (; j < code_.size(); ++j) {
          if (code_[j]->IsPunct("(")) {
            ++depth;
          } else if (code_[j]->IsPunct(")")) {
            if (--depth == 0) {
              ++j;
              break;
            }
          }
        }
        const Token* body = At(j);
        if (body == nullptr || body->IsPunct(";")) {
          i = j > 0 ? j - 1 : i;  // `while (...);` tail of do-while: no body
          continue;
        }
        if (body->IsPunct("{")) {
          pending_loop_block = true;
        } else {
          ++loop_depth;
          ++braceless_loops;
        }
        i = j - 1;
        continue;
      }
      if (tok.IsIdent("do")) {
        if (At(i + 1) != nullptr && At(i + 1)->IsPunct("{")) {
          pending_loop_block = true;
        }
        continue;
      }

      if (tok.IsPunct("(")) {
        ++paren_depth;
      } else if (tok.IsPunct(")")) {
        --paren_depth;
      } else if (tok.IsPunct("{")) {
        blocks.push_back(pending_loop_block);
        if (pending_loop_block) {
          ++loop_depth;
        }
        pending_loop_block = false;
      } else if (tok.IsPunct("}")) {
        if (!blocks.empty()) {
          if (blocks.back()) {
            --loop_depth;
          }
          blocks.pop_back();
        }
        for (auto it = doubles.begin(); it != doubles.end();) {
          it = it->second.brace_level > blocks.size() ? doubles.erase(it) : std::next(it);
        }
      } else if (tok.IsPunct(";") && paren_depth == 0 && braceless_loops > 0) {
        loop_depth -= braceless_loops;
        braceless_loops = 0;
      }

      if (tok.IsIdent("double")) {
        const Token* name = At(i + 1);
        const Token* after = At(i + 2);
        if (name != nullptr && name->kind == TokenKind::kIdentifier && after != nullptr &&
            (after->IsPunct("=") || after->IsPunct(";") || after->IsPunct(",") ||
             after->IsPunct(")") || after->IsPunct("{"))) {
          doubles[name->text] = DoubleDecl{blocks.size(), loop_depth};
        }
        continue;
      }

      if (tok.kind == TokenKind::kIdentifier && At(i + 1) != nullptr &&
          At(i + 1)->IsPunct("+=")) {
        const Token* prev = i > 0 ? code_[i - 1] : nullptr;
        if (prev != nullptr && (prev->IsPunct(".") || prev->IsPunct("->") || prev->IsPunct("::"))) {
          continue;  // member of some other object; type unknown
        }
        const auto decl = doubles.find(tok.text);
        if (decl != doubles.end() && loop_depth > decl->second.loop_depth) {
          Report("probcon-kahan", tok,
                 "raw double reduction '" + tok.text +
                     " += ...' in a loop; accumulate via KahanSum (src/prob/kahan.h) so "
                     "low-order mass survives");
        }
      }
    }
  }

  const std::string path_;
  const LintOptions& options_;
  bool allow_steady_clock_ = false;
  std::vector<const Token*> code_;
  std::vector<const Token*> directives_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "probcon-determinism", "probcon-unordered-iter", "probcon-check",
      "probcon-using-namespace", "probcon-ownership", "probcon-kahan", "probcon-nolint",
      "probcon-lock-order", "probcon-blocking-under-lock", "probcon-guarded-field",
      "probcon-orphan-header",
  };
  return kRules;
}

std::vector<Finding> LintSource(const std::string& path, const std::string& content,
                                const LintOptions& options) {
  const std::vector<Token> tokens = Lex(content);
  RuleRunner runner(path, tokens, options);
  std::vector<Finding> findings = runner.Run();

  std::vector<Finding> hygiene;
  const SuppressionSet suppressions = ParseSuppressions(path, tokens, KnownRules(), hygiene);
  std::vector<Finding> kept;
  kept.reserve(findings.size() + hygiene.size());
  for (Finding& finding : findings) {
    if (!suppressions.Suppresses(finding.rule, finding.line)) {
      kept.push_back(std::move(finding));
    }
  }
  for (Finding& finding : hygiene) {
    kept.push_back(std::move(finding));
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace probcon::lint
