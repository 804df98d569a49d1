// The probcon-lint rules. Each protects a piece of the repo's determinism/safety contract:
//
//   probcon-determinism   (R1) no ambient entropy or wall-clock reads: results are a pure
//                              function of seeds. Banned: rand/srand, std::random_device,
//                              default_random_engine, random_shuffle, system_clock /
//                              steady_clock / high_resolution_clock, time(nullptr)/time(0),
//                              clock(), gettimeofday/clock_gettime/timespec_get, and the
//                              <ctime>/<sys/time.h> includes. Allowlisted seams: the Rng
//                              implementation itself, telemetry generator entry points, and
//                              a scoped steady_clock-only waiver for the serving layer
//                              (deadline watchdog + latency metrics; see
//                              monotonic_clock_allowlist).
//   probcon-unordered-iter (R2) no ranged-for / .begin() iteration over unordered_map /
//                              unordered_set: iteration order is nondeterministic and leaks
//                              into committed results, traces, and JSON exports.
//   probcon-check          (R3) raw assert() in src/ dies under NDEBUG; use the CHECK /
//                              DCHECK family from src/common/check.h.
//   probcon-using-namespace(R3) `using namespace std` in headers pollutes every includer.
//   probcon-ownership      (R4) naked new/delete outside the allowlist; use values,
//                              containers, or unique_ptr/make_unique.
//   probcon-kahan          (R5) scalar `double x; loop { x += ... }` reductions in
//                              src/analysis/ lose low-order mass; accumulate via KahanSum.
//   probcon-nolint              suppression hygiene (reason required, rule must exist).
//
// Tree-level rules (driven from LintTree because they reason about every file at once;
// R6-R8 are implemented in tools/lint/concurrency.h, R9 in tools/lint/driver.h):
//   probcon-lock-order          (R6) lock-order graph cycles = potential deadlocks. error.
//   probcon-blocking-under-lock (R7) blocking operation while holding a lock.
//   probcon-guarded-field       (R8) PROBCON_GUARDED_BY field touched without its mutex.
//   probcon-orphan-header       (R9) a header under src/ that no linted file outside
//                                    tests/ includes, other than its own .cc: a module
//                                    with no caller. Exempt one with a NOLINT on its
//                                    line 1.

#ifndef PROBCON_TOOLS_LINT_RULES_H_
#define PROBCON_TOOLS_LINT_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "tools/lint/finding.h"

namespace probcon::lint {

struct LintOptions {
  // Paths (repo-relative suffix match) where R1 entropy/clock bans do not apply: the seeded
  // RNG seam itself and telemetry synthesis entry points that are documented RNG consumers.
  std::vector<std::string> entropy_allowlist = {
      "src/common/rng.h",
      "src/common/rng.cc",
      "src/telemetry/fleet_generator.h",
      "src/telemetry/fleet_generator.cc",
  };

  // Paths where R4 naked new/delete is tolerated (arena/benchmark internals). Empty today.
  std::vector<std::string> ownership_allowlist;

  // Scoped waiver of the R1 *monotonic* clock ban (`steady_clock` only): the serving layer
  // legitimately owns wall-time policy — request deadlines and latency metrics — and uses
  // the monotonic clock for it. Entries ending in '/' are directory prefixes; other entries
  // match like entropy_allowlist. Ambient entropy and calendar clocks (system_clock,
  // gettimeofday, time(0), ...) stay banned here too: deadlines never influence computed
  // values, only whether a computation is abandoned, so determinism of results survives.
  std::vector<std::string> monotonic_clock_allowlist = {
      "src/serve/",
      "src/wirechaos/",
      "src/obs/span.h",
      "src/obs/span.cc",
      "bench/serve_load.cc",
  };

  // R5 applies below this directory prefix.
  std::string kahan_prefix = "src/analysis/";

  // R3 assert ban applies below this prefix (tests use gtest assertions; benches may do
  // whatever the benchmark harness wants).
  std::string check_prefix = "src/";

  // Run the tree-level concurrency rules R6-R8 (lock-order cycles, blocking under a held
  // lock, guarded-field discipline; see tools/lint/concurrency.h). Off only for tests that
  // pin the per-file rule set.
  bool analyze_concurrency = true;
};

// All valid rule names (for NOLINT validation and --rule filters).
const std::set<std::string>& KnownRules();

// Lints one in-memory source file. `path` must be repo-relative with forward slashes; it
// drives per-directory rule applicability and allowlists. Returned findings are sorted and
// already have inline NOLINT suppressions applied.
std::vector<Finding> LintSource(const std::string& path, const std::string& content,
                                const LintOptions& options = LintOptions());

}  // namespace probcon::lint

#endif  // PROBCON_TOOLS_LINT_RULES_H_
