// pacon-analyze: a dependency-free C++ static analyzer for the determinism
// and coroutine-lifetime rules of this codebase (DESIGN.md section 12).
//
// Why not clang-tidy: the mandatory gate must run everywhere check.sh runs,
// including containers without LLVM. This tool lexes real C++ (comments,
// string/char/raw-string literals, preprocessor lines) and layers a light
// structural pass on top (paren/brace matching, template-argument skipping,
// function-signature and call-argument extraction) -- enough to make the
// rule set immune to the string/comment false positives the retired
// sed/grep lint suffered from, without growing
// a type checker.
//
// Rules are zone-scoped: a file's path classifies it (kernel = src/sim +
// src/core, net = src/net, app = the rest of src/ and tools/, tests, bench)
// and each rule declares the zones it patrols. Findings can be silenced two
// ways:
//   * inline: `// lint-allow: <rule-id>[,<rule-id>] <why>` on the offending
//     line, or alone on the line above it; the id must name the rule
//     exactly (there is no family alias);
//   * the checked-in baseline (scripts/analyze_baseline.txt): accepted
//     pre-existing findings keyed by (rule, file, source-line text) so they
//     survive unrelated line-number churn. See baseline.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/token.h"

namespace pacon::analyze {

/// Path zones; a rule fires only in the zones it declares.
enum class Zone : std::uint8_t { kernel, net, app, tests, bench };

constexpr unsigned zone_bit(Zone z) { return 1u << static_cast<unsigned>(z); }
constexpr unsigned kZoneKernel = zone_bit(Zone::kernel);
constexpr unsigned kZoneNet = zone_bit(Zone::net);
constexpr unsigned kZoneApp = zone_bit(Zone::app);
constexpr unsigned kZoneTests = zone_bit(Zone::tests);
constexpr unsigned kZoneBench = zone_bit(Zone::bench);
constexpr unsigned kZoneAll = kZoneKernel | kZoneNet | kZoneApp | kZoneTests | kZoneBench;

struct RuleInfo {
  std::string_view id;
  std::string_view summary;  // one-line rationale for --list-rules and docs
  unsigned zones;
};

/// The full rule catalog, in reporting order.
const std::vector<RuleInfo>& rule_catalog();

struct Finding {
  std::string rule;
  std::string file;  // root-relative path
  std::uint32_t line = 0;
  std::string message;
  std::string snippet;  // trimmed source line; the baseline key component
};

struct Options {
  /// Repo root; scan roots and reported paths are relative to it.
  std::string root = ".";
  /// Root-relative directories to walk for *.h / *.cpp files.
  std::vector<std::string> scan_roots = {"src", "tests", "bench", "examples", "tools"};
  /// Root-relative prefix -> zone; longest prefix wins, unmatched files are
  /// skipped. The default mirrors the repo layout.
  std::vector<std::pair<std::string, Zone>> zone_dirs = {
      {"src/sim", Zone::kernel}, {"src/core", Zone::kernel}, {"src/net", Zone::net},
      {"src", Zone::app},        {"tools", Zone::app},       {"tests", Zone::tests},
      {"bench", Zone::bench},    {"examples", Zone::bench},
  };
  /// Any file whose path contains one of these substrings is skipped (the
  /// self-test corpus is intentionally full of violations).
  std::vector<std::string> exclude_substrings = {"analyze_fixtures"};
};

class Baseline;

struct Result {
  std::vector<Finding> findings;   // live: neither suppressed nor baselined
  std::vector<Finding> baselined;  // matched a baseline entry
  int suppressed = 0;              // silenced by an inline lint-allow
  std::vector<std::string> stale_baseline;  // baseline entries nothing matched
  int files_scanned = 0;
};

/// Scans the tree under `opts.root` and returns categorized findings.
/// `baseline` may be nullptr (everything unmatched is live).
Result run_analysis(const Options& opts, const Baseline* baseline);

/// Serializes a result as a JSON report (machine-readable twin of the
/// `file:line: rule-id: message` diagnostics).
std::string to_json(const Result& result, const Options& opts);

// ---- Internals shared with the self-tests ---------------------------------

struct SourceFile {
  std::string rel;  // root-relative path, '/'-separated
  Zone zone = Zone::app;
  std::string content;
  LexResult lex;
  std::vector<std::string_view> lines;  // 1-based via line_text()

  std::string_view line_text(std::uint32_t line) const {
    return (line >= 1 && line <= lines.size()) ? lines[line - 1] : std::string_view{};
  }
};

struct Corpus {
  std::vector<SourceFile> files;
  /// Names of functions declared to return (sim::)Task<...>, tree-wide.
  std::vector<std::string> coro_fn_names;
};

/// Runs every applicable rule over one file. Exposed for the fixture-corpus
/// self-test; production callers use run_analysis().
void run_rules(const SourceFile& file, const Corpus& corpus, std::vector<Finding>& out);

}  // namespace pacon::analyze
