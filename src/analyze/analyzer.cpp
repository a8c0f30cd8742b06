#include "analyze/analyzer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <tuple>

#include "analyze/baseline.h"
#include "analyze/structure.h"

namespace pacon::analyze {

namespace fs = std::filesystem;

namespace {

bool wanted_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".hpp" || ext == ".cc";
}

bool excluded(const std::string& rel, const Options& opts) {
  return std::any_of(opts.exclude_substrings.begin(), opts.exclude_substrings.end(),
                     [&](const std::string& s) { return rel.find(s) != std::string::npos; });
}

/// Longest-prefix zone classification; nullopt = file out of scope.
std::optional<Zone> classify(const std::string& rel, const Options& opts) {
  std::size_t best_len = 0;
  std::optional<Zone> best;
  for (const auto& [prefix, zone] : opts.zone_dirs) {
    if (rel.size() < prefix.size()) continue;
    if (rel.compare(0, prefix.size(), prefix) != 0) continue;
    if (rel.size() > prefix.size() && rel[prefix.size()] != '/') continue;
    if (prefix.size() >= best_len) {
      best_len = prefix.size();
      best = zone;
    }
  }
  return best;
}

std::vector<std::string_view> split_lines(std::string_view content) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin <= content.size()) {
    const std::size_t nl = content.find('\n', begin);
    if (nl == std::string_view::npos) {
      lines.push_back(content.substr(begin));
      break;
    }
    lines.push_back(content.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return lines;
}

void json_escape(std::ostringstream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

void json_findings(std::ostringstream& out, const std::vector<Finding>& findings) {
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"rule\": \"" << f.rule << "\", \"file\": \"";
    json_escape(out, f.file);
    out << "\", \"line\": " << f.line << ", \"message\": \"";
    json_escape(out, f.message);
    out << "\", \"snippet\": \"";
    json_escape(out, f.snippet);
    out << "\"}";
  }
  out << (findings.empty() ? "]" : "\n  ]");
}

}  // namespace

Result run_analysis(const Options& opts, const Baseline* baseline) {
  Result result;
  Corpus corpus;

  // Deterministic file order: collect, sort by relative path, then load.
  std::vector<std::string> rels;
  const fs::path root(opts.root);
  for (const std::string& scan : opts.scan_roots) {
    const fs::path dir = root / scan;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      // A single file argument is also accepted.
      if (fs::is_regular_file(dir, ec) && wanted_extension(dir)) rels.push_back(scan);
      continue;
    }
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file(ec) || !wanted_extension(it->path())) continue;
      rels.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

  for (const std::string& rel : rels) {
    if (excluded(rel, opts)) continue;
    const auto zone = classify(rel, opts);
    if (!zone) continue;
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) continue;
    SourceFile file;
    file.rel = rel;
    file.zone = *zone;
    std::ostringstream buf;
    buf << in.rdbuf();
    file.content = std::move(buf).str();
    file.lex = lex(file.content);
    file.lines = split_lines(file.content);
    corpus.files.push_back(std::move(file));
  }
  result.files_scanned = static_cast<int>(corpus.files.size());

  // Tree-wide facts first: the set of coroutine function names, so call-site
  // rules in one file see signatures declared in another.
  for (const SourceFile& f : corpus.files) {
    for (const auto& sig : structure::collect_coro_sigs(f.lex.tokens)) {
      corpus.coro_fn_names.emplace_back(sig.name);
    }
  }
  std::sort(corpus.coro_fn_names.begin(), corpus.coro_fn_names.end());
  corpus.coro_fn_names.erase(
      std::unique(corpus.coro_fn_names.begin(), corpus.coro_fn_names.end()),
      corpus.coro_fn_names.end());

  std::vector<Finding> raw;
  for (const SourceFile& f : corpus.files) {
    std::vector<Finding> file_findings;
    run_rules(f, corpus, file_findings);
    // Inline suppressions.
    for (Finding& finding : file_findings) {
      const bool suppressed = std::any_of(
          f.lex.allows.begin(), f.lex.allows.end(), [&](const AllowDirective& a) {
            return a.target_line == finding.line &&
                   std::find(a.rules.begin(), a.rules.end(), finding.rule) != a.rules.end();
          });
      if (suppressed) {
        ++result.suppressed;
      } else {
        raw.push_back(std::move(finding));
      }
    }
  }

  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });

  if (baseline) {
    Baseline working = *baseline;
    for (Finding& f : raw) {
      if (working.consume(f)) {
        result.baselined.push_back(std::move(f));
      } else {
        result.findings.push_back(std::move(f));
      }
    }
    result.stale_baseline = working.remaining();
  } else {
    result.findings = std::move(raw);
  }
  return result;
}

std::string to_json(const Result& result, const Options& opts) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"pacon-analyze\",\n  \"root\": \"";
  json_escape(out, opts.root);
  out << "\",\n  \"files_scanned\": " << result.files_scanned;
  out << ",\n  \"suppressed\": " << result.suppressed;
  out << ",\n  \"baselined\": " << result.baselined.size();
  out << ",\n  \"stale_baseline\": " << result.stale_baseline.size();
  out << ",\n  \"findings\": ";
  json_findings(out, result.findings);
  out << "\n}\n";
  return out.str();
}

}  // namespace pacon::analyze
