#include "bfsim_lint/driver.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace bfsim::lint {

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("bfsim_lint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Path of `path` relative to `root` with '/' separators, or empty if
/// `path` is not under `root`.
std::string rel_under(const fs::path& root, const fs::path& path) {
  std::error_code ec;
  const fs::path canonical = fs::weakly_canonical(path, ec);
  const fs::path canonical_root = fs::weakly_canonical(root, ec);
  const std::string p = canonical.generic_string();
  const std::string r = canonical_root.generic_string();
  if (p.size() <= r.size() || p.compare(0, r.size(), r) != 0 ||
      p[r.size()] != '/')
    return {};
  return p.substr(r.size() + 1);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool source_like(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

std::vector<std::string> compdb_files(const std::string& json_text) {
  std::vector<std::string> out;
  static const std::string kKey = "\"file\"";
  std::size_t pos = 0;
  while ((pos = json_text.find(kKey, pos)) != std::string::npos) {
    pos += kKey.size();
    while (pos < json_text.size() &&
           (json_text[pos] == ' ' || json_text[pos] == ':' ||
            json_text[pos] == '\t' || json_text[pos] == '\n'))
      ++pos;
    if (pos >= json_text.size() || json_text[pos] != '"') continue;
    ++pos;
    std::string value;
    while (pos < json_text.size() && json_text[pos] != '"') {
      if (json_text[pos] == '\\' && pos + 1 < json_text.size()) ++pos;
      value += json_text[pos];
      ++pos;
    }
    out.push_back(std::move(value));
  }
  return out;
}

Driver::Driver(DriverOptions options) : options_(std::move(options)) {
  if (options_.root.empty()) options_.root = fs::current_path();
}

const Driver::FileEntry& Driver::load(const fs::path& path) {
  const std::string key = fs::weakly_canonical(path).string();
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  FileEntry entry;
  entry.lexed = lex(read_file(path));
  entry.own = collect_symbols(entry.lexed);
  return cache_.emplace(key, std::move(entry)).first->second;
}

fs::path Driver::resolve_include(const fs::path& includer,
                                 const std::string& target) const {
  const std::array<fs::path, 3> candidates = {
      options_.root / "src" / target,
      includer.parent_path() / target,
      options_.root / target,
  };
  for (const fs::path& candidate : candidates) {
    std::error_code ec;
    if (fs::is_regular_file(candidate, ec) &&
        !rel_under(options_.root, candidate).empty())
      return fs::weakly_canonical(candidate);
  }
  return {};
}

void Driver::closure(const fs::path& path, SymbolTable& into,
                     std::vector<std::string>& visiting) {
  const std::string key = fs::weakly_canonical(path).string();
  if (std::find(visiting.begin(), visiting.end(), key) != visiting.end())
    return;
  visiting.push_back(key);
  const FileEntry& entry = load(path);
  into.merge(entry.own);
  for (const std::string& target : entry.lexed.includes) {
    const fs::path resolved = resolve_include(path, target);
    if (!resolved.empty()) closure(resolved, into, visiting);
  }
}

SymbolTable Driver::scope_for(const fs::path& path) {
  SymbolTable scope;
  std::vector<std::string> visiting;
  closure(path, scope, visiting);
  return scope;
}

CheckConfig Driver::config_for(const fs::path& path) const {
  CheckConfig config = options_.checks;
  if (options_.scope == ScopePolicy::kAll) return config;
  const std::string rel = rel_under(options_.root, path);
  // The contract's own implementation is the one place raw Time
  // arithmetic is legal.
  if (rel == "src/sim/time.hpp") config.raw_time = false;
  // The determinism contract covers the simulation core, the sweep
  // merge, and the scheduling service (a resumed daemon must replay
  // its event log into bit-identical state, so service code may not
  // consult wall clocks or unseeded randomness); util/metrics/workload
  // produce no merge-ordered output.
  const bool deterministic_zone = starts_with(rel, "src/core/") ||
                                  starts_with(rel, "src/sim/") ||
                                  starts_with(rel, "src/exp/") ||
                                  starts_with(rel, "src/svc/");
  if (!deterministic_zone) config.nondeterminism = false;
  return config;
}

std::vector<fs::path> Driver::discover() const {
  std::set<std::string> seen;
  std::vector<fs::path> out;
  const auto add = [&](const fs::path& path) {
    const std::string rel = rel_under(options_.root, path);
    if (rel.empty()) return;  // outside the project root
    if (!(starts_with(rel, "src/") || starts_with(rel, "bench/") ||
          starts_with(rel, "examples/")))
      return;
    if (!source_like(path)) return;
    const std::string key = fs::weakly_canonical(path).string();
    if (seen.insert(key).second) out.emplace_back(key);
  };

  if (!options_.compdb.empty()) {
    for (const std::string& file : compdb_files(read_file(options_.compdb)))
      add(file);
    if (out.empty())
      throw std::runtime_error(
          "bfsim_lint: no project translation units found in " +
          options_.compdb.string());
  }
  // Headers are not TUs; sources too when no compdb was given.
  for (const char* dir : {"src", "bench", "examples"}) {
    const fs::path base = options_.root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".h" || options_.compdb.empty()) add(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Finding> Driver::run() {
  std::vector<fs::path> files;
  if (!options_.files.empty()) {
    files.reserve(options_.files.size());
    for (const std::string& file : options_.files) files.emplace_back(file);
  } else {
    files = discover();
  }

  std::vector<Finding> findings;
  files_checked_ = 0;
  for (const fs::path& path : files) {
    const CheckConfig config = config_for(path);
    if (!config.raw_time && !config.nondeterminism && !config.smallfn)
      continue;
    SymbolTable scope = scope_for(path);
    const FileEntry& entry = load(path);
    // A file's own non-Time declarations beat Time symbols leaked into
    // scope from included headers: `std::string out` in this file means
    // its `out += ...` is string building, not time arithmetic.
    for (const std::string& name : entry.own.other_vars)
      if (!entry.own.time_vars.contains(name)) scope.time_vars.erase(name);
    // Block locals are scoped by token position, so only the file's own
    // apply: a header's locals never reach its includers.
    scope.block_time_vars = entry.own.block_time_vars;
    const std::string display =
        options_.files.empty() ? rel_under(options_.root, path)
                               : path.string();
    std::vector<Finding> file_findings = run_checks(
        display.empty() ? path.string() : display, entry.lexed, scope,
        config);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
    ++files_checked_;
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.col < b.col;
            });
  return findings;
}

}  // namespace bfsim::lint
