#include "bfsim_lint/checks.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <optional>

namespace bfsim::lint {

const char* check_name(Check check) {
  switch (check) {
    case Check::kRawTimeArithmetic:
      return "raw-time-arithmetic";
    case Check::kNondeterminism:
      return "nondeterminism";
    case Check::kSmallFnCapture:
      return "smallfn-capture";
  }
  return "?";
}

const char* check_hatch_tag(Check check) {
  switch (check) {
    case Check::kRawTimeArithmetic:
      return "unchecked-time";
    case Check::kNondeterminism:
      return "nondeterminism";
    case Check::kSmallFnCapture:
      return "smallfn-capture";
  }
  return "?";
}

std::string Finding::to_string() const {
  return file + ":" + std::to_string(line) + ":" + std::to_string(col) +
         ": error: [" + check_name(check) + "] " + message;
}

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t) {
  return t.kind == TokenKind::kIdentifier && !is_keyword(t.text);
}

// ---------------------------------------------------------------------
// Escape hatches
// ---------------------------------------------------------------------

struct Hatch {
  std::vector<std::string> tags;
  bool justified = false;
};

bool known_tag(const std::string& tag) {
  return tag == "unchecked-time" || tag == "nondeterminism" ||
         tag == "smallfn-capture";
}

/// Parse every `bfsim-lint: tag[, tag...] -- justification` marker.
std::map<int, std::vector<Hatch>> parse_hatches(const LexedFile& file) {
  std::map<int, std::vector<Hatch>> out;
  static const std::string kMarker = "bfsim-lint:";
  for (const auto& [line, text] : file.comments) {
    std::size_t pos = 0;
    while ((pos = text.find(kMarker, pos)) != std::string::npos) {
      pos += kMarker.size();
      Hatch hatch;
      while (pos < text.size()) {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
          ++pos;
        std::string tag;
        while (pos < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[pos])) != 0 ||
                text[pos] == '-') &&
               // A justification delimiter is "--"; a tag never starts
               // with '-'.
               !(tag.empty() && text[pos] == '-')) {
          tag += text[pos];
          ++pos;
        }
        if (tag.empty()) break;
        hatch.tags.push_back(tag);
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
          ++pos;
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        break;
      }
      // Justification: " -- <non-empty text>" after the tag list.
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
      if (pos + 1 < text.size() && text[pos] == '-' && text[pos + 1] == '-') {
        pos += 2;
        std::size_t rest = pos;
        while (rest < text.size() &&
               std::isspace(static_cast<unsigned char>(text[rest])))
          ++rest;
        hatch.justified = rest < text.size();
      }
      if (!hatch.tags.empty()) out[line].push_back(hatch);
    }
  }
  return out;
}

enum class HatchState { kNone, kJustified, kUnjustified };

HatchState hatch_for(const std::map<int, std::vector<Hatch>>& hatches,
                     int line, const std::string& tag) {
  for (int probe : {line, line - 1}) {
    const auto it = hatches.find(probe);
    if (it == hatches.end()) continue;
    for (const Hatch& hatch : it->second)
      for (const std::string& t : hatch.tags)
        if (t == tag)
          return hatch.justified ? HatchState::kJustified
                                 : HatchState::kUnjustified;
  }
  return HatchState::kNone;
}

// ---------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------

/// Index of the opener matching the closer at `i` (`)` or `]`), or npos.
std::size_t match_back(const std::vector<Token>& toks, std::size_t i) {
  const bool paren = toks[i].text == ")";
  const char* open = paren ? "(" : "[";
  const char* close = paren ? ")" : "]";
  int depth = 0;
  for (std::size_t k = i + 1; k-- > 0;) {
    if (is_punct(toks[k], close))
      ++depth;
    else if (is_punct(toks[k], open)) {
      if (--depth == 0) return k;
    }
  }
  return std::string::npos;
}

/// Index of the closer matching the opener at `i`, or toks.size().
std::size_t match_fwd(const std::vector<Token>& toks, std::size_t i) {
  const std::string& open = toks[i].text;
  const char* close = open == "(" ? ")" : (open == "[" ? "]" : "}");
  int depth = 0;
  for (std::size_t k = i; k < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kPunct) continue;
    if (toks[k].text == open)
      ++depth;
    else if (toks[k].text == close) {
      if (--depth == 0) return k;
    }
  }
  return toks.size();
}

bool is_cast_keyword(const std::string& word) {
  return word == "static_cast" || word == "const_cast" ||
         word == "reinterpret_cast" || word == "dynamic_cast";
}

struct Operand {
  bool is_time = false;
  std::string name;  ///< the name the verdict hinged on, for messages
};

/// A call to `name` yields Time only when some declaration says so and
/// no other declaration of the same name returns a different type --
/// without sema an overload-split name is ambiguous, and ambiguity must
/// not flag (a false positive here cannot be fixed at the call site).
bool returns_time(const SymbolTable& scope, const std::string& name) {
  return scope.time_funcs.contains(name) && !scope.other_funcs.contains(name);
}

bool chrono_qualifier(const std::string& name) {
  return name == "chrono" || name == "steady_clock" ||
         name == "system_clock" || name == "high_resolution_clock";
}

/// True if the `::`-qualifier chain ending just before token `i` (the
/// callee / name token) mentions std::chrono machinery -- such calls
/// yield time_points and durations, not sim::Time.
bool chrono_qualified(const std::vector<Token>& toks, std::size_t i) {
  while (i >= 2 && is_punct(toks[i - 1], "::") &&
         toks[i - 2].kind == TokenKind::kIdentifier) {
    if (chrono_qualifier(toks[i - 2].text)) return true;
    i -= 2;
  }
  return false;
}

/// True if `name`, used as a plain identifier at token `at`, is Time:
/// declared so file-wide, or by a block-local declaration in scope at
/// `at`.
bool time_var_at(const SymbolTable& scope, const std::string& name,
                 std::size_t at) {
  if (scope.time_vars.contains(name)) return true;
  const auto it = scope.block_time_vars.find(name);
  return it != scope.block_time_vars.end() &&
         std::any_of(it->second.begin(), it->second.end(),
                     [at](const TokenRange& range) {
                       return range.begin <= at && at < range.end;
                     });
}

/// Resolve the operand ending immediately left of token `i`.
Operand resolve_left(const std::vector<Token>& toks, const SymbolTable& scope,
                     std::size_t i) {
  if (i == 0) return {};
  std::size_t k = i - 1;
  if (is_punct(toks[k], ")")) {
    const std::size_t open = match_back(toks, k);
    if (open == std::string::npos || open == 0) return {};
    const Token& before = toks[open - 1];
    if (before.kind == TokenKind::kIdentifier) {
      if (before.text == "Time") return {true, "Time(...)"};
      if (is_keyword(before.text)) return {};
      if (chrono_qualified(toks, open - 1)) return {};
      return {returns_time(scope, before.text), before.text + "(...)"};
    }
    if (is_punct(before, ">")) {
      // Template-id call: `name<...>(args)`. The verdict keys on the
      // final template argument: `static_cast<Time>(x)` and
      // `std::max<Time>(a, b)` are both Time-valued.
      if (open >= 2 && toks[open - 2].kind == TokenKind::kIdentifier &&
          toks[open - 2].text == "Time")
        return {true, "<Time>(...)"};
    }
    return {};
  }
  if (is_punct(toks[k], "]")) return {};  // element type unknown
  if (is_ident(toks[k])) {
    // A member (`rec.start`) is never one of this file's block locals.
    const bool member =
        k > 0 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->") ||
                  is_punct(toks[k - 1], "::"));
    const std::string& name = toks[k].text;
    return {member ? scope.time_vars.contains(name)
                   : time_var_at(scope, name, k),
            name};
  }
  return {};
}

/// Resolve the operand starting immediately right of token `i`.
Operand resolve_right(const std::vector<Token>& toks, const SymbolTable& scope,
                      std::size_t i) {
  std::size_t j = i + 1;
  // Unary prefixes that preserve Time-ness.
  while (j < toks.size() &&
         (is_punct(toks[j], "+") || is_punct(toks[j], "-")))
    ++j;
  if (j >= toks.size()) return {};
  if (toks[j].kind != TokenKind::kIdentifier) return {};
  if (is_keyword(toks[j].text)) return {};

  std::string name = toks[j].text;
  const std::size_t first = j;
  bool time = false;
  bool cast_time = false;
  bool chrono = chrono_qualifier(name);
  ++j;
  // Qualified-name chain (`sim::saturating_add`, `std::max`).
  while (j + 1 < toks.size() && is_punct(toks[j], "::") &&
         toks[j + 1].kind == TokenKind::kIdentifier) {
    name = toks[j + 1].text;
    chrono = chrono || chrono_qualifier(name);
    j += 2;
  }
  const bool qualified = j != first + 1;
  if (chrono) return {};  // time_point / duration, not sim::Time
  // Explicit template arguments: `static_cast<Time>` / `max<Time>`.
  if (j < toks.size() && is_punct(toks[j], "<") &&
      (is_cast_keyword(name) || scope.time_funcs.contains(name) ||
       name == "max" || name == "min" || name == "exchange")) {
    int depth = 0;
    std::size_t last_ident = 0;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], "<"))
        ++depth;
      else if (is_punct(toks[j], ">")) {
        if (--depth == 0) {
          ++j;
          break;
        }
      } else if (toks[j].kind == TokenKind::kIdentifier) {
        last_ident = j;
      }
    }
    cast_time = last_ident != 0 && toks[last_ident].text == "Time";
  }
  if (j < toks.size() && is_punct(toks[j], "(")) {
    time = cast_time || returns_time(scope, name) || name == "Time";
    j = match_fwd(toks, j) + 1;
  } else {
    time = qualified ? scope.time_vars.contains(name)
                     : time_var_at(scope, name, first);
  }
  // Trailing member chain: `rec.start`, `job->estimate`, `f().value()`.
  while (j + 1 < toks.size() &&
         (is_punct(toks[j], ".") || is_punct(toks[j], "->")) &&
         toks[j + 1].kind == TokenKind::kIdentifier) {
    name = toks[j + 1].text;
    j += 2;
    if (j < toks.size() && is_punct(toks[j], "(")) {
      time = returns_time(scope, name);
      j = match_fwd(toks, j) + 1;
    } else {
      time = scope.time_vars.contains(name);
    }
  }
  return {time, name};
}

// ---------------------------------------------------------------------
// Check 1: raw Time arithmetic
// ---------------------------------------------------------------------

void check_raw_time(const std::string& path, const LexedFile& file,
                    const SymbolTable& scope, std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokenKind::kPunct) continue;
    const bool plain = tok.text == "+" || tok.text == "-";
    const bool compound = tok.text == "+=" || tok.text == "-=";
    if (!plain && !compound) continue;
    // `operator+` declarations are definitions of arithmetic, not uses.
    if (i > 0 && toks[i - 1].kind == TokenKind::kIdentifier &&
        toks[i - 1].text == "operator")
      continue;
    if (plain && (i == 0 || !ends_value(toks[i - 1]))) continue;  // unary

    const Operand left = resolve_left(toks, scope, i);
    // For compound assignment only the left side picks the operator; a
    // checked::Sum += Time is exactly the blessed pattern.
    Operand hit;
    if (left.is_time) {
      hit = left;
    } else if (plain) {
      const Operand right = resolve_right(toks, scope, i);
      if (right.is_time) hit = right;
    }
    if (!hit.is_time) continue;
    const char* fix = (tok.text == "+" || tok.text == "+=")
                          ? "sim::saturating_add"
                          : "sim::saturating_sub";
    out.push_back(
        {Check::kRawTimeArithmetic, path, tok.line, tok.col,
         "raw '" + tok.text + "' on sim::Time operand '" + hit.name +
             "' can wrap; use " + fix +
             " (or sim::checked), or annotate the audited site with "
             "'// bfsim-lint: unchecked-time -- <why>'"});
  }
}

// ---------------------------------------------------------------------
// Check 2: nondeterminism
// ---------------------------------------------------------------------

/// Resolve the range expression of a range-for (`: expr )`): returns a
/// non-empty name iff the ranged entity is a known unordered container.
Operand resolve_range(const std::vector<Token>& toks, const SymbolTable& scope,
                      std::size_t colon, std::size_t close) {
  std::size_t j = colon + 1;
  std::string name;
  bool unordered = false;
  while (j < close) {
    if (toks[j].kind == TokenKind::kIdentifier) {
      name = toks[j].text;
      unordered = scope.unordered_vars.contains(name);
      ++j;
      continue;
    }
    if (is_punct(toks[j], "::") || is_punct(toks[j], ".") ||
        is_punct(toks[j], "->")) {
      ++j;
      continue;
    }
    if (is_punct(toks[j], "(")) {
      // A call result: type unknown (sorted views come from calls).
      return {};
    }
    break;
  }
  if (!unordered) return {};
  return {false, name};
}

bool std_or_global_qualified(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0 || !is_punct(toks[i - 1], "::")) return true;  // unqualified
  if (i == 1) return true;                                  // `::rand`
  const Token& qual = toks[i - 2];
  return qual.kind == TokenKind::kIdentifier &&
         (qual.text == "std" || qual.text == "chrono");
}

void check_nondeterminism(const std::string& path, const LexedFile& file,
                          const SymbolTable& scope,
                          std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  const auto flag = [&](const Token& tok, const std::string& message) {
    out.push_back({Check::kNondeterminism, path, tok.line, tok.col,
                   message +
                       "; derive behavior from the scenario seed / "
                       "deterministic state, or annotate with "
                       "'// bfsim-lint: nondeterminism -- <why>'"});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (tok.kind != TokenKind::kIdentifier) continue;
    // Member access (`rng.rand(...)`) is somebody's deterministic API,
    // not the libc entropy source.
    const bool member_access =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (member_access) continue;
    const bool call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");

    if ((tok.text == "rand" || tok.text == "srand") && call &&
        std_or_global_qualified(toks, i)) {
      flag(tok, "'" + tok.text +
                    "()' draws from global libc state; sweep results must "
                    "be byte-identical across runs and shards");
      continue;
    }
    if (tok.text == "random_device" && std_or_global_qualified(toks, i)) {
      flag(tok, "'std::random_device' is a nondeterministic entropy source");
      continue;
    }
    if ((tok.text == "system_clock" || tok.text == "high_resolution_clock") &&
        std_or_global_qualified(toks, i)) {
      flag(tok, "'std::chrono::" + tok.text +
                    "' reads the wall clock; simulation behavior may only "
                    "depend on sim::Time");
      continue;
    }
    if ((tok.text == "time" || tok.text == "gettimeofday" ||
         tok.text == "clock_gettime" || tok.text == "localtime" ||
         tok.text == "gmtime" || tok.text == "mktime") &&
        call && std_or_global_qualified(toks, i)) {
      // `time(` must be the libc call, not a local named `time` being
      // constructed -- a Time-typed or project-declared name wins.
      if (tok.text == "time" && (time_var_at(scope, "time", i) ||
                                 scope.time_funcs.contains("time")))
        continue;
      flag(tok, "'" + tok.text + "()' reads the wall clock");
      continue;
    }

    // Range-for over an unordered container: iteration order is a
    // function of the hash seed and allocation history.
    if (tok.text == "for" && call) {
      const std::size_t close = match_fwd(toks, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(toks[j], "(") || is_punct(toks[j], "[") ||
            is_punct(toks[j], "{"))
          ++depth;
        else if (is_punct(toks[j], ")") || is_punct(toks[j], "]") ||
                 is_punct(toks[j], "}"))
          --depth;
        else if (depth == 1 && is_punct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        const Operand range = resolve_range(toks, scope, colon, close);
        if (!range.name.empty())
          flag(toks[i], "range-for over unordered container '" + range.name +
                            "' has hash-seed-dependent order; iterate a "
                            "sorted view when results can reach output or "
                            "merge paths");
      }
      continue;
    }

    // Explicit begin()/end() on an unordered container feeding an
    // algorithm has the same order hazard as range-for.
    if (scope.unordered_vars.contains(tok.text) && i + 2 < toks.size() &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        toks[i + 2].kind == TokenKind::kIdentifier) {
      // `it == jobs_.end()` is lookup, not iteration: only a begin()
      // can start an order-dependent traversal.
      const std::string& member = toks[i + 2].text;
      if (member == "begin" || member == "cbegin" || member == "rbegin")
        flag(tok, "iteration over unordered container '" + tok.text +
                      "' has hash-seed-dependent order");
    }
  }
}

// ---------------------------------------------------------------------
// Check 3: SmallFn capture hygiene
// ---------------------------------------------------------------------

void analyze_capture_list(const std::string& path,
                          const std::vector<Token>& toks, std::size_t sink,
                          std::size_t open, std::size_t close,
                          std::vector<Finding>& out);

void check_smallfn(const std::string& path, const LexedFile& file,
                   const SymbolTable& scope, std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !scope.smallfn_sinks.contains(toks[i].text))
      continue;
    if (i + 1 >= toks.size() ||
        !(is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "{")))
      continue;
    // Skip the declaration itself (its group mentions SmallFn).
    const std::size_t close = match_fwd(toks, i + 1);
    bool is_decl = false;
    for (std::size_t j = i + 2; j < close; ++j)
      if (toks[j].kind == TokenKind::kIdentifier && toks[j].text == "SmallFn")
        is_decl = true;
    if (is_decl) continue;

    // Walk top-level arguments; lambdas start with '['.
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "{"))
        ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "}"))
        --depth;
      else if (depth == 1 && is_punct(toks[j], "[") &&
               (j == i + 2 || is_punct(toks[j - 1], ",") ||
                is_punct(toks[j - 1], "(") || is_punct(toks[j - 1], "{"))) {
        const std::size_t cap_close = match_fwd(toks, j);
        analyze_capture_list(path, toks, i, j, cap_close, out);
        j = cap_close;
      }
    }
  }
}

void analyze_capture_list(const std::string& path,
                          const std::vector<Token>& toks, std::size_t sink,
                          std::size_t open, std::size_t close,
                          std::vector<Finding>& out) {
  const auto flag = [&](const Token& at, const std::string& what) {
    out.push_back(
        {Check::kSmallFnCapture, path, at.line, at.col,
         what + " in a lambda handed to SmallFn sink '" + toks[sink].text +
             "'; the engine invokes it after the enclosing frame is gone -- "
             "capture explicitly by value (box shared state behind a "
             "pointer), or annotate with "
             "'// bfsim-lint: smallfn-capture -- <why>'"});
  };
  std::size_t item_start = open + 1;
  int depth = 0;
  for (std::size_t j = open + 1; j <= close; ++j) {
    const bool at_end = j == close;
    if (!at_end) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[") ||
          is_punct(toks[j], "{"))
        ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "]") ||
               is_punct(toks[j], "}"))
        --depth;
    }
    if (!at_end && !(depth == 0 && is_punct(toks[j], ","))) continue;
    // One capture item: [item_start, j).
    if (item_start < j) {
      const Token& first = toks[item_start];
      const std::size_t len = j - item_start;
      if (is_punct(first, "&")) {
        flag(first, len == 1 ? "default by-reference capture '[&]'"
                             : "by-reference capture '&" +
                                   toks[item_start + 1].text + "'");
      } else if (is_punct(first, "=") && len == 1) {
        flag(first,
             "default capture '[=]' (hides what is captured; the 16-byte "
             "trivially-copyable budget wants explicit captures)");
      } else if (is_punct(first, "*") && len >= 2 &&
                 toks[item_start + 1].text == "this") {
        flag(first, "'[*this]' copies the whole object");
      }
    }
    item_start = j + 1;
  }
}

}  // namespace

std::vector<Finding> run_checks(const std::string& path, const LexedFile& file,
                                const SymbolTable& scope,
                                const CheckConfig& config) {
  std::vector<Finding> raw;
  if (config.raw_time) check_raw_time(path, file, scope, raw);
  if (config.nondeterminism) check_nondeterminism(path, file, scope, raw);
  if (config.smallfn) check_smallfn(path, file, scope, raw);

  const std::map<int, std::vector<Hatch>> hatches = parse_hatches(file);
  std::vector<Finding> out;
  // A hatch tag nobody recognizes is a typo that would silently fail to
  // suppress after a rename -- surface it.
  for (const auto& [line, line_hatches] : hatches)
    for (const Hatch& hatch : line_hatches)
      for (const std::string& tag : hatch.tags)
        if (!known_tag(tag))
          out.push_back({Check::kRawTimeArithmetic, path, line, 1,
                         "unknown bfsim-lint escape-hatch tag '" + tag +
                             "' (known: unchecked-time, nondeterminism, "
                             "smallfn-capture)"});
  for (Finding& finding : raw) {
    const std::string tag = check_hatch_tag(finding.check);
    switch (hatch_for(hatches, finding.line, tag)) {
      case HatchState::kJustified:
        break;  // audited site: suppressed
      case HatchState::kUnjustified:
        finding.message = "escape hatch '" + tag +
                          "' lacks a justification; write '// bfsim-lint: " +
                          tag + " -- <why this site is safe>'";
        out.push_back(std::move(finding));
        break;
      case HatchState::kNone:
        out.push_back(std::move(finding));
        break;
    }
  }
  return out;
}

}  // namespace bfsim::lint
