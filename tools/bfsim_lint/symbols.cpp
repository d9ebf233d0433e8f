#include "bfsim_lint/symbols.hpp"

#include <utility>

namespace bfsim::lint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Skip a balanced template-argument group starting at `<`; returns the
/// index one past the matching `>`. `>>` closes two levels.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "<")
      ++depth;
    else if (toks[i].text == ">") {
      if (--depth == 0) return i + 1;
    } else if (toks[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (toks[i].text == ";") {
      // Not a template group after all (`a < b;`); bail out.
      return i;
    }
  }
  return i;
}

/// True when the `{` at `open` begins a namespace, linkage, class or
/// enum body, whose declarations are visible file-wide; false for a
/// function body, a lambda body or any other block.
bool opens_declaration_scope(const std::vector<Token>& toks,
                             std::size_t open) {
  for (std::size_t k = open; k-- > 0;) {
    const Token& t = toks[k];
    if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") ||
        is_punct(t, ")") || is_punct(t, "="))
      return false;
    if (is_ident(t, "namespace") || is_ident(t, "extern") ||
        is_ident(t, "class") || is_ident(t, "struct") ||
        is_ident(t, "union") || is_ident(t, "enum"))
      return true;
  }
  return false;
}

/// For each `{`, the index of its matching `}` (toks.size() if none).
std::vector<std::size_t> brace_closers(const std::vector<Token>& toks) {
  std::vector<std::size_t> closer(toks.size(), toks.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) {
      open.push_back(i);
    } else if (is_punct(toks[i], "}") && !open.empty()) {
      closer[open.back()] = i;
      open.pop_back();
    }
  }
  return closer;
}

/// True when `t` starts right where `prev` ends, on the same line.
bool attached(const Token& prev, const Token& t) {
  return t.line == prev.line &&
         t.col == prev.col + static_cast<int>(prev.text.size());
}

/// The index of the name a declaration with the type word at `type`
/// declares, past a pointer or reference declarator written against
/// the type (`const char* const end`, `Json& value`, `T&& r`, the
/// project's style). Spaced on both sides (`a * b`) the operator is
/// arithmetic, and `type + 1` is returned. `pointer` reports a `*`.
std::size_t declared_name(const std::vector<Token>& toks, std::size_t type,
                          bool& pointer) {
  pointer = false;
  std::size_t k = type + 1;
  while (k < toks.size() &&
         (is_punct(toks[k], "*") || is_punct(toks[k], "&") ||
          is_punct(toks[k], "&&")) &&
         attached(toks[k - 1], toks[k])) {
    pointer = pointer || toks[k].text == "*";
    ++k;
    while (k < toks.size() &&
           (is_ident(toks[k], "const") || is_ident(toks[k], "volatile")))
      ++k;
  }
  return k;
}

}  // namespace

SymbolTable collect_symbols(const LexedFile& file) {
  SymbolTable out;
  const std::vector<Token>& toks = file.tokens;
  const std::vector<std::size_t> closer = brace_closers(toks);
  // Open braces, innermost last, and whether each opened a block.
  std::vector<std::pair<std::size_t, bool>> braces;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (is_punct(tok, "{")) {
      braces.emplace_back(i, !opens_declaration_scope(toks, i));
      continue;
    }
    if (is_punct(tok, "}") && !braces.empty()) {
      braces.pop_back();
      continue;
    }
    if (tok.kind != TokenKind::kIdentifier) continue;

    // --- Time-typed declarations -----------------------------------
    // A pointer to Time is other-typed (below): arithmetic on it is
    // pointer arithmetic.
    bool pointer = false;
    const std::size_t name_at = declared_name(toks, i, pointer);
    if (tok.text == "Time" && !pointer) {
      // Member access spelled `.Time` / `->Time` is not a type use.
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))
        continue;
      std::size_t j = i + 1;
      if (j < toks.size() && is_punct(toks[j], "&")) ++j;
      if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier ||
          is_keyword(toks[j].text) || toks[j].text == "operator")
        continue;
      std::string name = toks[j].text;
      std::size_t k = j + 1;
      // Qualified definition: `Time Class::method(` -- the declared
      // entity is the last identifier of the chain.
      while (k + 1 < toks.size() && is_punct(toks[k], "::") &&
             toks[k + 1].kind == TokenKind::kIdentifier) {
        name = toks[k + 1].text;
        k += 2;
      }
      if (k >= toks.size()) continue;
      const Token& after = toks[k];
      if (is_punct(after, "("))
        out.time_funcs.insert(name);
      else if (is_punct(after, ";") || is_punct(after, "=") ||
               is_punct(after, ",") || is_punct(after, ")") ||
               is_punct(after, "{") || is_punct(after, "[")) {
        if (!braces.empty() && braces.back().second)
          out.block_time_vars[name].push_back(
              {i, closer[braces.back().first]});
        else
          out.time_vars.insert(name);
      }
      continue;
    }

    // --- other-typed declarations ----------------------------------
    // `Type name` adjacency with a declaration-shaped follower, also
    // through a pointer or reference declarator (`const char* end`,
    // `T& r`). Type keywords (int, double, ...) count; statement
    // keywords (return, case, ...) cannot start a declaration of a
    // value. `Type name(` declares a function returning a non-Time
    // type -- recorded so call-site verdicts can recognize a name as
    // overload-ambiguous.
    {
      static const std::unordered_set<std::string> kTypeKeywords = {
          "int",   "long",  "unsigned", "short", "char",
          "bool",  "float", "double",   "signed"};
      const bool type_like =
          !is_keyword(tok.text) || kTypeKeywords.contains(tok.text);
      if (type_like && name_at + 1 < toks.size() &&
          toks[name_at].kind == TokenKind::kIdentifier &&
          !is_keyword(toks[name_at].text) &&
          toks[name_at].text != "operator" &&
          (i == 0 || !is_punct(toks[i - 1], ".")) &&
          (i == 0 || !is_punct(toks[i - 1], "->"))) {
        std::string name = toks[name_at].text;
        std::size_t k = name_at + 1;
        // Qualified definition: `std::string Cli::get(` declares `get`.
        while (k + 1 < toks.size() && is_punct(toks[k], "::") &&
               toks[k + 1].kind == TokenKind::kIdentifier) {
          name = toks[k + 1].text;
          k += 2;
        }
        if (k < toks.size()) {
          const Token& after = toks[k];
          if (is_punct(after, "("))
            out.other_funcs.insert(name);
          else if (is_punct(after, ";") || is_punct(after, "=") ||
                   is_punct(after, ",") || is_punct(after, ")") ||
                   is_punct(after, "{") || is_punct(after, "["))
            out.other_vars.insert(name);
        }
      }
    }

    // --- type-revealing auto locals --------------------------------
    // Two `auto name = ...` shapes reveal a non-Time type without sema:
    // a std::chrono expression (time_point / duration), and a leading
    // `static_cast<T>` with T != Time. Register such names as
    // other-typed so a same-named Time symbol from a header cannot
    // claim them.
    if (tok.text == "auto" && i + 2 < toks.size() &&
        toks[i + 1].kind == TokenKind::kIdentifier &&
        is_punct(toks[i + 2], "=")) {
      bool other_typed = false;
      if (i + 4 < toks.size() && is_ident(toks[i + 3], "static_cast") &&
          is_punct(toks[i + 4], "<")) {
        std::string last_ident;
        for (std::size_t j = i + 5;
             j < toks.size() && !is_punct(toks[j], ">"); ++j)
          if (toks[j].kind == TokenKind::kIdentifier)
            last_ident = toks[j].text;
        other_typed = !last_ident.empty() && last_ident != "Time";
      }
      for (std::size_t j = i + 3; !other_typed && j < toks.size(); ++j) {
        if (is_punct(toks[j], ";")) break;
        if (toks[j].kind == TokenKind::kIdentifier &&
            (toks[j].text == "chrono" || toks[j].text == "steady_clock" ||
             toks[j].text == "system_clock" ||
             toks[j].text == "high_resolution_clock"))
          other_typed = true;
      }
      if (other_typed) out.other_vars.insert(toks[i + 1].text);
    }

    // --- unordered containers --------------------------------------
    if (tok.text == "unordered_map" || tok.text == "unordered_set" ||
        tok.text == "unordered_multimap" || tok.text == "unordered_multiset") {
      std::size_t j = i + 1;
      if (j >= toks.size() || !is_punct(toks[j], "<")) continue;
      j = skip_angles(toks, j);
      if (j < toks.size() && is_punct(toks[j], "&")) ++j;
      if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier &&
          !is_keyword(toks[j].text))
        out.unordered_vars.insert(toks[j].text);
      continue;
    }

    // --- SmallFn sinks ---------------------------------------------
    // An identifier whose following parenthesized group mentions
    // SmallFn is a declaration of a callback-taking function. Call
    // sites never spell the type, so they cannot self-register.
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
        !is_keyword(tok.text)) {
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "("))
          ++depth;
        else if (is_punct(toks[j], ")")) {
          if (--depth == 0) break;
        } else if (depth == 1 && is_ident(toks[j], "SmallFn")) {
          out.smallfn_sinks.insert(tok.text);
          break;
        }
      }
    }
  }
  // Constructing a SmallFn directly from a lambda is itself a sink.
  out.smallfn_sinks.insert("SmallFn");
  return out;
}

}  // namespace bfsim::lint
