// bfsim-lint -- declaration-derived symbol table.
//
// The raw-time-arithmetic check needs to know which names denote
// sim::Time values. A full front end would answer that with sema; the
// linter answers it the way a reviewer does: by reading declarations.
// Every `Time name`-shaped declaration (variable, member, parameter,
// constant) registers `name` as Time-typed, every `Time name(`-shaped
// declaration registers a Time-returning function, and the same scan
// over `std::unordered_{map,set}<...> name` feeds the determinism
// check. A file's effective scope is the union of its own declarations
// and those of every project header it transitively includes, so an
// `int start` in an unrelated subsystem cannot demote `JobRecord::
// start` -- and within one scope a name declared Time at file,
// namespace or class level is treated as Time everywhere (flag-leaning:
// a false positive is an annotation, a false negative is a silent
// wrap). A Time local declared inside a function body or other block
// is Time only from its declaration to the end of that block, so a
// `Time start` in one function does not claim a `time_point start`
// parameter of another.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bfsim_lint/lexer.hpp"

namespace bfsim::lint {

/// Token indices [begin, end) of one file's token stream.
struct TokenRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct SymbolTable {
  /// Names declared with type Time at file, namespace or class level
  /// (variables, members, parameters).
  std::unordered_set<std::string> time_vars;
  /// Names declared with type Time inside a block, each with the token
  /// ranges where such a declaration is in scope. The ranges index the
  /// declaring file's tokens, so merge() does not carry them over.
  std::unordered_map<std::string, std::vector<TokenRange>> block_time_vars;
  /// Names declared with some other `Type name`-shaped type. A file's
  /// own other-typed declarations demote same-named Time symbols leaked
  /// into scope by included headers (`std::string out` in a report
  /// writer vs. a `Time out` local in somebody's inline function).
  std::unordered_set<std::string> other_vars;
  /// Function names declared to return Time.
  std::unordered_set<std::string> time_funcs;
  /// Function names declared to return some other type. A name in both
  /// sets (an overload set split across classes, like a Time-returning
  /// `get` on one type and a string-returning `get` on another) is
  /// ambiguous without sema, so call sites of such names are not
  /// flagged.
  std::unordered_set<std::string> other_funcs;
  /// Names declared as std::unordered_map / std::unordered_set.
  std::unordered_set<std::string> unordered_vars;
  /// Functions with a SmallFn-typed parameter (callback sinks).
  std::unordered_set<std::string> smallfn_sinks;

  void merge(const SymbolTable& other) {
    time_vars.insert(other.time_vars.begin(), other.time_vars.end());
    other_vars.insert(other.other_vars.begin(), other.other_vars.end());
    time_funcs.insert(other.time_funcs.begin(), other.time_funcs.end());
    other_funcs.insert(other.other_funcs.begin(), other.other_funcs.end());
    unordered_vars.insert(other.unordered_vars.begin(),
                          other.unordered_vars.end());
    smallfn_sinks.insert(other.smallfn_sinks.begin(),
                         other.smallfn_sinks.end());
  }
};

/// Scan one lexed file for contract-relevant declarations.
[[nodiscard]] SymbolTable collect_symbols(const LexedFile& file);

}  // namespace bfsim::lint
