// bfsim_lint fixture: pointer and reference declarators are not Time.
//
// The replica of a false positive from src/svc/server.cpp: a cursor
// loop over `const char*` bounds named `end` drew a raw-time finding on
// `end - from`, because the included header's `Time end` member made
// every `end` in the file Time-typed and the pointer declaration was
// not recognised as a declaration at all.
#include "pointer_decl.hpp"

#include <cstddef>
#include <string>

std::size_t span_length(const char* from, const char* const end) {
  return static_cast<std::size_t>(end - from);  // pointer arithmetic
}

std::size_t tail(const std::string& text, std::size_t&& end) {
  return text.size() - end;  // a reference to a size
}

Time* advance(Time* end, int by) {
  return end + by;  // a pointer to Time is a pointer
}

Time later(Time now) {
  Time deadline = now;
  return deadline + 60;  // line 27: flagged (a real Time local)
}
