// bfsim_lint fixture: a Time local is Time only inside its own block.
//
// The replica of a false positive from bench/perf_simulator.cpp: a
// `Time start` local in one function used to make every `start` in the
// file Time-typed, so `Clock::now() - start` on a `time_point start`
// parameter in another function was flagged as raw time arithmetic.
#include <chrono>

using Time = long long;
using Clock = std::chrono::steady_clock;

Time after_start(int ticks) {
  const Time start = 5;
  if (ticks > 0) {
    return start + ticks;  // line 15: flagged (left operand, nested block)
  }
  return ticks - start;  // line 17: flagged (right operand)
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  Clock::time_point start;
};

double span_seconds(const Span& span) {
  return std::chrono::duration<double>(Clock::now() - span.start).count();
}

int offset(int start) { return start + 1; }
