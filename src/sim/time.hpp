// bfsim -- simulation time base.
//
// Overflow contract: simulation timestamps are non-negative and bounded
// by kTimeMax; durations (runtimes, estimates, delays) are non-negative.
// Any sum or difference of Time values outside this header must go
// through saturating_add / saturating_sub (or the sim::checked helpers
// below): the result clamps at kTimeMax instead of wrapping, so a
// hostile input (e.g. an SWF record carrying a runtime near INT64_MAX)
// degrades to "the far future" rather than signed-overflow UB. kTimeMax
// itself acts as +infinity -- the availability profile's final segment
// extends to it, so a saturated window end means "covered by the fully-
// free tail", which is exactly the semantics an unbounded window should
// have.
//
// The contract is machine-checked: tools/bfsim_lint flags every raw
// `+`/`-`/`+=`/`-=` whose operand is Time-typed outside this file.
// Audited sites that must stay raw carry a
// `// bfsim-lint: unchecked-time -- <why>` annotation.
#pragma once

#include <cstdint>
#include <limits>

namespace bfsim::sim {

/// Simulation time in whole seconds since trace start. Signed so that
/// differences and "not yet" sentinels are representable.
using Time = std::int64_t;

inline constexpr Time kNoTime = -1;

/// The far future; the saturation point of saturating_add.
inline constexpr Time kTimeMax = std::numeric_limits<Time>::max();

inline constexpr Time kSecond = 1;
inline constexpr Time kMinute = 60;
inline constexpr Time kHour = 3600;
inline constexpr Time kDay = 86400;
inline constexpr Time kWeek = 7 * kDay;

/// lhs + rhs clamped into [numeric_limits<Time>::min(), kTimeMax]
/// instead of wrapping. Compiles to an add plus a conditional move on
/// overflow, so it is free to use on hot paths (MultiProfile::anchor_from,
/// the engine's timer arithmetic) where either operand may be
/// attacker-sized.
[[nodiscard]] constexpr Time saturating_add(Time lhs, Time rhs) {
  Time clamped = 0;
  if (__builtin_add_overflow(lhs, rhs, &clamped))
    return rhs > 0 ? kTimeMax : std::numeric_limits<Time>::min();
  return clamped;
}

/// lhs - rhs clamped into [numeric_limits<Time>::min(), kTimeMax]
/// instead of wrapping. The mirror of saturating_add for differences:
/// wait times, remaining-runtime computations, and window widths where
/// either operand may be attacker-sized (kTimeMax-anchored reservations
/// minus an arbitrary submit time, for instance).
[[nodiscard]] constexpr Time saturating_sub(Time lhs, Time rhs) {
  Time clamped = 0;
  if (__builtin_sub_overflow(lhs, rhs, &clamped))
    return rhs < 0 ? kTimeMax : std::numeric_limits<Time>::min();
  return clamped;
}

/// Strong-typed saturating arithmetic over Time. Multi-term expressions
/// written as nested saturating_add/saturating_sub calls read inside
/// out; the checked helpers keep them left-to-right:
///
///   sim::checked::add(start, estimate, grace)     // fold of sat adds
///   sim::checked::Sum acc{now}; acc += est; acc -= used;
///
/// Every operation clamps, so a chain that saturates stays pinned at
/// kTimeMax instead of re-entering the representable range, and
/// tools/bfsim_lint recognizes these forms as satisfying the overflow
/// contract.
namespace checked {

/// Saturating accumulator: a Time that only exposes clamped compound
/// assignment, for running sums built up across statements or loop
/// iterations.
class Sum {
 public:
  constexpr explicit Sum(Time initial = 0) : value_(initial) {}

  constexpr Sum& operator+=(Time delta) {
    value_ = saturating_add(value_, delta);
    return *this;
  }

  constexpr Sum& operator-=(Time delta) {
    value_ = saturating_sub(value_, delta);
    return *this;
  }

  [[nodiscard]] constexpr Time value() const { return value_; }

 private:
  Time value_;
};

[[nodiscard]] constexpr Time add(Time lhs, Time rhs) {
  return saturating_add(lhs, rhs);
}

/// Left-to-right saturating fold: add(x, y, z) == sat(sat(x, y), z).
template <typename... Rest>
[[nodiscard]] constexpr Time add(Time lhs, Time rhs, Rest... rest) {
  return add(saturating_add(lhs, rhs), static_cast<Time>(rest)...);
}

[[nodiscard]] constexpr Time sub(Time lhs, Time rhs) {
  return saturating_sub(lhs, rhs);
}

/// later - earlier, floored at zero: the shape of every wait-time /
/// elapsed-time computation, where a clock inversion (or saturated
/// sentinel) must degrade to "no time elapsed", never to a huge
/// positive value from wraparound.
[[nodiscard]] constexpr Time elapsed(Time later, Time earlier) {
  const Time diff = saturating_sub(later, earlier);
  return diff < 0 ? 0 : diff;
}

}  // namespace checked

}  // namespace bfsim::sim
