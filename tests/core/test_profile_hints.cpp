// Property suite for the anchor-hint cache (core/multi_profile.hpp): hints
// are a pure accelerator, so every anchor query must return exactly what a
// hint-free search over the current timeline returns, no matter how warm
// or stale the cache is. The profile is driven with bb == 0, the only
// searches that record certificates. The oracle below recomputes the
// earliest anchor from segments() alone (it cannot see the hints), and
// check_invariants() additionally proves every live certificate against
// the raw timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include "core/multi_profile.hpp"
#include "sim/time.hpp"

namespace bfsim::core {
namespace {

using Segments = std::vector<MultiProfile::Segment>;

sim::Time segment_end(const Segments& segs, std::size_t i) {
  return i + 1 < segs.size() ? segs[i + 1].begin : sim::kTimeMax;
}

/// Hint-free reference: earliest t >= not_before with free >= procs over
/// the whole window [t, t + duration). O(n^2) and proud of it.
sim::Time naive_anchor(const Segments& segs, int procs, sim::Time duration,
                       sim::Time not_before) {
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const sim::Time candidate = std::max(not_before, segs[i].begin);
    if (candidate >= segment_end(segs, i)) continue;  // before the query
    if (segs[i].procs < procs) continue;
    const sim::Time window_end = sim::saturating_add(candidate, duration);
    bool ok = true;
    for (std::size_t j = i; j < segs.size(); ++j) {
      if (segs[j].procs < procs) {
        ok = false;
        break;
      }
      if (segment_end(segs, j) >= window_end) break;
    }
    if (ok) return candidate;
  }
  ADD_FAILURE() << "no anchor found (the free tail should always fit)";
  return sim::kNoTime;
}

struct Held {
  sim::Time begin, end;
  int procs;
};

TEST(ProfileHints, WarmCacheNeverChangesAnchorResults) {
  constexpr int kProcs = 64;
  std::mt19937_64 rng{4242};
  MultiProfile profile{kProcs};
  std::vector<Held> held;
  for (int round = 0; round < 3000; ++round) {
    const auto segs = profile.segments();
    const int procs = static_cast<int>(rng() % kProcs) + 1;
    const sim::Time duration = static_cast<sim::Time>(rng() % 500) + 1;
    const sim::Time from = static_cast<sim::Time>(rng() % 2000);
    const auto roll = rng() % 4;
    if (roll == 0) {
      // Pure query: must match the oracle and leave the timeline alone.
      const sim::Time expected = naive_anchor(segs, procs, duration, from);
      EXPECT_EQ(profile.earliest_anchor(procs, 0, duration, from), expected)
          << "round " << round;
      EXPECT_EQ(profile.segments(), segs);
    } else if (roll == 1 && !held.empty()) {
      // Release (the clamp_hints path: capacity reappears inside
      // certified-empty intervals, which must truncate them).
      const std::size_t pick = static_cast<std::size_t>(rng() % held.size());
      profile.release(held[pick].begin, held[pick].end, held[pick].procs, 0);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const sim::Time expected = naive_anchor(segs, procs, duration, from);
      const sim::Time anchor =
          profile.find_and_reserve(procs, 0, duration, from);
      EXPECT_EQ(anchor, expected) << "round " << round;
      held.push_back({anchor, sim::saturating_add(anchor, duration), procs});
      if (held.size() > 40) {
        profile.release(held.front().begin, held.front().end,
                        held.front().procs, 0);
        held.erase(held.begin());
      }
    }
    // Every live certificate is re-proved against the raw timeline.
    ASSERT_NO_THROW(profile.check_invariants()) << "round " << round;
  }
}

TEST(ProfileHints, DiscardBeforeInvalidatesCertifiedPrefixes) {
  MultiProfile profile{8};
  // Fill [0, 100) completely so wide queries certify a no-capacity
  // prefix, then discard history: the discarded region reads as free,
  // and stale certificates must not keep pushing anchors past it.
  profile.reserve(0, 100, 8, 0);
  EXPECT_EQ(profile.earliest_anchor(8, 0, 10, 0), 100);  // warms the cache
  profile.discard_before(150);
  ASSERT_NO_THROW(profile.check_invariants());
  const auto segs = profile.segments();
  for (const int procs : {1, 2, 8})
    EXPECT_EQ(profile.earliest_anchor(procs, 0, 10, 0),
              naive_anchor(segs, procs, 10, 0));
}

TEST(ProfileHints, HostileDurationSaturatesInsteadOfOverflowing) {
  // Regression for the anchor_from overflow: a duration near kTimeMax
  // used to compute `candidate + duration` raw, which is signed-overflow
  // UB once any reservation pushes the candidate past zero. With
  // saturating_add the window end parks at kTimeMax ("runs forever")
  // and the fully-free tail covers it.
  MultiProfile profile{16};
  profile.reserve(0, 1000, 16, 0);  // force a nonzero anchor
  const sim::Time anchor = profile.find_and_reserve(4, 0, sim::kTimeMax, 0);
  EXPECT_EQ(anchor, 1000);
  ASSERT_NO_THROW(profile.check_invariants());
  // The forever-job occupies its processors to the end of time: only
  // the remaining width fits after it.
  EXPECT_EQ(profile.procs_free_at(sim::kTimeMax - 1), 12);
  const sim::Time next = profile.earliest_anchor(12, 0, 50, 0);
  EXPECT_EQ(next, 1000);
  EXPECT_EQ(profile.earliest_anchor(16, 0, 50, 0), sim::kTimeMax);
}

}  // namespace
}  // namespace bfsim::core
