// The multi-resource profile's test wall, in three tiers:
//
//   1. a brute-force per-timestep oracle (two flat arrays of free
//      capacity, one per axis) checked against randomized operation
//      sequences -- the 2-axis semantics are proven against something
//      too simple to be wrong;
//   2. directed unit tests for the joint-axis behaviors the oracle
//      exercises only probabilistically (buffer-only blocking, per-axis
//      error messages, joint coalescing);
//   3. the read-only move test against release + re-anchor.
//
// The bb == 0 path is tested on its own in test_profile.cpp,
// test_profile_hints.cpp and, against the std::map oracle,
// test_profile_differential.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/multi_profile.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bfsim::core {
namespace {

/// Brute-force reference: free capacity per axis stored per timestep
/// over a bounded horizon (fully free beyond). Every operation is a
/// plain loop; no sharing, no coalescing, nothing clever.
class BruteProfile {
 public:
  BruteProfile(int total_procs, int total_bb, sim::Time horizon)
      : total_procs_(total_procs),
        total_bb_(total_bb),
        procs_(static_cast<std::size_t>(horizon), total_procs),
        bb_(static_cast<std::size_t>(horizon), total_bb) {}

  [[nodiscard]] int procs_free_at(sim::Time t) const {
    return t < size() ? procs_[static_cast<std::size_t>(t)] : total_procs_;
  }
  [[nodiscard]] int bb_free_at(sim::Time t) const {
    return t < size() ? bb_[static_cast<std::size_t>(t)] : total_bb_;
  }

  [[nodiscard]] bool fits(int procs, int bb, sim::Time begin,
                          sim::Time end) const {
    for (sim::Time t = begin; t < end && t < size(); ++t)
      if (procs_free_at(t) < procs || bb_free_at(t) < bb) return false;
    return true;
  }

  /// Earliest joint anchor by exhaustive scan. Never scans past the
  /// horizon: the caller keeps every window inside it.
  [[nodiscard]] sim::Time earliest_anchor(int procs, int bb,
                                          sim::Time duration,
                                          sim::Time not_before) const {
    for (sim::Time s = not_before;; ++s)
      if (fits(procs, bb, s, s + duration)) return s;
  }

  void reserve(sim::Time begin, sim::Time end, int procs, int bb) {
    for (sim::Time t = begin; t < end && t < size(); ++t) {
      procs_[static_cast<std::size_t>(t)] -= procs;
      bb_[static_cast<std::size_t>(t)] -= bb;
    }
  }
  void release(sim::Time begin, sim::Time end, int procs, int bb) {
    for (sim::Time t = begin; t < end && t < size(); ++t) {
      procs_[static_cast<std::size_t>(t)] += procs;
      bb_[static_cast<std::size_t>(t)] += bb;
    }
  }

  /// The coalesced segment view the production profile must agree with.
  [[nodiscard]] std::vector<MultiProfile::Segment> segments() const {
    std::vector<MultiProfile::Segment> out;
    for (sim::Time t = 0; t <= size(); ++t) {
      const int p = procs_free_at(t);
      const int b = bb_free_at(t);
      if (out.empty() || out.back().procs != p || out.back().bb != b)
        out.push_back({t, p, b});
    }
    return out;
  }

 private:
  [[nodiscard]] sim::Time size() const {
    return static_cast<sim::Time>(procs_.size());
  }

  int total_procs_;
  int total_bb_;
  std::vector<int> procs_;
  std::vector<int> bb_;
};

void expect_matches_oracle(const MultiProfile& profile,
                           const BruteProfile& oracle, sim::Time horizon) {
  ASSERT_NO_THROW(profile.check_invariants());
  ASSERT_EQ(profile.segments(), oracle.segments());
  for (sim::Time t = 0; t <= horizon; t += 7) {
    ASSERT_EQ(profile.procs_free_at(t), oracle.procs_free_at(t)) << "t=" << t;
    ASSERT_EQ(profile.bb_free_at(t), oracle.bb_free_at(t)) << "t=" << t;
  }
}

class MultiProfileOracleTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiProfileOracleTest, RandomOpsMatchPerTimestepOracle) {
  constexpr int kProcs = 24;
  constexpr int kBb = 40;
  // The oracle horizon must cover every window the test creates:
  // anchors start <= kFrom, durations <= kDur, and the worst anchor a
  // search can return is bounded by total work / min demand -- keep the
  // slack generous instead of clever.
  constexpr sim::Time kFrom = 300;
  constexpr sim::Time kDur = 40;
  constexpr sim::Time kHorizon = 20000;
  sim::Rng rng{GetParam()};
  MultiProfile profile{kProcs, kBb};
  BruteProfile oracle{kProcs, kBb, kHorizon};

  struct Live {
    sim::Time b, e;
    int procs, bb;
  };
  std::vector<Live> live;

  for (int step = 0; step < 250; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.30 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Live& r = live[idx];
      const bool tail_only = r.e - r.b > 2 && rng.bernoulli(0.4);
      const sim::Time from =
          tail_only ? r.b + rng.uniform_int(1, r.e - r.b - 1) : r.b;
      profile.release(from, r.e, r.procs, r.bb);
      oracle.release(from, r.e, r.procs, r.bb);
      if (tail_only) {
        r.e = from;
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else if (dice < 0.70) {
      // Fused find-and-reserve vs exhaustive scan + loop subtraction.
      // bb == 0 demands stay common (they are the compatibility path).
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const int bb =
          rng.bernoulli(0.3) ? 0 : static_cast<int>(rng.uniform_int(0, kBb));
      const sim::Time dur = rng.uniform_int(1, kDur);
      const sim::Time from = rng.uniform_int(0, kFrom);
      const sim::Time got = profile.find_and_reserve(procs, bb, dur, from);
      const sim::Time want = oracle.earliest_anchor(procs, bb, dur, from);
      ASSERT_EQ(got, want) << "procs=" << procs << " bb=" << bb
                           << " dur=" << dur << " from=" << from;
      oracle.reserve(got, got + dur, procs, bb);
      live.push_back({got, got + dur, procs, bb});
    } else if (dice < 0.85) {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs / 2));
      const int bb = static_cast<int>(rng.uniform_int(0, kBb / 2));
      const sim::Time b = rng.uniform_int(0, kFrom);
      const sim::Time e = b + rng.uniform_int(1, kDur);
      if (!oracle.fits(procs, bb, b, e)) continue;
      profile.reserve(b, e, procs, bb);
      oracle.reserve(b, e, procs, bb);
      live.push_back({b, e, procs, bb});
    } else {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const int bb = static_cast<int>(rng.uniform_int(0, kBb));
      const sim::Time dur = rng.uniform_int(1, kDur);
      const sim::Time from = rng.uniform_int(0, kFrom);
      ASSERT_EQ(profile.earliest_anchor(procs, bb, dur, from),
                oracle.earliest_anchor(procs, bb, dur, from));
      ASSERT_EQ(profile.fits(procs, bb, from, from + dur),
                oracle.fits(procs, bb, from, from + dur));
    }
    expect_matches_oracle(profile, oracle, kFrom + 2 * kDur);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MultiProfileOracleTest,
                         testing::Values(21, 22, 23, 24, 25, 26));

// -- Tier 2: directed joint-axis behavior -----------------------------

TEST(MultiProfile, BufferAxisAloneDelaysAnAnchor) {
  MultiProfile profile{8, 100};
  // Processors nearly free, buffer saturated until t=50.
  profile.reserve(0, 50, 1, 100);
  EXPECT_EQ(profile.earliest_anchor(1, 0, 10, 0), 0);   // procs-only: now
  EXPECT_EQ(profile.earliest_anchor(1, 1, 10, 0), 50);  // 1 GB: waits
  EXPECT_EQ(profile.procs_free_at(0), 7);
  EXPECT_EQ(profile.bb_free_at(0), 0);
  EXPECT_EQ(profile.bb_free_at(50), 100);
}

TEST(MultiProfile, ProcsAxisAloneDelaysAnAnchor) {
  MultiProfile profile{8, 100};
  profile.reserve(0, 50, 8, 1);
  EXPECT_EQ(profile.earliest_anchor(1, 99, 10, 0), 50);
  EXPECT_TRUE(profile.fits(0, 99, 0, 50));
  EXPECT_FALSE(profile.fits(1, 0, 0, 50));
}

TEST(MultiProfile, SegmentsDifferingOnlyOnBufferStayDistinct) {
  MultiProfile profile{8, 100};
  profile.reserve(10, 20, 4, 10);
  profile.reserve(20, 30, 4, 20);  // same procs, different bb
  const auto segments = profile.segments();
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[0], (MultiProfile::Segment{0, 8, 100}));
  EXPECT_EQ(segments[1], (MultiProfile::Segment{10, 4, 90}));
  EXPECT_EQ(segments[2], (MultiProfile::Segment{20, 4, 80}));
  EXPECT_EQ(segments[3], (MultiProfile::Segment{30, 8, 100}));
}

TEST(MultiProfile, AdjacentEqualRectanglesCoalesce) {
  MultiProfile profile{8, 100};
  profile.reserve(10, 20, 4, 10);
  profile.reserve(20, 30, 4, 10);
  EXPECT_EQ(profile.segments().size(), 3u);
  profile.release(10, 30, 4, 10);
  EXPECT_EQ(profile.segments().size(), 1u);
  EXPECT_EQ(profile.breakpoints(), 1u);
}

TEST(MultiProfile, PerAxisOverReservationAndDoubleReleaseThrow) {
  MultiProfile profile{8, 10};
  profile.reserve(0, 10, 8, 0);
  // Processor axis exhausted, buffer axis plentiful.
  EXPECT_THROW(profile.reserve(5, 6, 1, 0), std::logic_error);
  profile.reserve(0, 10, 0, 10);
  // Buffer axis exhausted, processors untouched by this demand shape.
  EXPECT_THROW(profile.reserve(5, 6, 0, 1), std::logic_error);
  // Each axis rejects its own double release.
  EXPECT_THROW(profile.release(20, 30, 1, 0), std::logic_error);
  EXPECT_THROW(profile.release(20, 30, 0, 1), std::logic_error);
  // Failed operations left the timeline untouched (strong guarantee).
  EXPECT_NO_THROW(profile.check_invariants());
  EXPECT_EQ(profile.procs_free_at(5), 0);
  EXPECT_EQ(profile.bb_free_at(5), 0);
  EXPECT_EQ(profile.procs_free_at(10), 8);
  EXPECT_EQ(profile.bb_free_at(10), 10);
}

TEST(MultiProfile, AbsentBufferAxisRejectsAnyDemand) {
  MultiProfile profile{8};
  EXPECT_THROW((void)profile.earliest_anchor(1, 1, 10, 0),
               std::invalid_argument);
  EXPECT_THROW(profile.find_and_reserve(1, 1, 10, 0), std::invalid_argument);
  EXPECT_NO_THROW(profile.reserve(0, 10, 4, 0));
  EXPECT_THROW(profile.reserve(0, 10, 1, 1), std::logic_error);
}

TEST(MultiProfile, RejectsMalformedArguments) {
  EXPECT_THROW(MultiProfile(0, 4), std::invalid_argument);
  EXPECT_THROW(MultiProfile(4, -1), std::invalid_argument);
  MultiProfile profile{4, 4};
  EXPECT_THROW((void)profile.earliest_anchor(0, 0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(5, 0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, 5, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, -1, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, 0, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.procs_free_at(-1), std::invalid_argument);
  EXPECT_THROW((void)profile.bb_free_at(-1), std::invalid_argument);
}

TEST(MultiProfile, DiscardBeforeKeepsTheVisibleTimeline) {
  MultiProfile profile{8, 20};
  profile.reserve(0, 100, 2, 5);
  profile.reserve(50, 150, 3, 5);
  profile.discard_before(60);
  EXPECT_EQ(profile.procs_free_at(60), 3);
  EXPECT_EQ(profile.bb_free_at(60), 10);
  EXPECT_EQ(profile.procs_free_at(120), 5);
  EXPECT_EQ(profile.bb_free_at(120), 15);
  EXPECT_EQ(profile.procs_free_at(200), 8);
  EXPECT_EQ(profile.bb_free_at(200), 20);
  EXPECT_NO_THROW(profile.check_invariants());
}

TEST(MultiProfile, WindowsSaturateAtTheFarFuture) {
  MultiProfile profile{4, 8};
  // A duration that would overflow begin + duration must saturate, not
  // wrap: the anchor is still found (the far future is fully free).
  const sim::Time anchor =
      profile.earliest_anchor(4, 8, sim::kTimeMax, 100);
  EXPECT_EQ(anchor, 100);
  profile.reserve(0, 10, 4, 8);
  EXPECT_EQ(profile.earliest_anchor(1, 1, sim::kTimeMax, 0), 10);
}

// The segment lookup is a branchless halving search; its edges are the
// breakpoint counts around powers of two (where the halving steps change)
// and the queries exactly on, and one instant before, each breakpoint.
TEST(MultiProfile, LookupsMatchALinearScanAtEveryBreakpointEdge) {
  for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17}) {
    // A staircase: [10k, 10k + 10) holds n - 1 - k unit rectangles on
    // both axes, so there are exactly n breakpoints 0, 10, ..., 10(n-1).
    MultiProfile profile{64, 64};
    for (std::size_t k = 0; k + 1 < n; ++k)
      profile.reserve(0, static_cast<sim::Time>(10 * (k + 1)), 1, 1);
    ASSERT_EQ(profile.breakpoints(), n);
    const std::vector<MultiProfile::Segment> segments = profile.segments();
    std::vector<sim::Time> queries{0, sim::kTimeMax};
    for (const MultiProfile::Segment& s : segments) {
      queries.push_back(s.begin);
      if (s.begin > 0) queries.push_back(s.begin - 1);
    }
    for (const sim::Time t : queries) {
      // The last segment beginning at-or-before t, by linear scan.
      std::size_t want = 0;
      for (std::size_t i = 0; i < segments.size(); ++i)
        if (segments[i].begin <= t) want = i;
      EXPECT_EQ(profile.procs_free_at(t), segments[want].procs)
          << "n=" << n << " t=" << t;
      EXPECT_EQ(profile.bb_free_at(t), segments[want].bb)
          << "n=" << n << " t=" << t;
    }
  }
}

// -- Tier 3: the read-only move test ----------------------------------
//
// anchors_earlier must answer exactly what release -> earliest_anchor <
// start -> reserve back answers, on random two-axis profiles: with the
// default (unrestricted) search anywhere, and with a release log
// wherever the held rectangle sat at its earliest anchor before the
// logged releases -- the invariant compression relies on.

/// The reference answer, computed on a copy.
bool moves_by_release(const MultiProfile& profile, int procs, int bb,
                      sim::Time duration, sim::Time start,
                      sim::Time not_before) {
  MultiProfile copy = profile;
  copy.release(start, sim::saturating_add(start, duration), procs, bb);
  return copy.earliest_anchor(procs, bb, duration, not_before) < start;
}

/// Random background rectangles for the move-test properties.
struct Background {
  struct Rect {
    sim::Time b, e;
    int procs, bb;
  };
  std::vector<Rect> live;

  /// Reserve a random rectangle when it fits.
  void grow(MultiProfile& profile, sim::Rng& rng) {
    const int procs =
        static_cast<int>(rng.uniform_int(0, profile.total_procs() / 2));
    const int bb = static_cast<int>(rng.uniform_int(0, profile.total_bb() / 2));
    const sim::Time b = rng.uniform_int(0, 300);
    const sim::Time e = b + rng.uniform_int(1, 60);
    if (procs + bb == 0 || !profile.fits(procs, bb, b, e)) return;
    profile.reserve(b, e, procs, bb);
    live.push_back({b, e, procs, bb});
  }

  /// Release a random live rectangle; returns it (procs 0 when none).
  Rect shrink(MultiProfile& profile, sim::Rng& rng) {
    if (live.empty()) return {0, 0, 0, 0};
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const Rect r = live[idx];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    profile.release(r.b, r.e, r.procs, r.bb);
    return r;
  }
};

class MoveTestProperty
    : public testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(MoveTestProperty, EqualsReleaseAndReanchorAnywhere) {
  const auto [seed, total_bb] = GetParam();
  sim::Rng rng{seed};
  MultiProfile profile{16, total_bb};
  Background background;
  int checked = 0;
  int moved = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.bernoulli(0.6)) background.grow(profile, rng);
    if (rng.bernoulli(0.2)) (void)background.shrink(profile, rng);
    // Hold a rectangle at a random feasible start -- usually not its
    // earliest anchor -- and ask whether it could move.
    const int procs = static_cast<int>(rng.uniform_int(1, 16));
    const int bb = total_bb == 0 || rng.bernoulli(0.3)
                       ? 0
                       : static_cast<int>(rng.uniform_int(0, total_bb));
    const sim::Time duration = rng.uniform_int(1, 50);
    const sim::Time start = rng.uniform_int(0, 350);
    const sim::Time end = start + duration;
    if (!profile.fits(procs, bb, start, end)) continue;
    profile.reserve(start, end, procs, bb);
    const sim::Time not_before = rng.uniform_int(0, start);
    const bool want =
        moves_by_release(profile, procs, bb, duration, start, not_before);
    ASSERT_EQ(profile.anchors_earlier(procs, bb, duration, start, not_before),
              want)
        << "procs=" << procs << " bb=" << bb << " duration=" << duration
        << " start=" << start << " not_before=" << not_before;
    profile.release(start, end, procs, bb);
    ++checked;
    moved += want ? 1 : 0;
  }
  // Both answers must have been exercised.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, checked);
}

TEST_P(MoveTestProperty, ReleaseLogSufficesFromAnEarliestAnchor) {
  const auto [seed, total_bb] = GetParam();
  sim::Rng rng{seed + 1000};
  MultiProfile profile{16, total_bb};
  Background background;
  for (int i = 0; i < 40; ++i) background.grow(profile, rng);
  int moves = 0;
  for (int episode = 0; episode < 40; ++episode) {
    // Anchor the held job at its earliest anchor, then let capacity come
    // and go, logging the hull of every release.
    const int procs = static_cast<int>(rng.uniform_int(1, 16));
    const int bb = total_bb == 0 ? 0
                                 : static_cast<int>(rng.uniform_int(0, total_bb));
    const sim::Time duration = rng.uniform_int(1, 50);
    const sim::Time not_before = rng.uniform_int(0, 100);
    sim::Time start =
        profile.find_and_reserve(procs, bb, duration, not_before);
    sim::Time lo = 0;
    sim::Time hi = 0;  // empty log
    for (int step = 0; step < 30; ++step) {
      if (rng.bernoulli(0.5)) background.grow(profile, rng);
      if (rng.bernoulli(0.4)) {
        const Background::Rect r = background.shrink(profile, rng);
        if (r.e > r.b) {
          lo = hi > lo ? std::min(lo, r.b) : r.b;
          hi = std::max(hi, r.e);
        }
      }
      const bool want =
          moves_by_release(profile, procs, bb, duration, start, not_before);
      ASSERT_EQ(profile.anchors_earlier(procs, bb, duration, start,
                                        not_before, lo, hi),
                want)
          << "episode " << episode << " step " << step << " start=" << start
          << " log=[" << lo << ", " << hi << ")";
      if (want) {
        // Re-anchor, as compression would: the job is at its earliest
        // anchor again and the log starts empty.
        profile.release(start, start + duration, procs, bb);
        start = profile.find_and_reserve(procs, bb, duration, not_before);
        lo = hi = 0;
        ++moves;
      }
    }
    profile.release(start, start + duration, procs, bb);
  }
  EXPECT_GT(moves, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSeeds, MoveTestProperty,
    testing::Combine(testing::Values(41, 42, 43, 44),
                     testing::Values(0, 40)));

TEST(MultiProfileMoveTest, WindowReachingTheStartNeedsOnlyTheInstantBefore) {
  MultiProfile profile{10, 10};
  profile.reserve(0, 40, 8, 0);
  // Held at 50, but its earliest anchor is 40: the window [49, 149)
  // needs only t=49 outside its own rectangle.
  profile.reserve(50, 150, 4, 2);
  EXPECT_TRUE(profile.anchors_earlier(4, 2, 100, 50, 0));
  EXPECT_TRUE(moves_by_release(profile, 4, 2, 100, 50, 0));
  // Even an empty release log cannot hide such a window.
  EXPECT_TRUE(profile.anchors_earlier(4, 2, 100, 50, 0, 0, 0));
  // Held at its earliest anchor: nothing before it fits.
  profile.release(50, 150, 4, 2);
  profile.reserve(40, 140, 4, 2);
  EXPECT_FALSE(profile.anchors_earlier(4, 2, 100, 40, 0));
  // A reservation at `not_before` cannot move at all.
  EXPECT_FALSE(profile.anchors_earlier(4, 2, 100, 40, 40));
}

TEST(MultiProfileMoveTest, HoleWhollyBeforeTheStartIsFoundThroughTheLog) {
  MultiProfile profile{10, 0};
  profile.reserve(0, 20, 8, 0);
  profile.reserve(30, 60, 8, 0);
  profile.reserve(60, 70, 4, 0);  // held: 4 procs x 10 at t=60
  // t=59 has 2 free, so no window reaches 60; the hole [20, 30) fits.
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 10, 60, 0));
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 10, 60, 0, 25, 26));
  // A log that cannot touch any window inside the hole rules it out.
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 10, 60, 0, 0, 11));
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 10, 60, 0, 30, 60));
  // The hole is 10 long: an 11-long job cannot use it.
  profile.release(60, 70, 4, 0);
  profile.reserve(60, 71, 4, 0);
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 11, 60, 0));
  EXPECT_FALSE(moves_by_release(profile, 4, 0, 11, 60, 0));
}

TEST(MultiProfileMoveTest, ReleaseLogCoversWindowsTouchingItsEdges) {
  // The held job (4 procs x 10 at t=100) is blocked at t=99, and the
  // only hole before it is 9 long until a one-instant blocker goes.
  const auto setup = [](sim::Time blocker) {
    MultiProfile profile{10, 0};
    profile.reserve(0, 20, 8, 0);
    profile.reserve(30, 100, 8, 0);
    profile.reserve(blocker, blocker + 1, 8, 0);
    profile.reserve(100, 110, 4, 0);
    EXPECT_FALSE(profile.anchors_earlier(4, 0, 10, 100, 0));
    profile.release(blocker, blocker + 1, 8, 0);
    return profile;
  };
  // Released [29, 30): the window [20, 30) meets it at its last instant.
  const MultiProfile last = setup(29);
  EXPECT_TRUE(last.anchors_earlier(4, 0, 10, 100, 0, 29, 30));
  EXPECT_TRUE(last.anchors_earlier(4, 0, 10, 100, 20, 29, 30));
  EXPECT_FALSE(last.anchors_earlier(4, 0, 10, 100, 21, 29, 30));
  // Released [20, 21): the window [20, 30) starts on its last instant,
  // and from not_before 20 it is the only candidate start.
  const MultiProfile first = setup(20);
  EXPECT_TRUE(first.anchors_earlier(4, 0, 10, 100, 0, 20, 21));
  EXPECT_TRUE(first.anchors_earlier(4, 0, 10, 100, 20, 20, 21));
  EXPECT_FALSE(first.anchors_earlier(4, 0, 10, 100, 21, 20, 21));
}

// The hull scan measures whole admitting runs: a run that starts before
// the hull (here over two differently-filled segments) counts from its
// true beginning, clipped to not_before.
TEST(MultiProfileMoveTest, AnAdmittingRunCountsFromBeforeTheHull) {
  MultiProfile profile{10, 0};
  profile.reserve(0, 20, 8, 0);
  profile.reserve(20, 35, 4, 0);  // 6 free: admits 4
  profile.reserve(50, 100, 8, 0);
  profile.reserve(100, 120, 4, 0);  // held: 4 procs x 20 at t=100
  // The run [20, 50) spans two segments; only [35, 50) meets the hull
  // [40, 41), and it is 15 long. Counted from 20 the run holds [21, 41).
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 20, 100, 0, 40, 41));
  EXPECT_TRUE(moves_by_release(profile, 4, 0, 20, 100, 0));
  // A 31-long job fits nowhere in the 30-long run.
  profile.release(100, 120, 4, 0);
  profile.reserve(100, 131, 4, 0);
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 31, 100, 0, 40, 41));
  EXPECT_FALSE(moves_by_release(profile, 4, 0, 31, 100, 0));
}

TEST(MultiProfileMoveTest, NotBeforeClipsTheRun) {
  MultiProfile profile{10, 0};
  profile.reserve(0, 20, 8, 0);
  profile.reserve(20, 35, 4, 0);
  profile.reserve(50, 100, 8, 0);
  profile.reserve(100, 120, 4, 0);
  // From not_before 30 the run is [30, 50): exactly 20, enough.
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 20, 100, 30, 40, 41));
  EXPECT_TRUE(moves_by_release(profile, 4, 0, 20, 100, 30));
  // From 31 it is 19 long.
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 20, 100, 31, 40, 41));
  EXPECT_FALSE(moves_by_release(profile, 4, 0, 20, 100, 31));
}

TEST(MultiProfileMoveTest, RunsEndingAtOrJustBeforeTheStart) {
  MultiProfile profile{10, 0};
  profile.reserve(0, 60, 8, 0);
  profile.reserve(99, 100, 8, 0);
  profile.reserve(100, 140, 4, 0);  // held: 4 procs x 40 at t=100
  // The run [60, 99) stops one instant short of the start: 39 long.
  EXPECT_FALSE(profile.anchors_earlier(4, 0, 40, 100, 0, 70, 71));
  EXPECT_FALSE(moves_by_release(profile, 4, 0, 40, 100, 0));
  profile.release(100, 140, 4, 0);
  profile.reserve(100, 139, 4, 0);
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 39, 100, 0, 70, 71));
  EXPECT_TRUE(moves_by_release(profile, 4, 0, 39, 100, 0));
  // Once the run reaches the start, the window straddling it answers,
  // whatever the hull.
  profile.release(99, 100, 8, 0);
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 39, 100, 0, 70, 71));
  EXPECT_TRUE(profile.anchors_earlier(4, 0, 39, 100, 0, 10, 11));
  EXPECT_TRUE(moves_by_release(profile, 4, 0, 39, 100, 0));
}

TEST(MultiProfileMoveTest, SeveralShortRunsInTheHullDoNotAddUp) {
  // Admitting runs of 9 (procs) and 9 (buffer) alternate with one-instant
  // blockers over [0, 100); the held job needs 10.
  MultiProfile profile{10, 10};
  for (sim::Time b = 9; b < 100; b += 10)
    profile.reserve(b, b + 1, (b / 10) % 2 == 0 ? 8 : 0,
                    (b / 10) % 2 == 0 ? 0 : 8);
  profile.reserve(100, 110, 4, 4);
  EXPECT_FALSE(profile.anchors_earlier(4, 4, 10, 100, 0));
  EXPECT_FALSE(profile.anchors_earlier(4, 4, 10, 100, 0, 0, 100));
  EXPECT_FALSE(moves_by_release(profile, 4, 4, 10, 100, 0));
  // Nine instants fit; and a run of exactly the duration is enough.
  profile.release(100, 110, 4, 4);
  profile.reserve(100, 109, 4, 4);
  EXPECT_TRUE(profile.anchors_earlier(4, 4, 9, 100, 0, 55, 56));
  EXPECT_TRUE(moves_by_release(profile, 4, 4, 9, 100, 0));
}

TEST(MultiProfileMoveTest, EstimatesNearTheFarFutureSaturate) {
  for (const sim::Time duration :
       {sim::kTimeMax, sim::kTimeMax - 1, sim::kTimeMax - 100}) {
    MultiProfile profile{4, 8};
    profile.reserve(0, 30, 4, 0);
    profile.reserve(30, 50, 2, 8);
    // Held from t=70 "forever".
    profile.reserve(70, sim::saturating_add(70, duration), 2, 4);
    for (const sim::Time not_before : {0, 40, 60, 69, 70}) {
      EXPECT_EQ(profile.anchors_earlier(2, 4, duration, 70, not_before),
                moves_by_release(profile, 2, 4, duration, 70, not_before))
          << "duration=" << duration << " not_before=" << not_before;
      EXPECT_EQ(profile.anchors_earlier(2, 4, duration, 70, not_before, 0,
                                        sim::kTimeMax),
                moves_by_release(profile, 2, 4, duration, 70, not_before));
    }
    EXPECT_TRUE(profile.anchors_earlier(2, 4, duration, 70, 0));
    EXPECT_NO_THROW(profile.check_invariants());
  }
}

TEST(MultiProfileMoveTest, RejectsMalformedDemands) {
  MultiProfile profile{4, 4};
  EXPECT_THROW((void)profile.anchors_earlier(0, 0, 10, 5, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.anchors_earlier(1, 5, 10, 5, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.anchors_earlier(1, 0, 0, 5, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bfsim::core
