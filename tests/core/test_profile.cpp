// Directed and property tests of the availability profile's processor
// axis: core::MultiProfile driven with bb == 0, the path every
// procs-only scheduler runs. The joint-axis behaviour is tested in
// test_multi_profile.cpp.
#include "core/multi_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

namespace bfsim::core {
namespace {

TEST(Profile, StartsFullyFree) {
  const MultiProfile p{64};
  EXPECT_EQ(p.total_procs(), 64);
  EXPECT_EQ(p.procs_free_at(0), 64);
  EXPECT_EQ(p.procs_free_at(1'000'000), 64);
  EXPECT_NO_THROW(p.check_invariants());
}

TEST(Profile, RejectsBadConstruction) {
  EXPECT_THROW(MultiProfile{0}, std::invalid_argument);
  EXPECT_THROW(MultiProfile{-3}, std::invalid_argument);
}

TEST(Profile, ReserveCarvesInterval) {
  MultiProfile p{10};
  p.reserve(100, 200, 4, 0);
  EXPECT_EQ(p.procs_free_at(99), 10);
  EXPECT_EQ(p.procs_free_at(100), 6);
  EXPECT_EQ(p.procs_free_at(199), 6);
  EXPECT_EQ(p.procs_free_at(200), 10);
  EXPECT_NO_THROW(p.check_invariants());
}

TEST(Profile, ReservationsStack) {
  MultiProfile p{10};
  p.reserve(0, 100, 3, 0);
  p.reserve(50, 150, 3, 0);
  EXPECT_EQ(p.procs_free_at(0), 7);
  EXPECT_EQ(p.procs_free_at(50), 4);
  EXPECT_EQ(p.procs_free_at(100), 7);
  EXPECT_EQ(p.procs_free_at(150), 10);
}

TEST(Profile, OverReservationThrows) {
  MultiProfile p{4};
  p.reserve(0, 10, 3, 0);
  EXPECT_THROW(p.reserve(5, 15, 2, 0), std::logic_error);
  // The failed reserve must not corrupt earlier state.
  EXPECT_EQ(p.procs_free_at(0), 1);
}

TEST(Profile, DoubleReleaseThrows) {
  MultiProfile p{4};
  p.reserve(0, 10, 2, 0);
  p.release(0, 10, 2, 0);
  EXPECT_THROW(p.release(0, 10, 1, 0), std::logic_error);
}

TEST(Profile, ReleaseRestoresExactly) {
  MultiProfile p{8};
  p.reserve(10, 30, 5, 0);
  p.release(10, 30, 5, 0);
  EXPECT_EQ(p.procs_free_at(10), 8);
  EXPECT_EQ(p.segments().size(), 1u);  // fully coalesced again
}

TEST(Profile, PartialRelease) {
  MultiProfile p{8};
  p.reserve(0, 100, 5, 0);
  p.release(40, 100, 5, 0);  // early completion frees the tail
  EXPECT_EQ(p.procs_free_at(0), 3);
  EXPECT_EQ(p.procs_free_at(40), 8);
}

TEST(Profile, EmptyIntervalIsNoop) {
  MultiProfile p{8};
  p.reserve(10, 10, 5, 0);
  EXPECT_EQ(p.procs_free_at(10), 8);
  p.release(10, 10, 5, 0);
  EXPECT_EQ(p.procs_free_at(10), 8);
}

TEST(Profile, NegativeTimeRejected) {
  MultiProfile p{8};
  EXPECT_THROW(p.reserve(-5, 10, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)p.procs_free_at(-1), std::invalid_argument);
}

TEST(Profile, FitsRejectsNegativeWindowStart) {
  // Regression: the map-based implementation decremented
  // upper_bound(begin) without a begin >= 0 guard, walking past begin()
  // (undefined behaviour). A negative start now validates like procs_free_at.
  MultiProfile p{8};
  p.reserve(0, 10, 4, 0);
  EXPECT_THROW((void)p.fits(1, 0, -1, 5), std::invalid_argument);
  EXPECT_THROW((void)p.fits(8, 0, -100, -50), std::invalid_argument);
  // Empty windows stay trivially true, even degenerate ones.
  EXPECT_TRUE(p.fits(8, 0, 5, 5));
  EXPECT_TRUE(p.fits(8, 0, 7, 3));
}

TEST(Profile, FindAndReserveMatchesSearchThenReserve) {
  MultiProfile fused{10};
  MultiProfile stepwise{10};
  fused.reserve(0, 100, 8, 0);
  stepwise.reserve(0, 100, 8, 0);
  fused.reserve(200, 300, 8, 0);
  stepwise.reserve(200, 300, 8, 0);

  const sim::Time got = fused.find_and_reserve(6, 0, 100, 0);
  const sim::Time want = stepwise.earliest_anchor(6, 0, 100, 0);
  stepwise.reserve(want, want + 100, 6, 0);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, 100);  // the hole between the two reservations
  EXPECT_EQ(fused.segments(), stepwise.segments());

  // A shape that cannot use the hole lands after everything, in both.
  const sim::Time got2 = fused.find_and_reserve(6, 0, 101, 0);
  const sim::Time want2 = stepwise.earliest_anchor(6, 0, 101, 0);
  stepwise.reserve(want2, want2 + 101, 6, 0);
  EXPECT_EQ(got2, want2);
  EXPECT_EQ(got2, 300);
  EXPECT_EQ(fused.segments(), stepwise.segments());
  EXPECT_NO_THROW(fused.check_invariants());
}

TEST(Profile, FindAndReserveRespectsNotBefore) {
  MultiProfile p{4};
  EXPECT_EQ(p.find_and_reserve(4, 0, 10, 500), 500);
  EXPECT_EQ(p.procs_free_at(499), 4);
  EXPECT_EQ(p.procs_free_at(500), 0);
  EXPECT_EQ(p.procs_free_at(510), 4);
  // Negative not_before clamps to 0 like earliest_anchor.
  EXPECT_EQ(p.find_and_reserve(4, 0, 10, -7), 0);
  EXPECT_EQ(p.procs_free_at(0), 0);
}

TEST(Profile, FindAndReserveRejectsBadArguments) {
  MultiProfile p{8};
  EXPECT_THROW((void)p.find_and_reserve(0, 0, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)p.find_and_reserve(9, 0, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)p.find_and_reserve(1, 0, 0, 0), std::invalid_argument);
}

TEST(Profile, AnchorOnEmptyMachineIsImmediate) {
  const MultiProfile p{16};
  EXPECT_EQ(p.earliest_anchor(16, 0, 1000, 0), 0);
  EXPECT_EQ(p.earliest_anchor(1, 0, 1, 12345), 12345);
}

TEST(Profile, AnchorWaitsForBlockingReservation) {
  MultiProfile p{10};
  p.reserve(0, 100, 8, 0);  // only 2 free until t=100
  EXPECT_EQ(p.earliest_anchor(2, 0, 50, 0), 0);
  EXPECT_EQ(p.earliest_anchor(3, 0, 50, 0), 100);
  EXPECT_EQ(p.earliest_anchor(10, 0, 1, 0), 100);
}

TEST(Profile, AnchorFindsHoleBetweenReservations) {
  MultiProfile p{10};
  p.reserve(0, 100, 8, 0);
  p.reserve(200, 300, 8, 0);
  // 10 free in [100, 200): a 100 s job of 6 procs fits in the hole.
  EXPECT_EQ(p.earliest_anchor(6, 0, 100, 0), 100);
  // A 101 s job of 6 procs cannot fit in the hole: the window
  // [100, 201) dips to 2 free at t=200.
  EXPECT_EQ(p.earliest_anchor(6, 0, 101, 0), 300);
  // But a 2-proc job of any length fits immediately.
  EXPECT_EQ(p.earliest_anchor(2, 0, 10000, 0), 0);
}

TEST(Profile, AnchorRespectsNotBefore) {
  MultiProfile p{10};
  p.reserve(50, 150, 9, 0);
  EXPECT_EQ(p.earliest_anchor(5, 0, 10, 0), 0);
  EXPECT_EQ(p.earliest_anchor(5, 0, 10, 20), 20);  // fits in [20, 30)
  EXPECT_EQ(p.earliest_anchor(5, 0, 40, 20), 150);  // [20,60) blocked at 50
  EXPECT_EQ(p.earliest_anchor(1, 0, 10, 70), 70);
}

TEST(Profile, AnchorExactlyAtWindowBoundary) {
  MultiProfile p{4};
  p.reserve(0, 100, 4, 0);
  // Machine free from t=100; a job needing everything anchors there.
  EXPECT_EQ(p.earliest_anchor(4, 0, 100, 0), 100);
  // A job that would end exactly when the blockade begins fits before it.
  MultiProfile q{4};
  q.reserve(100, 200, 4, 0);
  EXPECT_EQ(q.earliest_anchor(4, 0, 100, 0), 0);
  EXPECT_EQ(q.earliest_anchor(4, 0, 101, 0), 200);
}

TEST(Profile, AnchorRejectsBadArguments) {
  const MultiProfile p{8};
  EXPECT_THROW((void)p.earliest_anchor(0, 0, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)p.earliest_anchor(9, 0, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)p.earliest_anchor(1, 0, 0, 0), std::invalid_argument);
}

TEST(Profile, FitsChecksWindow) {
  MultiProfile p{10};
  p.reserve(100, 200, 8, 0);
  EXPECT_TRUE(p.fits(10, 0, 0, 100));
  EXPECT_FALSE(p.fits(3, 0, 50, 150));
  EXPECT_TRUE(p.fits(2, 0, 50, 150));
  EXPECT_TRUE(p.fits(10, 0, 200, 500));
  EXPECT_TRUE(p.fits(10, 0, 150, 150));  // empty window
}

TEST(Profile, SegmentsAreCoalesced) {
  MultiProfile p{10};
  p.reserve(0, 100, 4, 0);
  p.reserve(100, 200, 4, 0);  // same level: one logical segment
  const auto segs = p.segments();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (MultiProfile::Segment{0, 6, 0}));
  EXPECT_EQ(segs[1], (MultiProfile::Segment{200, 10, 0}));
}

TEST(Profile, BreakpointCountStaysBounded) {
  // Coalescing keeps the map from growing without bound when
  // reservations are added and released repeatedly.
  MultiProfile p{16};
  for (int round = 0; round < 200; ++round) {
    const sim::Time t = round * 10;
    p.reserve(t, t + 100, 4, 0);
    p.release(t, t + 100, 4, 0);
  }
  EXPECT_LE(p.breakpoints(), 4u);
}

// ---------------------------------------------------------------------
// Property test: the profile must agree with a brute-force reference
// model (a plain array over discretized time) under random operation
// sequences.
// ---------------------------------------------------------------------

class ReferenceProfile {
 public:
  ReferenceProfile(int total, sim::Time horizon)
      : total_(total), free_(static_cast<std::size_t>(horizon), total) {}

  [[nodiscard]] int free_at(sim::Time t) const {
    return free_[static_cast<std::size_t>(t)];
  }

  void apply(sim::Time b, sim::Time e, int delta) {
    for (sim::Time t = b; t < e; ++t)
      free_[static_cast<std::size_t>(t)] += delta;
  }

  [[nodiscard]] sim::Time earliest_anchor(int procs, sim::Time dur,
                                          sim::Time not_before) const {
    const auto horizon = static_cast<sim::Time>(free_.size());
    for (sim::Time s = not_before;; ++s) {
      bool ok = true;
      for (sim::Time t = s; t < s + dur; ++t) {
        const int f = t < horizon ? free_[static_cast<std::size_t>(t)] : total_;
        if (f < procs) {
          ok = false;
          break;
        }
      }
      if (ok) return s;
    }
  }

 private:
  int total_;
  std::vector<int> free_;
};

class ProfilePropertyTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfilePropertyTest, MatchesReferenceModel) {
  constexpr int kProcs = 12;
  constexpr sim::Time kHorizon = 300;
  sim::Rng rng{GetParam()};
  MultiProfile profile{kProcs};
  ReferenceProfile reference{kProcs, kHorizon};

  struct Live {
    sim::Time b, e;
    int procs;
  };
  std::vector<Live> live;

  for (int step = 0; step < 400; ++step) {
    const bool do_release = !live.empty() && rng.bernoulli(0.45);
    if (do_release) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const Live r = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      profile.release(r.b, r.e, r.procs, 0);
      reference.apply(r.b, r.e, r.procs);
    } else {
      const sim::Time b = rng.uniform_int(0, kHorizon - 20);
      const sim::Time e = b + rng.uniform_int(1, 19);
      const int procs = static_cast<int>(rng.uniform_int(1, 4));
      // Only reserve when capacity allows (mirrors scheduler behaviour).
      bool fits = true;
      for (sim::Time t = b; t < e; ++t)
        if (reference.free_at(t) < procs) fits = false;
      if (!fits) continue;
      profile.reserve(b, e, procs, 0);
      reference.apply(b, e, -procs);
      live.push_back({b, e, procs});
    }

    ASSERT_NO_THROW(profile.check_invariants());
    for (sim::Time t = 0; t < kHorizon; t += 7)
      ASSERT_EQ(profile.procs_free_at(t), reference.free_at(t)) << "t=" << t;

    // Spot-check anchors with random shapes.
    const int aprocs = static_cast<int>(rng.uniform_int(1, kProcs));
    const sim::Time adur = rng.uniform_int(1, 40);
    const sim::Time afrom = rng.uniform_int(0, kHorizon);
    ASSERT_EQ(profile.earliest_anchor(aprocs, 0, adur, afrom),
              reference.earliest_anchor(aprocs, adur, afrom))
        << "procs=" << aprocs << " dur=" << adur << " from=" << afrom;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ProfilePropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bfsim::core
