// Differential test: the flat-vector core::MultiProfile, driven with
// bb == 0, against the original std::map implementation
// (tests/core/reference_map_profile.hpp) under randomized operation
// sequences. The flat profile must be behavior-equivalent on its
// processor axis: identical segments, breakpoint count, anchors, fits()
// verdicts and free-processor values after every operation, with both
// sides' internal invariants intact throughout. This is also the
// procs-only half of the "procs-only schedules are byte-identical"
// guarantee: it reaches large horizons and discard_before, which the
// per-timestep oracle in test_multi_profile.cpp does not.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/multi_profile.hpp"
#include "core/reference_map_profile.hpp"
#include "sim/rng.hpp"

namespace bfsim::core {
namespace {

using test::MapProfile;

/// The processor axis of `flat` in the reference's segment type; the
/// buffer axis must be absent everywhere.
std::vector<MapProfile::Segment> procs_segments(const MultiProfile& flat) {
  std::vector<MapProfile::Segment> out;
  for (const MultiProfile::Segment& s : flat.segments()) {
    EXPECT_EQ(s.bb, 0) << "t=" << s.begin;
    out.push_back({s.begin, s.procs});
  }
  return out;
}

void expect_equivalent(const MultiProfile& flat, const MapProfile& reference,
                       sim::Time horizon) {
  ASSERT_NO_THROW(flat.check_invariants());
  ASSERT_NO_THROW(reference.check_invariants());
  const auto want = reference.segments();
  ASSERT_EQ(procs_segments(flat), want);
  // Coalescing pins the representation: one breakpoint per segment.
  ASSERT_EQ(flat.breakpoints(), want.size());
  for (sim::Time t = 0; t <= horizon; t += 13)
    ASSERT_EQ(flat.procs_free_at(t), reference.free_at(t)) << "t=" << t;
}

class ProfileDifferentialTest : public testing::TestWithParam<std::uint64_t> {
};

TEST_P(ProfileDifferentialTest, FlatMatchesMapUnderRandomOps) {
  constexpr int kProcs = 48;
  constexpr sim::Time kHorizon = 100000;
  sim::Rng rng{GetParam()};
  MultiProfile flat{kProcs};  // total_bb defaults to 0: axis absent
  MapProfile reference{kProcs};

  struct Live {
    sim::Time b, e;
    int procs;
  };
  std::vector<Live> live;

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.28 && !live.empty()) {
      // Release a random live rectangle (possibly only its tail, the
      // early-completion pattern; the head stays live).
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Live& r = live[idx];
      const bool tail_only = r.e - r.b > 2 && rng.bernoulli(0.4);
      const sim::Time from =
          tail_only ? r.b + rng.uniform_int(1, r.e - r.b - 1) : r.b;
      flat.release(from, r.e, r.procs, 0);
      reference.release(from, r.e, r.procs);
      if (tail_only) {
        r.e = from;
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else if (dice < 0.58) {
      // Fused find-and-reserve against reference search + reserve.
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const sim::Time dur = rng.uniform_int(1, 4000);
      const sim::Time from = rng.uniform_int(0, kHorizon);
      const sim::Time got = flat.find_and_reserve(procs, 0, dur, from);
      const sim::Time want = reference.find_and_reserve(procs, dur, from);
      ASSERT_EQ(got, want) << "procs=" << procs << " dur=" << dur
                           << " from=" << from;
      live.push_back({got, got + dur, procs});
    } else if (dice < 0.75) {
      // Plain reserve of a window that fits (mirrors scheduler usage).
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs / 2));
      const sim::Time b = rng.uniform_int(0, kHorizon);
      const sim::Time e = b + rng.uniform_int(1, 3000);
      if (!reference.fits(procs, b, e)) continue;
      flat.reserve(b, e, procs, 0);
      reference.reserve(b, e, procs);
      live.push_back({b, e, procs});
    } else if (dice < 0.87) {
      // discard_before exercises the hint and breakpoint bookkeeping.
      // Discarding settles the past, so the live set is trimmed the way
      // the scheduler trims it: rectangles wholly before the cut are
      // never released again, straddlers only ever release their
      // surviving tail.
      const sim::Time cut = rng.uniform_int(0, kHorizon / 4);
      flat.discard_before(cut);
      reference.discard_before(cut);
      std::erase_if(live, [cut](const Live& r) { return r.e <= cut; });
      for (Live& r : live) r.b = std::max(r.b, cut);
    } else {
      // Read-only spot checks with random shapes.
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const sim::Time dur = rng.uniform_int(1, 8000);
      const sim::Time from = rng.uniform_int(0, kHorizon);
      ASSERT_EQ(flat.earliest_anchor(procs, 0, dur, from),
                reference.earliest_anchor(procs, dur, from));
      ASSERT_EQ(flat.fits(procs, 0, from, from + dur),
                reference.fits(procs, from, from + dur));
    }
    expect_equivalent(flat, reference, kHorizon);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ProfileDifferentialTest,
                         testing::Values(11, 12, 13, 14, 15, 16, 31, 32, 33,
                                         34));

TEST(ProfileDifferential, RejectedOperationsLeaveBothUntouched) {
  MultiProfile flat{8};
  MapProfile reference{8};
  flat.reserve(10, 20, 8, 0);
  reference.reserve(10, 20, 8);
  EXPECT_THROW(flat.reserve(15, 25, 1, 0), std::logic_error);
  EXPECT_THROW(reference.reserve(15, 25, 1), std::logic_error);
  EXPECT_THROW(flat.release(0, 5, 1, 0), std::logic_error);
  EXPECT_THROW(reference.release(0, 5, 1), std::logic_error);
  // The flat profile guarantees full rollback; compare observable state
  // (values, not breakpoint bookkeeping) against the reference.
  EXPECT_EQ(procs_segments(flat), reference.segments());
  for (sim::Time t = 0; t < 40; ++t)
    EXPECT_EQ(flat.procs_free_at(t), reference.free_at(t));
}

}  // namespace
}  // namespace bfsim::core
