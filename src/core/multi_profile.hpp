// bfsim -- the availability profile: free capacity on every resource
// axis as a function of future time.
//
// The profile is the skyline of the schedule's resources x time chart:
// a piecewise-constant map from time to free capacity, net of running
// jobs (until their *estimated* completion), queued-job reservations
// and outages. Every profile-based scheduler and the auditor use it
// through earliest_anchor, reserve, release and find_and_reserve (a
// fused search + reserve). Two axes: processors, and the burst buffer
// of Kopanski & Rzadca (arXiv:2109.00082 / 2111.10200), where a
// reservation must hold both over its whole window. Procs-only runs use
// total_bb == 0 and bb == 0 demands.
//
// The timeline is a flat sorted vector of breakpoints rather than a
// std::map: anchor searches and rectangle updates are linear scans over
// contiguous memory, which compression passes hammer. It is kept fully
// coalesced (adjacent breakpoints differ on some axis), so breakpoints()
// counts maximal constant segments. tests/core/reference_map_profile.hpp
// keeps the std::map version as the differential oracle.
//
// Anchor searches consult a per-width hint cache (AnchorHint below): a
// search certifies "no segment with >= w free processors in [nb, t)",
// and later searches for widths >= w resume from t. The cache never
// changes a result (the map differential and hint property suites prove
// it). Reserves only remove capacity, so certificates survive them; a
// release over [b, e) truncates them at b.
//
// Certificates are keyed by processor width only. *Consulting* them is
// sound for any burst-buffer demand (a joint anchor needs the
// processors), but *recording* from a search with bb > 0 is not: its
// advance loop also skips segments blocked only on the buffer axis,
// which may have enough processors. Searches therefore record
// certificates only when bb == 0.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace bfsim::core {

/// Piecewise-constant free-capacity timeline over [0, +inf) on two
/// resource axes: processors and burst-buffer units (GB).
///
/// Invariants (checked by check_invariants, enforced by exceptions on
/// reserve/release): 0 <= procs_free(t) <= total_procs() and
/// 0 <= bb_free(t) <= total_bb() for all t, with both axes fully free
/// beyond the last breakpoint.
class MultiProfile {
 public:
  /// A maximal constant piece of the timeline: `procs` free processors
  /// and `bb` free burst-buffer units from `begin` until the next
  /// segment (the last segment extends forever). 16 bytes.
  struct Segment {
    sim::Time begin;
    int procs;
    int bb;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  /// total_bb == 0 means the burst-buffer axis is absent: every demand
  /// must then be bb == 0 and the timeline tracks processors alone.
  explicit MultiProfile(int total_procs, int total_bb = 0);

  [[nodiscard]] int total_procs() const { return total_procs_; }
  [[nodiscard]] int total_bb() const { return total_bb_; }

  /// Free processors at time t (t >= 0).
  [[nodiscard]] int procs_free_at(sim::Time t) const;
  /// Free burst-buffer units at time t (t >= 0).
  [[nodiscard]] int bb_free_at(sim::Time t) const;

  /// Earliest time s >= not_before such that procs_free(u) >= procs and
  /// bb_free(u) >= bb for all u in [s, s + duration). Requires
  /// 1 <= procs <= total_procs(), 0 <= bb <= total_bb(), duration >= 1.
  /// Always exists (the far future is fully free on every axis). Window
  /// ends saturate at sim::kTimeMax -- "forever", not UB.
  [[nodiscard]] sim::Time earliest_anchor(int procs, int bb,
                                          sim::Time duration,
                                          sim::Time not_before) const;

  /// Fused earliest_anchor + reserve: finds the earliest joint anchor
  /// and subtracts the (procs, bb) x duration rectangle there in the
  /// same traversal, returning the anchor. Same argument requirements
  /// as earliest_anchor.
  sim::Time find_and_reserve(int procs, int bb, sim::Time duration,
                             sim::Time not_before);

  /// Read-only move test for a rectangle this profile already holds:
  /// (procs, bb) over [start, start + duration). True exactly when
  /// releasing it would leave an anchor at-or-after `not_before` that is
  /// strictly earlier than `start` -- the answer of release +
  /// earliest_anchor < start + reserve back, with nothing mutated.
  ///
  /// A window that reaches `start` lies past it only inside the held
  /// rectangle, so it fits iff the capacity at start - 1 admits the
  /// demand: one lookup, whatever the hull. Windows lying wholly before
  /// `start` count only when they overlap [fresh_begin, fresh_end): the
  /// test scans just the segments in that hull and measures each run of
  /// segments admitting the demand that meets it, clipped to
  /// [not_before, start). Some run is at least `duration` long exactly
  /// when such a window exists, because a long enough run that meets the
  /// hull holds a window that meets it too. The defaults scan
  /// [not_before, start) whole; a caller that knows the rectangle sat at
  /// its earliest anchor before some releases passes their hull, because
  /// only released capacity can open such a window. Same argument
  /// requirements as earliest_anchor.
  [[nodiscard]] bool anchors_earlier(int procs, int bb, sim::Time duration,
                                     sim::Time start, sim::Time not_before,
                                     sim::Time fresh_begin = 0,
                                     sim::Time fresh_end = sim::kTimeMax) const;

  /// True when `procs` processors and `bb` buffer units are free
  /// throughout [begin, end). Requires begin >= 0 for non-empty windows.
  [[nodiscard]] bool fits(int procs, int bb, sim::Time begin,
                          sim::Time end) const;

  /// Subtract (procs, bb) over [begin, end). Throws std::logic_error if
  /// this would drive either axis negative (an over-reservation bug);
  /// the profile is unchanged when it throws.
  void reserve(sim::Time begin, sim::Time end, int procs, int bb);

  /// Add (procs, bb) back over [begin, end). Throws std::logic_error if
  /// this would exceed either axis total (a double-release bug); the
  /// profile is unchanged when it throws.
  void release(sim::Time begin, sim::Time end, int procs, int bb);

  /// Forget all breakpoints strictly before `t`: the timeline keeps its
  /// exact shape on [t, +inf) while [0, t) collapses into the segment
  /// containing t (a lookup at a discarded instant returns its values).
  /// Schedulers whose clock has passed `t` call this to garbage-collect
  /// consumed history -- on-time completions never release their
  /// rectangle, so without pruning a long replay accumulates thousands
  /// of dead breakpoints that every binary search and memmove then pays
  /// for. Anchor searches with not_before >= t return the same anchors
  /// before and after (the hint and map differential suites prove it).
  void discard_before(sim::Time t);

  /// The full piecewise timeline, coalesced, for inspection and tests.
  [[nodiscard]] std::vector<Segment> segments() const;

  /// Number of internal breakpoints; storage is always coalesced.
  [[nodiscard]] std::size_t breakpoints() const { return points_.size(); }

  /// Throws std::logic_error if any internal invariant is broken.
  void check_invariants() const;

 private:
  int total_procs_;
  int total_bb_;
  /// Sorted by begin; points_[0].begin == 0 always, adjacent segments
  /// differ on at least one axis (coalesced), and the last segment is
  /// fully free on both axes by construction.
  std::vector<Segment> points_;

  /// One certificate of absent processor capacity: no time u in
  /// [not_before, bound) has procs_free(u) >= the bucket's width.
  /// bound <= not_before means "no information". Certificates are
  /// recorded per power-of-two width bucket: a search for `procs` stores
  /// under the smallest bucket width >= procs (weakening is sound: free
  /// >= bucket implies free >= procs) and consults every bucket width
  /// <= procs (strengthening is sound: free >= procs implies free >=
  /// bucket). The burst-buffer axis never weakens a certificate because
  /// recording is gated on bb == 0.
  struct AnchorHint {
    sim::Time not_before = 0;
    sim::Time bound = 0;
  };
  static constexpr std::size_t kHintBuckets = 16;
  /// Pure cache (mutable: recorded from const searches too). Never
  /// affects results, only where scans start.
  mutable std::array<AnchorHint, kHintBuckets> hints_{};

  /// Largest certified scan start for a (procs, not_before) query.
  [[nodiscard]] sim::Time hinted_start(int procs, sim::Time not_before) const;
  /// Record "no procs_free >= procs in [not_before, bound)". Callers
  /// only invoke this from bb == 0 searches (see file comment).
  void record_hint(int procs, sim::Time not_before, sim::Time bound) const;
  /// Truncate every certificate at a processor-capacity increase at `b`.
  void clamp_hints(sim::Time b);

  /// Index of the segment containing t (t >= 0): a branchless halving
  /// search over points_.
  [[nodiscard]] std::size_t segment_index(sim::Time t) const;
  /// Anchor search core: returns the anchor and the index of the segment
  /// containing it. Arguments already validated.
  [[nodiscard]] std::pair<sim::Time, std::size_t> anchor_from(
      int procs, int bb, sim::Time duration, sim::Time not_before) const;
  /// Add (dprocs, dbb) over [begin, end) given the index of the segment
  /// containing `begin`; splits boundary segments and re-coalesces.
  /// Capacity must have been validated by the caller.
  void apply_at(std::size_t first, sim::Time begin, sim::Time end, int dprocs,
                int dbb);
  /// Validated add: checks both axes stay within [0, total] over the
  /// whole window before mutating anything (strong exception guarantee).
  void apply(sim::Time begin, sim::Time end, int dprocs, int dbb);
};

}  // namespace bfsim::core
