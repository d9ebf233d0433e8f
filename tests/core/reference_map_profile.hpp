// bfsim tests -- the original std::map-based availability profile, kept
// as the differential-testing reference for the flat-vector
// core::MultiProfile's processor axis (driven with bb == 0). Semantics
// are the contract; this implementation is the spec. Three deliberate
// deviations from the seed version, matching the production profile:
//   * fits() validates a negative window start instead of decrementing
//     points_.upper_bound(begin) past begin() (undefined behaviour);
//   * find_and_reserve() exists (search + reserve, unfused here);
//   * discard_before() exists (collapse the past into the origin key).
#pragma once

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace bfsim::core::test {

/// Reference model: time -> free processors in a std::map.
class MapProfile {
 public:
  /// A maximal constant piece of the timeline: `free` processors from
  /// `begin` until the next segment (the last segment extends forever).
  struct Segment {
    sim::Time begin;
    int free;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  explicit MapProfile(int total_procs) : total_(total_procs) {
    if (total_procs < 1)
      throw std::invalid_argument("MapProfile: total_procs must be >= 1");
    points_[0] = total_;
  }

  [[nodiscard]] int total() const { return total_; }

  [[nodiscard]] int free_at(sim::Time t) const {
    if (t < 0)
      throw std::invalid_argument("MapProfile::free_at: negative time");
    auto it = points_.upper_bound(t);
    --it;  // key 0 always exists, so it is valid
    return it->second;
  }

  [[nodiscard]] bool fits(int procs, sim::Time begin, sim::Time end) const {
    if (begin >= end) return true;
    if (begin < 0)
      throw std::invalid_argument("MapProfile::fits: negative window start");
    auto it = points_.upper_bound(begin);
    --it;
    for (; it != points_.end() && it->first < end; ++it)
      if (it->second < procs) return false;
    return true;
  }

  [[nodiscard]] sim::Time earliest_anchor(int procs, sim::Time duration,
                                          sim::Time not_before) const {
    if (procs < 1 || procs > total_)
      throw std::invalid_argument("MapProfile::earliest_anchor: bad procs");
    if (duration < 1)
      throw std::invalid_argument("MapProfile::earliest_anchor: bad duration");
    if (not_before < 0) not_before = 0;

    constexpr sim::Time kFar = std::numeric_limits<sim::Time>::max();
    auto it = points_.upper_bound(not_before);
    --it;
    sim::Time candidate = not_before;
    for (;;) {
      auto scan = it;
      bool ok = true;
      while (true) {
        if (scan->second < procs) {
          ok = false;
          break;
        }
        auto next = std::next(scan);
        const sim::Time seg_end = next == points_.end() ? kFar : next->first;
        if (seg_end >= candidate + duration) break;
        scan = next;
      }
      if (ok) return candidate;
      do {
        ++scan;
      } while (scan->second < procs);
      candidate = scan->first;
      it = scan;
    }
  }

  sim::Time find_and_reserve(int procs, sim::Time duration,
                             sim::Time not_before) {
    const sim::Time anchor = earliest_anchor(procs, duration, not_before);
    reserve(anchor, anchor + duration, procs);
    return anchor;
  }

  void reserve(sim::Time begin, sim::Time end, int procs) {
    if (procs < 0)
      throw std::invalid_argument("MapProfile::reserve: procs < 0");
    apply(begin, end, -procs);
  }

  void release(sim::Time begin, sim::Time end, int procs) {
    if (procs < 0)
      throw std::invalid_argument("MapProfile::release: procs < 0");
    apply(begin, end, procs);
  }

  /// Forget the past before `t`: [0, t) takes the value at t.
  void discard_before(sim::Time t) {
    if (t <= 0) return;
    const int value = free_at(t);
    points_.erase(points_.begin(), points_.upper_bound(t));
    points_[0] = value;
  }

  [[nodiscard]] std::vector<Segment> segments() const {
    std::vector<Segment> out;
    out.reserve(points_.size());
    for (const auto& [time, free] : points_) {
      if (!out.empty() && out.back().free == free) continue;
      out.push_back(Segment{time, free});
    }
    return out;
  }

  void check_invariants() const {
    if (points_.empty() || points_.begin()->first != 0)
      throw std::logic_error("MapProfile: missing origin breakpoint");
    for (const auto& [time, free] : points_) {
      if (free < 0 || free > total_)
        throw std::logic_error("MapProfile: free out of range at t=" +
                               std::to_string(time));
    }
    if (points_.rbegin()->second != total_)
      throw std::logic_error("MapProfile: tail segment is not fully free");
  }

 private:
  int total_;
  std::map<sim::Time, int> points_;

  std::map<sim::Time, int>::iterator ensure_point(sim::Time t) {
    auto it = points_.lower_bound(t);
    if (it != points_.end() && it->first == t) return it;
    const int value = std::prev(it)->second;
    return points_.emplace_hint(it, t, value);
  }

  void apply(sim::Time begin, sim::Time end, int delta) {
    if (begin < 0)
      throw std::invalid_argument("MapProfile: negative interval start");
    if (begin >= end) return;
    const auto first = ensure_point(begin);
    ensure_point(end);
    for (auto it = first; it->first < end; ++it) {
      const int updated = it->second + delta;
      if (updated < 0)
        throw std::logic_error("MapProfile: over-reservation at t=" +
                               std::to_string(it->first));
      if (updated > total_)
        throw std::logic_error("MapProfile: double release at t=" +
                               std::to_string(it->first));
      it->second = updated;
    }
    coalesce_around(begin, end);
  }

  void coalesce_around(sim::Time begin, sim::Time end) {
    auto it = points_.upper_bound(begin);
    if (it != points_.begin()) --it;
    if (it != points_.begin()) --it;
    while (it != points_.end() && it->first <= end) {
      auto next = std::next(it);
      if (next == points_.end()) break;
      if (next->second == it->second) {
        points_.erase(next);
      } else {
        ++it;
      }
    }
  }
};

}  // namespace bfsim::core::test
