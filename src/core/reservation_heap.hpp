// bfsim -- addressable min-heap over reservation start times.
//
// The reservation-holding schedulers (conservative, slack, plan) answer
// "what is the earliest guaranteed start?" from this heap in O(1). It is
// a binary heap on (start, id) with a JobId -> position index, so it
// holds exactly one entry per live reservation: moving a reservation
// updates its entry in place and a cancel erases it. Compression moves
// jobs earlier thousands of times per finish, so superseded entries left
// to go stale would outnumber the live ones by hundreds to one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_table.hpp"
#include "core/types.hpp"

namespace bfsim::core {

class ReservationHeap {
 public:
  /// Number of entries: exactly the live reservations.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Record that `id`'s guaranteed start is (now) `start`: insert the
  /// job, or move its one entry up or down to the new start.
  void push(Time start, JobId id) {
    if (id >= pos_.size()) pos_.resize(id + 1, kAbsent);
    const std::uint32_t p = pos_[id];
    if (p == kAbsent) {
      heap_.push_back({start, id});
      pos_[id] = static_cast<std::uint32_t>(heap_.size() - 1);
      sift_up(heap_.size() - 1);
      return;
    }
    const Time old = heap_[p].start;
    heap_[p].start = start;
    if (start < old)
      sift_up(p);
    else if (start > old)
      sift_down(p);
  }

  /// Drop `id`'s entry (its reservation went away without coming due:
  /// a cancel). No-op when the job holds none.
  void erase(JobId id) {
    if (id >= pos_.size() || pos_[id] == kAbsent) return;
    remove_at(pos_[id]);
  }

  void clear() {
    for (const Entry& e : heap_) pos_[e.id] = kAbsent;
    heap_.clear();
  }

  /// Re-seed from a full id -> start table (slack displacement and
  /// plan's full replan reassign every reservation wholesale).
  void rebuild(const TimeByJob& reservations) {
    clear();
    reservations.for_each([this](JobId id, Time start) { push(start, id); });
  }

  /// Earliest start held by any job, or sim::kNoTime when none. Throws
  /// std::logic_error when the heap disagrees with the scheduler's
  /// authoritative id -> start table (a bookkeeping bug: a reservation
  /// was set or dropped without telling the heap).
  [[nodiscard]] Time earliest(const TimeByJob& reservations) const {
    if (heap_.empty()) return sim::kNoTime;
    const Entry& top = heap_.front();
    if (reservations.get(top.id) != top.start)
      throw std::logic_error("ReservationHeap: job " + std::to_string(top.id) +
                             " is due at " + std::to_string(top.start) +
                             " but holds no such reservation");
    return top.start;
  }

  /// Pop every entry with start == `now`, appending the ids to `due` in
  /// increasing id order (callers re-impose priority order anyway).
  /// Appends so callers can reuse one scratch buffer across passes.
  void take_due(Time now, const TimeByJob& reservations,
                std::vector<JobId>& due) {
    while (earliest(reservations) == now) {
      due.push_back(heap_.front().id);
      remove_at(0);
    }
  }

 private:
  struct Entry {
    Time start;
    JobId id;
    [[nodiscard]] bool operator<(const Entry& other) const {
      if (start != other.start) return start < other.start;
      return id < other.id;
    }
  };
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(e < heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  /// Remove the entry at heap position i: the last entry fills the hole
  /// and moves whichever way restores the order.
  void remove_at(std::size_t i) {
    pos_[heap_[i].id] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    sift_up(i);
    sift_down(pos_[last.id]);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;  ///< indexed by JobId; kAbsent = none
};

}  // namespace bfsim::core
