#include "core/compression.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bfsim::core {

void compress_queue(const JobQueue& queue, MultiProfile& profile,
                    TimeByJob& reservations, ReservationHeap& due, Time now,
                    Time released_begin, Time released_end,
                    CompressionStats& stats) {
  if (queue.empty()) return;
  Time lo = released_begin;
  Time hi = released_end;
  while (lo < hi) {
    ++stats.rounds;
    Time next_lo = sim::kTimeMax;
    Time next_hi = 0;
    for (const Job& job : queue) {
      const Time start = reservations.at(job.id);
      if (start <= lo) continue;  // nothing released before its start
      ++stats.tested;
      if (!profile.anchors_earlier(job.procs, job.bb, job.estimate, start,
                                   now, lo, hi))
        continue;
      const Time end = sim::saturating_add(start, job.estimate);
      profile.release(start, end, job.procs, job.bb);
      const Time anchor =
          profile.find_and_reserve(job.procs, job.bb, job.estimate, now);
      if (anchor >= start)
        throw std::logic_error(
            "compress_queue: the move test picked job " +
            std::to_string(job.id) + " but it re-anchored at " +
            std::to_string(anchor) + ", not before " + std::to_string(start));
      ++stats.reanchored;
      reservations.set(job.id, anchor);
      due.push(anchor, job.id);
      // The vacated slot is fresh capacity for the jobs behind this one
      // (it starts past `lo`, so only the log's end can grow) and for
      // the whole next round.
      hi = std::max(hi, end);
      next_lo = std::min(next_lo, start);
      next_hi = std::max(next_hi, end);
    }
    lo = next_lo;
    hi = next_hi;
  }
}

}  // namespace bfsim::core
