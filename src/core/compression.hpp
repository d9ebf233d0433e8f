// bfsim -- queue compression for the schedulers that hold a guarantee
// for every queued job (conservative, slack).
//
// When capacity is released (an early finish, a cancelled reservation)
// queued jobs may re-anchor earlier. Compression visits the queue in
// priority order and moves every job that can move, repeating until a
// round moves nobody: a late-priority job vacating its slot can unblock
// an earlier-priority job that was already visited.
//
// Most visited jobs cannot move, so each one first takes a read-only
// move test (MultiProfile::anchors_earlier) and only a mover pays for
// release + find_and_reserve. The test is exact, not a heuristic, because
// of one invariant: outside compression every queued job sits at its
// earliest anchor, so a window that fits wholly before its start must
// overlap capacity released since the job was last checked. Compression
// keeps the hull of those releases as its log: the triggering release
// for the first round, the slots vacated by the previous round's movers
// after that. A job whose start is at-or-before the log's begin gained
// nothing before its start and is not tested at all.
#pragma once

#include <cstdint>

#include "core/job_queue.hpp"
#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/reservation_heap.hpp"
#include "core/types.hpp"

namespace bfsim::core {

/// Deterministic work counters of compression (pure counts, no clock).
struct CompressionStats {
  std::uint64_t rounds = 0;      ///< priority-order passes over the queue
  std::uint64_t tested = 0;      ///< move tests run
  std::uint64_t reanchored = 0;  ///< reservations released and moved earlier
};

/// Compress `queue` (already in priority order) after `profile` gained
/// capacity over [released_begin, released_end), at-or-after `now`.
/// Every moved job gets its new start in `reservations` and `due`. On
/// return every reservation is at its earliest anchor again. Throws
/// std::logic_error if a job the move test picked does not move earlier.
void compress_queue(const JobQueue& queue, MultiProfile& profile,
                    TimeByJob& reservations, ReservationHeap& due, Time now,
                    Time released_begin, Time released_end,
                    CompressionStats& stats);

}  // namespace bfsim::core
