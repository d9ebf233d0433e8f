// ReservationHeap: the addressable due-heap the reservation-holding
// schedulers answer every wake-up from. Directed cases for each
// operation, then a seeded random walk against a std::set reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/job_table.hpp"
#include "core/reservation_heap.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bfsim::core {
namespace {

/// The heap and the scheduler-side id -> start table it must mirror.
struct Held {
  ReservationHeap heap;
  TimeByJob starts;

  void set(JobId id, Time start) {
    starts.set(id, start);
    heap.push(start, id);
  }
  void cancel(JobId id) {
    starts.erase(id);
    heap.erase(id);
  }
  std::vector<JobId> take_due(Time now) {
    std::vector<JobId> due;
    heap.take_due(now, starts, due);
    for (JobId id : due) starts.erase(id);
    return due;
  }
  [[nodiscard]] Time earliest() const { return heap.earliest(starts); }
};

TEST(ReservationHeap, EmptyHasNoEarliest) {
  Held held;
  EXPECT_EQ(held.earliest(), sim::kNoTime);
  EXPECT_EQ(held.heap.size(), 0u);
  EXPECT_TRUE(held.take_due(0).empty());
}

TEST(ReservationHeap, UpsertMovesTheOneEntryEarlierLaterOrNowhere) {
  Held held;
  held.set(1, 50);
  held.set(2, 40);
  held.set(3, 60);
  EXPECT_EQ(held.earliest(), 40);
  held.set(3, 10);  // earlier: becomes the top
  EXPECT_EQ(held.earliest(), 10);
  EXPECT_EQ(held.heap.size(), 3u);
  held.set(3, 90);  // later: sinks below the others
  EXPECT_EQ(held.earliest(), 40);
  held.set(2, 40);  // same start: nothing moves
  EXPECT_EQ(held.earliest(), 40);
  EXPECT_EQ(held.heap.size(), 3u);
  EXPECT_EQ(held.take_due(40), std::vector<JobId>{2});
  EXPECT_EQ(held.take_due(50), std::vector<JobId>{1});
  EXPECT_EQ(held.take_due(90), std::vector<JobId>{3});
  EXPECT_EQ(held.heap.size(), 0u);
}

TEST(ReservationHeap, EraseTheTopAndAnInnerEntry) {
  Held held;
  for (JobId id = 0; id < 7; ++id) held.set(id, 100 + 10 * id);
  held.cancel(0);  // the top
  EXPECT_EQ(held.earliest(), 110);
  held.cancel(4);  // an inner entry
  held.cancel(4);  // a second erase is a no-op
  held.cancel(99);  // so is erasing a job the index never saw
  EXPECT_EQ(held.heap.size(), 5u);
  std::vector<Time> order;
  while (held.heap.size() > 0) {
    const Time t = held.earliest();
    order.push_back(t);
    (void)held.take_due(t);
  }
  EXPECT_EQ(order, (std::vector<Time>{110, 120, 130, 150, 160}));
}

TEST(ReservationHeap, TakeDueTakesEveryJobDueAtOnceWithoutDuplicates) {
  Held held;
  held.set(5, 30);
  held.set(2, 30);
  held.set(9, 31);
  held.set(7, 30);
  held.set(2, 20);  // re-anchored twice: still one entry
  held.set(2, 30);
  EXPECT_EQ(held.heap.size(), 4u);
  EXPECT_EQ(held.take_due(30), (std::vector<JobId>{2, 5, 7}));
  EXPECT_EQ(held.earliest(), 31);
  EXPECT_EQ(held.heap.size(), 1u);
  EXPECT_TRUE(held.take_due(30).empty());
}

TEST(ReservationHeap, TakeDueAppendsToTheCallersBuffer) {
  Held held;
  held.set(3, 10);
  std::vector<JobId> due{42};
  held.heap.take_due(10, held.starts, due);
  EXPECT_EQ(due, (std::vector<JobId>{42, 3}));
}

TEST(ReservationHeap, RebuildReplacesEveryEntry) {
  Held held;
  held.set(1, 10);
  held.set(2, 20);
  TimeByJob fresh;
  for (JobId id = 3; id < 40; ++id) fresh.set(id, 1000 - 7 * id);
  held.starts = fresh;
  held.heap.rebuild(held.starts);
  EXPECT_EQ(held.heap.size(), 37u);
  EXPECT_EQ(held.earliest(), 1000 - 7 * 39);
  // The old jobs are gone from the index as well: re-adding one inserts.
  held.set(1, 5);
  EXPECT_EQ(held.heap.size(), 38u);
  EXPECT_EQ(held.earliest(), 5);
  Time last = 0;
  while (held.heap.size() > 0) {
    const Time t = held.earliest();
    EXPECT_GT(t, last);
    last = t;
    EXPECT_EQ(held.take_due(t).size(), 1u);
  }
}

TEST(ReservationHeap, ClearForgetsEveryJob) {
  Held held;
  held.set(4, 10);
  held.set(8, 20);
  held.heap.clear();
  held.starts = TimeByJob{};
  EXPECT_EQ(held.heap.size(), 0u);
  EXPECT_EQ(held.earliest(), sim::kNoTime);
  held.set(8, 30);  // inserts afresh after a clear
  EXPECT_EQ(held.heap.size(), 1u);
  EXPECT_EQ(held.earliest(), 30);
}

TEST(ReservationHeap, IdsBeyondTheIndexGrowIt) {
  Held held;
  held.set(2, 50);
  held.set(100000, 40);
  EXPECT_EQ(held.earliest(), 40);
  held.cancel(100000);
  EXPECT_EQ(held.earliest(), 50);
  held.heap.erase(200000);  // far past the index: a no-op
  EXPECT_EQ(held.heap.size(), 1u);
}

TEST(ReservationHeap, EarliestRejectsAnEntryTheTableDoesNotHold) {
  // A scheduler that drops a reservation without telling the heap is a
  // bookkeeping bug, reported at the next wake-up question.
  Held held;
  held.set(1, 10);
  held.starts.erase(1);
  EXPECT_THROW((void)held.earliest(), std::logic_error);
}

class ReservationHeapProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationHeapProperty, MatchesASetOfLiveReservations) {
  sim::Rng rng{GetParam()};
  Held held;
  std::set<std::pair<Time, JobId>> reference;
  std::vector<Time> start_of(64, sim::kNoTime);
  Time now = 0;
  const auto drop = [&](JobId id) {
    reference.erase({start_of[id], id});
    start_of[id] = sim::kNoTime;
  };
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<JobId>(rng.uniform_int(0, 63));
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 55) {
      // Assign, or move earlier or later; never before the clock.
      const Time start = now + rng.uniform_int(0, 200);
      if (start_of[id] != sim::kNoTime) drop(id);
      start_of[id] = start;
      reference.insert({start, id});
      held.set(id, start);
    } else if (op < 70) {
      if (start_of[id] != sim::kNoTime) drop(id);
      held.cancel(id);
    } else if (op < 95) {
      // Advance the clock to the next due instant and start those jobs.
      if (reference.empty()) continue;
      now = reference.begin()->first;
      std::vector<JobId> want;
      while (!reference.empty() && reference.begin()->first == now) {
        want.push_back(reference.begin()->second);
        drop(reference.begin()->second);
      }
      ASSERT_EQ(held.take_due(now), want) << "step " << step;
    } else {
      held.heap.rebuild(held.starts);
    }
    ASSERT_EQ(held.heap.size(), reference.size()) << "step " << step;
    ASSERT_EQ(held.heap.size(), held.starts.size()) << "step " << step;
    ASSERT_EQ(held.earliest(),
              reference.empty() ? sim::kNoTime : reference.begin()->first)
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ReservationHeapProperty,
                         testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace bfsim::core
