// The plan-based scheduler (Kopanski & Rzadca): the whole reservation
// plan is re-optimized at every event, so guarantees float to the
// current best packing instead of being pinned forever like
// conservative backfilling's. These tests pin the semantics that make
// it distinct -- replan-on-event, plans that legally move later,
// joint-axis packing -- and then run it through the full simulator with
// the auditor's profile and reservation cross-checks fatal.
#include "core/plan_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "core/simulation.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using test::assign_random_bb;
using test::JobSpec;
using test::make_trace;
using test::random_trace;
using test::start_times;

Job make_job(JobId id, sim::Time submit, sim::Time estimate, int procs,
             int bb = 0) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = estimate;
  j.estimate = estimate;
  j.procs = procs;
  j.bb = bb;
  return j;
}

SimulationResult run(const Trace& trace, SchedulerConfig config) {
  PlanScheduler scheduler{config};
  return run_simulation(trace, scheduler, {.validate = true, .audit = true});
}

TEST(PlanScheduler, IdleMachineStartsAFittingJobImmediately) {
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  EXPECT_TRUE(scheduler.job_submitted(make_job(0, 0, 100, 4), 0));
  const auto starts = scheduler.select_starts(0);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].id, 0u);
  EXPECT_EQ(scheduler.full_replans() + scheduler.suffix_replans(),
            0u);  // the O(1) fast path, no replan
}

TEST(PlanScheduler, EveryQueuedJobHoldsAPlannedStart) {
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  scheduler.job_submitted(make_job(2, 2, 50, 2), 2);
  EXPECT_EQ(scheduler.reservation_of(2), 150);
  scheduler.job_submitted(make_job(3, 3, 40, 2), 3);
  // Replanned in FCFS order, job 3 packs beside job 2, not behind it.
  EXPECT_EQ(scheduler.reservation_of(3), 150);
}

TEST(PlanScheduler, ReplanMovesGuaranteesEarlierAfterAnEarlyFinish) {
  // Conservative backfilling keeps the reservation computed from the
  // estimate; the plan scheduler re-anchors from the true state.
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  Job head = make_job(0, 0, 100, 4);
  head.runtime = 10;  // finishes early
  scheduler.job_submitted(head, 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  EXPECT_TRUE(scheduler.job_finished(0, 10));
  EXPECT_EQ(scheduler.reservation_of(1), 10);  // the whole plan moved up
  const auto starts = scheduler.select_starts(10);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].id, 1u);
}

TEST(PlanScheduler, ReplanMayLegallyMoveAPlannedStartLater) {
  // Under SJF a shorter late arrival outranks a queued job at the next
  // replan, pushing the queued job's planned start later -- the exact
  // behavior the monotone-reservation audit hook would flag, and why
  // the plan scheduler declares it off.
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Sjf}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 80, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  scheduler.job_submitted(make_job(2, 2, 10, 4), 2);
  EXPECT_EQ(scheduler.reservation_of(2), 100);  // shorter: planned first
  EXPECT_EQ(scheduler.reservation_of(1), 110);  // moved later, by design
  EXPECT_FALSE(scheduler.audit_hooks().monotone_reservations);
}

TEST(PlanScheduler, PacksBothResourceAxesJointly) {
  // procs fit now, but the buffer is held by the running job -- the
  // plan must anchor the bb-hungry job at the release instant.
  PlanScheduler scheduler{
      SchedulerConfig{8, PriorityPolicy::Fcfs, /*burst_buffer=*/100}};
  scheduler.job_submitted(make_job(0, 0, 100, 2, 100), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 2, 50), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  // A buffer-free job of the same width backfills immediately.
  EXPECT_TRUE(scheduler.job_submitted(make_job(2, 2, 50, 2, 0), 2));
  EXPECT_EQ(scheduler.reservation_of(2), 2);
}

TEST(PlanScheduler, CancellingTheLastQueuedJobVacatesItsRectangle) {
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  EXPECT_FALSE(scheduler.job_cancelled(1, 5));
  EXPECT_NO_THROW(scheduler.profile().check_invariants());
  EXPECT_EQ(scheduler.profile().procs_free_at(100), 4);  // plan gone
  EXPECT_EQ(scheduler.queued_count(), 0u);
  EXPECT_EQ(scheduler.next_wakeup(), sim::kNoTime);
}

TEST(PlanScheduler, StaticPrioritySubmitsAndCancelsReplaceOnlyASuffix) {
  for (const PriorityPolicy priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf}) {
    PlanScheduler scheduler{SchedulerConfig{4, priority}};
    scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
    (void)scheduler.select_starts(0);
    for (JobId id = 1; id <= 10; ++id)
      scheduler.job_submitted(make_job(id, static_cast<sim::Time>(id),
                                       static_cast<sim::Time>(60 - 5 * id), 2),
                              static_cast<sim::Time>(id));
    scheduler.job_cancelled(4, 20);
    // No submit and no cancel rebuilt the plan; each re-placed a suffix.
    EXPECT_EQ(scheduler.full_replans(), 0u) << to_string(priority);
    EXPECT_EQ(scheduler.suffix_replans(), 11u) << to_string(priority);
    // A finish still replans in full.
    scheduler.job_finished(0, 50);
    EXPECT_EQ(scheduler.full_replans(), 1u) << to_string(priority);
    EXPECT_NO_THROW(scheduler.profile().check_invariants());
  }
}

TEST(PlanScheduler, OnTimeFinishReplansOnlyUnderXFactor) {
  // A job that runs to its estimate frees nothing from `now` on: under
  // a static order the plan stands, and only the clock-driven XFactor
  // order re-sorts the queue and replans in full.
  for (const PriorityPolicy priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor}) {
    PlanScheduler scheduler{SchedulerConfig{4, priority}};
    scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
    (void)scheduler.select_starts(0);
    for (JobId id = 1; id <= 3; ++id)
      scheduler.job_submitted(make_job(id, static_cast<sim::Time>(id),
                                       static_cast<sim::Time>(40 - 10 * id), 2),
                              static_cast<sim::Time>(id));
    const std::uint64_t before = scheduler.full_replans();
    EXPECT_TRUE(scheduler.job_finished(0, 100)) << to_string(priority);
    const bool xfactor = priority == PriorityPolicy::XFactor;
    EXPECT_EQ(scheduler.full_replans(), before + (xfactor ? 1 : 0))
        << to_string(priority);
    EXPECT_NO_THROW(scheduler.profile().check_invariants());
    // Either way the two jobs planned at the finish start now.
    EXPECT_EQ(scheduler.select_starts(100).size(), 2u) << to_string(priority);
  }
}

TEST(PlanScheduler, XFactorSubmitsReplanInFull) {
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::XFactor}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  for (JobId id = 1; id <= 5; ++id)
    scheduler.job_submitted(make_job(id, static_cast<sim::Time>(id), 30, 2),
                            static_cast<sim::Time>(id));
  EXPECT_EQ(scheduler.full_replans(), 5u);
  EXPECT_EQ(scheduler.suffix_replans(), 0u);
}

TEST(PlanScheduler, WakeupTracksTheEarliestPlannedStart) {
  PlanScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  EXPECT_EQ(scheduler.next_wakeup(), sim::kNoTime);
  scheduler.job_submitted(make_job(1, 1, 50, 2), 1);
  EXPECT_EQ(scheduler.next_wakeup(), 100);
}

TEST(PlanScheduler, SimultaneousStartsCommitInPriorityOrder) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 4},
      {.submit = 1, .runtime = 50, .procs = 2},
      {.submit = 2, .runtime = 50, .procs = 2},
  });
  const auto result = run(trace, SchedulerConfig{4, PriorityPolicy::Fcfs});
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 100, 100}));
}

TEST(PlanScheduler, FullSimulationStaysValidAndAuditClean) {
  for (const std::uint64_t seed : {401u, 402u, 403u}) {
    const Trace trace = random_trace(150, 16, seed, /*overestimate=*/true);
    const auto result = run(trace, SchedulerConfig{16, PriorityPolicy::Fcfs});
    EXPECT_EQ(result.scheduler_name, "plan-fcfs");
  }
}

TEST(PlanScheduler, FullSimulationWithBurstBuffersStaysValidAndAuditClean) {
  for (const std::uint64_t seed : {411u, 412u, 413u}) {
    Trace trace = random_trace(150, 16, seed, /*overestimate=*/true);
    assign_random_bb(trace, 64, seed ^ 0x9e37);
    (void)run(trace,
              SchedulerConfig{16, PriorityPolicy::Fcfs, /*burst_buffer=*/64});
  }
}

TEST(PlanScheduler, EveryPriorityPolicyRunsClean) {
  const Trace trace = random_trace(120, 8, 77, /*overestimate=*/true);
  for (const PriorityPolicy priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::Ljf,
        PriorityPolicy::XFactor}) {
    (void)run(trace, SchedulerConfig{8, priority});
  }
}

TEST(PlanScheduler, RegisteredWithTheFactoryAndKindStrings) {
  EXPECT_EQ(to_string(SchedulerKind::Plan), "plan");
  EXPECT_EQ(scheduler_kind_from_string("plan"), SchedulerKind::Plan);
  const auto scheduler = make_scheduler(
      SchedulerKind::Plan, SchedulerConfig{8, PriorityPolicy::Sjf}, {});
  EXPECT_EQ(scheduler->name(), "plan-sjf");
}

TEST(PlanScheduler, RejectsNegativeBurstBufferCapacity) {
  EXPECT_THROW(
      PlanScheduler(SchedulerConfig{8, PriorityPolicy::Fcfs, -1}),
      std::invalid_argument);
}

}  // namespace
}  // namespace bfsim::core
