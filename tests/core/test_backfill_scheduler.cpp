// core::BackfillScheduler, the reservation-depth kernel, in each of its
// three configurations. The suites keep the names of the policies they
// exercise: EASY (depth 1), K-reservation (depth K) and selective
// (promoted candidates, unbounded depth). Whole-schedule agreement with
// the rebuild-per-pass oracle lives in
// integration/test_backfill_oracle_differential.cpp.
#include "core/backfill_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/conservative_scheduler.hpp"
#include "core/reference_reservation_depth.hpp"
#include "core/simulation.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using test::JobSpec;
using test::make_trace;
using test::start_times;

/// A queued job for driving the hooks by hand.
Job job(JobId id, Time submit, Time estimate, int procs) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = j.estimate = estimate;
  j.procs = procs;
  return j;
}

// --- EASY: depth 1 ----------------------------------------------------
SimulationResult run_easy(const Trace& trace, int procs,
                          PriorityPolicy priority = PriorityPolicy::Fcfs) {
  BackfillScheduler scheduler{SchedulerConfig{procs, priority},
                              SchedulerKind::Easy};
  return run_simulation(trace, scheduler, {.validate = true});
}

TEST(EasyScheduler, BackfillsShortJobUnderTheShadow) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 2},  // J0 runs [0, 100)
      {.submit = 1, .runtime = 100, .procs = 4},  // J1 head, shadow = 100
      {.submit = 2, .runtime = 50, .procs = 2},   // ends 52 <= 100: backfills
      {.submit = 3, .runtime = 200, .procs = 2},  // would delay J1: waits
  });
  const auto result = run_easy(trace, 4);
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 100, 2, 200}));
}

TEST(EasyScheduler, HeadReservationIsHonoredExactly) {
  // Despite the backfill, the head starts exactly at its shadow time.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 2},
      {.submit = 1, .runtime = 10, .procs = 4},
      {.submit = 2, .runtime = 98, .procs = 2},  // ends exactly at 100
  });
  const auto result = run_easy(trace, 4);
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 100, 2}));
}

TEST(EasyScheduler, ExtraProcessorsAdmitLongBackfill) {
  // Shadow leaves one spare processor: a single-processor job may run
  // arbitrarily long without delaying the head.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 3},   // J0
      {.submit = 1, .runtime = 50, .procs = 4},    // J1 head: shadow 100,
                                                   // extra = (2+3)-4 = 1
      {.submit = 2, .runtime = 1000, .procs = 1},  // uses the spare proc
      {.submit = 3, .runtime = 1000, .procs = 1},  // extra exhausted: waits
  });
  const auto result = run_easy(trace, 5);
  ASSERT_EQ(result.outcomes.size(), 4u);
  EXPECT_EQ(result.outcomes[0].start, 0);
  EXPECT_EQ(result.outcomes[1].start, 100);  // head on time
  EXPECT_EQ(result.outcomes[2].start, 2);    // via extra
  EXPECT_EQ(result.outcomes[3].start, 150);  // after the head finishes
}

TEST(EasyScheduler, ShadowTieIncludesAllSimultaneousCompletions) {
  // Two jobs end at t=100 together. The shadow walk crosses the head's
  // requirement at the first of them; the extra processors must still
  // count the second (regression test for the tie bug).
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 3},   // ends 100
      {.submit = 0, .runtime = 100, .procs = 3},   // ends 100 too
      {.submit = 1, .runtime = 100, .procs = 5},   // head: shadow 100,
                                                   // extra = (2+3+3)-5 = 3
      {.submit = 2, .runtime = 1000, .procs = 2},  // fits in extra
  });
  const auto result = run_easy(trace, 8);
  EXPECT_EQ(result.outcomes[2].start, 100);
  EXPECT_EQ(result.outcomes[3].start, 2);
}

TEST(EasyScheduler, SjfPriorityPicksDifferentHead) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 4},
      {.submit = 1, .runtime = 500, .procs = 4},
      {.submit = 2, .runtime = 50, .procs = 4},
  });
  const auto fcfs = run_easy(trace, 4, PriorityPolicy::Fcfs);
  EXPECT_EQ(start_times(fcfs), (std::vector<sim::Time>{0, 100, 600}));
  const auto sjf = run_easy(trace, 4, PriorityPolicy::Sjf);
  EXPECT_EQ(start_times(sjf), (std::vector<sim::Time>{0, 150, 100}));
}

TEST(EasyScheduler, SjfStarvesWideJobWithoutReservation) {
  // Under SJF-EASY a wide long job never reaches the head of the queue
  // while shorter work keeps arriving: each batch of short jobs sorts
  // ahead of it and takes the machine. Under conservative backfilling
  // the same job is protected by its arrival-time reservation. This is
  // the mechanism behind the paper's worst-case turnaround blow-up
  // (Tables 4 and 7).
  std::vector<JobSpec> specs;
  specs.push_back({.submit = 0, .runtime = 100, .procs = 2});  // short
  specs.push_back({.submit = 0, .runtime = 100, .procs = 2});  // short
  specs.push_back({.submit = 1, .runtime = 1000, .procs = 4}); // wide victim
  for (int i = 0; i < 20; ++i)  // a steady stream of shorts
    specs.push_back({.submit = 5 + 50 * i, .runtime = 100, .procs = 2});
  const Trace trace = make_trace(specs);

  const auto easy = run_easy(trace, 4, PriorityPolicy::Sjf);
  // Shorts pair up in 100 s waves; the victim waits out all 10 waves.
  EXPECT_EQ(easy.outcomes[2].start, 1100);

  ConservativeScheduler cons{SchedulerConfig{4, PriorityPolicy::Sjf}};
  const auto cons_result = run_simulation(trace, cons, {.validate = true});
  // Conservative guaranteed the victim t=100 on arrival.
  EXPECT_EQ(cons_result.outcomes[2].start, 100);
}

TEST(EasyScheduler, LastShadowExposedForDiagnostics) {
  BackfillScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs},
                              SchedulerKind::Easy};
  Job a;
  a.id = 0;
  a.submit = 0;
  a.runtime = a.estimate = 100;
  a.procs = 4;
  scheduler.job_submitted(a, 0);
  (void)scheduler.select_starts(0);
  EXPECT_EQ(scheduler.last_shadow_time(), sim::kNoTime);  // nothing blocked
  Job b = a;
  b.id = 1;
  b.submit = 5;
  scheduler.job_submitted(b, 5);
  (void)scheduler.select_starts(5);
  EXPECT_EQ(scheduler.last_shadow_time(), 100);
}

TEST(EasyScheduler, RejectsJobWiderThanMachine) {
  // Too-wide jobs are rejected by the driver's trace validation before
  // any event reaches the scheduler.
  const Trace trace = make_trace({{.submit = 0, .runtime = 1, .procs = 9}});
  BackfillScheduler scheduler{SchedulerConfig{8, PriorityPolicy::Fcfs},
                              SchedulerKind::Easy};
  EXPECT_THROW((void)run_simulation(trace, scheduler), std::invalid_argument);
}

TEST(EasyScheduler, DrainsBurstArrivals) {
  // 50 simultaneous single-proc jobs on a 4-proc machine: EASY packs
  // them 4 at a time with no idle gaps.
  std::vector<JobSpec> specs;
  for (int i = 0; i < 50; ++i)
    specs.push_back({.submit = 0, .runtime = 10, .procs = 1});
  const auto result = run_easy(make_trace(specs), 4);
  EXPECT_EQ(result.makespan, 130);  // ceil(50/4) * 10
}

TEST(EasyScheduler, NameIncludesPriority) {
  const BackfillScheduler scheduler{
      SchedulerConfig{8, PriorityPolicy::XFactor}, SchedulerKind::Easy};
  EXPECT_EQ(scheduler.name(), "easy-xfactor");
}


TEST(EasyScheduler, LoneBlockedHeadNeedsNoPass) {
  BackfillScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs},
                              SchedulerKind::Easy};
  EXPECT_TRUE(scheduler.job_submitted(job(0, 0, 100, 3), 0));
  ASSERT_EQ(scheduler.select_starts(0).size(), 1u);
  // Blocked and alone: it becomes the holder, which constrains nobody.
  EXPECT_FALSE(scheduler.job_submitted(job(1, 5, 100, 4), 5));
  // Blocked behind the holder: skipped by a pass, so no pass is needed.
  EXPECT_FALSE(scheduler.job_submitted(job(2, 6, 10, 2), 6));
  // Fits the free processor, but would run past the shadow (t=100)
  // with no extra capacity left: the pass starts nothing.
  EXPECT_TRUE(scheduler.job_submitted(job(3, 7, 500, 1), 7));
  EXPECT_TRUE(scheduler.select_starts(7).empty());
  EXPECT_EQ(scheduler.last_shadow_time(), 100);
  EXPECT_FALSE(scheduler.job_cancelled(2, 8));  // skipped: blocked nobody
  // Withdrawing the holder frees its pin for job 3, which fits now.
  EXPECT_TRUE(scheduler.job_cancelled(1, 8));
  EXPECT_EQ(scheduler.select_starts(8).size(), 1u);
}

TEST(EasyScheduler, HeadGuaranteeAuditFollowsThePolicy) {
  const auto hooks = [](SchedulerKind kind, PriorityPolicy priority,
                        SchedulerExtras extras = {}) {
    return BackfillScheduler{SchedulerConfig{8, priority}, kind, extras}
        .audit_hooks();
  };
  const PriorityPolicy fcfs = PriorityPolicy::Fcfs;
  EXPECT_TRUE(hooks(SchedulerKind::Easy, fcfs).head_guarantee);
  EXPECT_FALSE(hooks(SchedulerKind::Easy, PriorityPolicy::Sjf).head_guarantee);
  EXPECT_TRUE(hooks(SchedulerKind::KReservation, fcfs,
                    {.reservation_depth = 1})
                  .head_guarantee);
  EXPECT_FALSE(hooks(SchedulerKind::KReservation, fcfs,
                     {.reservation_depth = 2})
                   .head_guarantee);
  EXPECT_FALSE(hooks(SchedulerKind::Selective, fcfs).head_guarantee);
  for (const SchedulerKind kind :
       {SchedulerKind::Easy, SchedulerKind::KReservation,
        SchedulerKind::Selective})
    EXPECT_TRUE(hooks(kind, fcfs).reservations);
}

// --- K-reservation: depth K ------------------------------------------

SimulationResult run_kres(const Trace& trace, int procs, int depth,
                          PriorityPolicy priority = PriorityPolicy::Fcfs) {
  BackfillScheduler scheduler{SchedulerConfig{procs, priority},
                              SchedulerKind::KReservation,
                              {.reservation_depth = depth}};
  return run_simulation(trace, scheduler, {.validate = true});
}

TEST(KReservation, RejectsNegativeDepth) {
  EXPECT_THROW((BackfillScheduler{SchedulerConfig{4, PriorityPolicy::Fcfs},
                                  SchedulerKind::KReservation,
                                  {.reservation_depth = -1}}),
               std::invalid_argument);
}

TEST(KReservation, DepthZeroIsGreedyNoGuarantee) {
  // With no reservations at all, short jobs leapfrog a blocked wide job
  // indefinitely as long as they fit.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 3},  // [0,100)
      {.submit = 1, .runtime = 10, .procs = 4},   // wide: no protection
      {.submit = 2, .runtime = 200, .procs = 1},  // runs [2,202): with K=1
                                                  // it would delay the head
  });
  const auto k0 = run_kres(trace, 4, 0);
  EXPECT_EQ(k0.outcomes[2].start, 2);     // leapfrogs freely
  EXPECT_EQ(k0.outcomes[1].start, 202);   // wide job pays
  const auto k1 = run_kres(trace, 4, 1);
  EXPECT_EQ(k1.outcomes[1].start, 100);   // head protected at its anchor
  // The narrow job must now respect the head's [100, 110) reservation:
  // its 200 s window no longer fits at t=2, so it follows the head.
  EXPECT_EQ(k1.outcomes[2].start, 110);
}

TEST(KReservation, DepthOneMatchesEasyOnHandScenario) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 2},
      {.submit = 1, .runtime = 100, .procs = 4},
      {.submit = 2, .runtime = 50, .procs = 2},
      {.submit = 3, .runtime = 200, .procs = 2},
  });
  const auto kres = run_kres(trace, 4, 1);
  EXPECT_EQ(start_times(kres), start_times(run_easy(trace, 4)));
  // ...and both match the rebuild-per-pass oracle at depth 1.
  test::ReferenceReservationDepth oracle{
      SchedulerConfig{4, PriorityPolicy::Fcfs}, SchedulerKind::Easy};
  EXPECT_EQ(start_times(kres),
            start_times(run_simulation(trace, oracle, {.validate = true})));
}

TEST(KReservation, DepthTwoProtectsSecondJob) {
  // The second blocked job holds a guarantee only at depth >= 2. The
  // 1-proc backfill candidate slips through the head's half-width
  // reservation, but at depth 2 the second job's full-width reservation
  // [200, 250) stands in its way.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 3},  // running [0, 100)
      {.submit = 1, .runtime = 100, .procs = 2},  // head: reserved [100,200)
      {.submit = 2, .runtime = 50, .procs = 4},   // second: blocked
      {.submit = 3, .runtime = 300, .procs = 1},  // backfill candidate
  });
  const auto k1 = run_kres(trace, 4, 1);
  // depth 1: the candidate's window [3, 303) has a free processor
  // throughout -- the head only reserves 2 of 4 in [100, 200) -- and job
  // 2 holds no guarantee, so the candidate starts immediately.
  EXPECT_EQ(k1.outcomes[3].start, 3);
  EXPECT_EQ(k1.outcomes[1].start, 100);
  const auto k2 = run_kres(trace, 4, 2);
  // depth 2: job 2 is guaranteed [200, 250) on the full machine; the
  // candidate's window would cut into it, so it waits until job 2 ends.
  EXPECT_EQ(k2.outcomes[3].start, 250);
  EXPECT_EQ(k2.outcomes[2].start, 200);
  // The protected job starts no later under depth 2 than under depth 1.
  EXPECT_LE(k2.outcomes[2].start, k1.outcomes[2].start);
}

TEST(KReservation, LargeDepthApproachesConservativeBehavior) {
  // With depth >= queue length every waiting job is protected: a later
  // arrival can never start before an earlier-arrived narrower window
  // would allow. We check the no-starvation effect: the widest job's
  // wait under large depth is <= its wait under depth 0.
  std::vector<JobSpec> specs;
  specs.push_back({.submit = 0, .runtime = 400, .procs = 6});
  specs.push_back({.submit = 1, .runtime = 300, .procs = 8});  // wide victim
  for (int i = 0; i < 30; ++i)
    specs.push_back({.submit = 2 + i * 5, .runtime = 120, .procs = 2});
  const Trace trace = make_trace(specs);
  const auto k0 = run_kres(trace, 8, 0);
  const auto kbig = run_kres(trace, 8, 64);
  EXPECT_LE(kbig.outcomes[1].start, k0.outcomes[1].start);
}

TEST(KReservation, NameEncodesDepthAndPriority) {
  const BackfillScheduler scheduler{SchedulerConfig{8, PriorityPolicy::Sjf},
                                    SchedulerKind::KReservation,
                                    {.reservation_depth = 4}};
  EXPECT_EQ(scheduler.name(), "kres4-sjf");
  EXPECT_EQ(scheduler.depth(), 4);
}

TEST(KReservation, FactoryBuildsWithExtras) {
  SchedulerExtras extras;
  extras.reservation_depth = 7;
  const auto scheduler =
      make_scheduler(SchedulerKind::KReservation,
                     SchedulerConfig{8, PriorityPolicy::Fcfs}, extras);
  EXPECT_EQ(scheduler->name(), "kres7-fcfs");
}


TEST(KReservation, AuditSeesEveryHolderOfTheLastPass) {
  // The DepthTwoProtectsSecondJob scenario, driven by hand.
  BackfillScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs},
                              SchedulerKind::KReservation,
                              {.reservation_depth = 2}};
  (void)scheduler.job_submitted(job(0, 0, 100, 3), 0);
  ASSERT_EQ(scheduler.select_starts(0).size(), 1u);
  (void)scheduler.job_submitted(job(1, 1, 100, 2), 1);
  (void)scheduler.job_submitted(job(2, 2, 50, 4), 2);
  (void)scheduler.job_submitted(job(3, 3, 300, 1), 3);
  EXPECT_TRUE(scheduler.select_starts(3).empty());
  const std::vector<AuditReservation> holders =
      scheduler.audit_reservations();
  ASSERT_EQ(holders.size(), 2u);
  EXPECT_EQ(holders[0].id, 1u);
  EXPECT_EQ(holders[0].start, 100);
  EXPECT_EQ(holders[1].id, 2u);
  EXPECT_EQ(holders[1].start, 200);
  EXPECT_EQ(scheduler.last_shadow_time(), 100);
  // A withdrawn holder leaves the report at once, pass or not.
  (void)scheduler.job_cancelled(1, 4);
  ASSERT_EQ(scheduler.audit_reservations().size(), 1u);
  EXPECT_EQ(scheduler.audit_reservations()[0].id, 2u);
}

TEST(KReservation, PassRulesUseTheActualQueuePosition) {
  BackfillScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs},
                              SchedulerKind::KReservation,
                              {.reservation_depth = 1}};
  (void)scheduler.job_submitted(job(0, 0, 100, 3), 0);
  ASSERT_EQ(scheduler.select_starts(0).size(), 1u);
  EXPECT_FALSE(scheduler.job_submitted(job(1, 1, 100, 4), 1));
  // Fits the free processor but would cut into job 1's reservation.
  EXPECT_TRUE(scheduler.job_submitted(job(2, 2, 200, 1), 2));
  EXPECT_TRUE(scheduler.select_starts(2).empty());
  // A requeued victim keeps its original submit, so even under FCFS it
  // sorts ahead of the holder and takes its guarantee: job 1 loses the
  // pin that was blocking job 2.
  EXPECT_TRUE(scheduler.job_submitted(job(3, 0, 100, 4), 3));
  EXPECT_TRUE(scheduler.select_starts(3).empty());
  EXPECT_TRUE(scheduler.job_cancelled(3, 4));   // the holder
  EXPECT_TRUE(scheduler.select_starts(4).empty());
  EXPECT_FALSE(scheduler.job_cancelled(2, 5));  // skipped: blocked nobody
}

// --- Selective: promoted candidates, unbounded depth -----------------

BackfillScheduler selective(SchedulerConfig config, double threshold,
                            bool adaptive = false) {
  return BackfillScheduler{
      config, SchedulerKind::Selective,
      {.xfactor_threshold = threshold, .selective_adaptive = adaptive}};
}

SimulationResult run_selective(const Trace& trace, int procs,
                               double threshold,
                               PriorityPolicy priority = PriorityPolicy::Fcfs) {
  BackfillScheduler scheduler =
      selective(SchedulerConfig{procs, priority}, threshold);
  return run_simulation(trace, scheduler, {.validate = true});
}

TEST(SelectiveScheduler, RejectsThresholdBelowOne) {
  EXPECT_THROW((void)selective(SchedulerConfig{4, PriorityPolicy::Fcfs}, 0.5),
               std::invalid_argument);
}

TEST(SelectiveScheduler, BackfillsGreedilyBeforePromotion) {
  // With a high threshold nothing is promoted early: behaves like pure
  // no-guarantee backfilling at first.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 3},
      {.submit = 1, .runtime = 10, .procs = 4},   // wide, unprotected
      {.submit = 2, .runtime = 90, .procs = 1},   // leapfrogs
  });
  const auto result = run_selective(trace, 4, 1000.0);
  EXPECT_EQ(result.outcomes[2].start, 2);
}

TEST(SelectiveScheduler, PromotionProtectsStarvingJob) {
  // A full-width job facing a steady stream of narrow work starves
  // without a reservation (the stream keeps two 1-proc jobs running, so
  // four processors are never simultaneously free); once its expansion
  // factor crosses the threshold it gets a guarantee and the stream must
  // flow around it (the paper's Section 6 cure).
  std::vector<JobSpec> specs;
  specs.push_back({.submit = 0, .runtime = 100, .procs = 3});
  specs.push_back({.submit = 1, .runtime = 50, .procs = 4});  // the victim
  for (int i = 0; i < 40; ++i)  // 1-proc stream, 100 s each, every 50 s
    specs.push_back({.submit = 2 + i * 50, .runtime = 100, .procs = 1});
  const Trace trace = make_trace(specs);

  const auto greedy = run_selective(trace, 4, 1e9);     // never promote
  const auto selective = run_selective(trace, 4, 3.0);  // promote at xfactor 3
  // Greedy: the victim waits for the entire stream to drain.
  EXPECT_GE(greedy.outcomes[1].wait(), 1500);
  // Selective: promotion fires once the wait reaches ~2 estimates
  // (xfactor 3 at estimate 50), and the reservation lands soon after.
  EXPECT_LT(selective.outcomes[1].wait(), greedy.outcomes[1].wait());
  EXPECT_LE(selective.outcomes[1].wait(), 400);
}

TEST(SelectiveScheduler, ThresholdOnePromotesOnFirstSchedulingPass) {
  BackfillScheduler scheduler =
      selective(SchedulerConfig{4, PriorityPolicy::Fcfs}, 1.0);
  Job a;
  a.id = 0;
  a.submit = 0;
  a.runtime = a.estimate = 100;
  a.procs = 4;
  Job b = a;
  b.id = 1;
  b.submit = 0;
  scheduler.job_submitted(a, 0);
  scheduler.job_submitted(b, 0);
  (void)scheduler.select_starts(0);
  // Job 0 started; job 1 queued and, at threshold 1.0, already promoted.
  EXPECT_EQ(scheduler.promoted_count(), 1u);
}

TEST(SelectiveScheduler, PromotedJobStartsAtItsAnchor) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 4},
      {.submit = 1, .runtime = 100, .procs = 4},
  });
  const auto result = run_selective(trace, 4, 1.0);
  EXPECT_EQ(result.outcomes[1].start, 100);
}

TEST(SelectiveScheduler, AdaptiveThresholdStartsAtFloor) {
  const BackfillScheduler scheduler =
      selective(SchedulerConfig{4, PriorityPolicy::Fcfs}, 2.0, true);
  // No completions yet: the floor applies.
  EXPECT_DOUBLE_EQ(scheduler.effective_threshold(), 2.0);
  EXPECT_TRUE(scheduler.adaptive());
  EXPECT_EQ(scheduler.depth(), BackfillScheduler::kUnboundedDepth);
}

TEST(SelectiveScheduler, AdaptiveThresholdTracksCompletedSlowdown) {
  BackfillScheduler scheduler =
      selective(SchedulerConfig{4, PriorityPolicy::Fcfs}, 1.0, true);
  // Two jobs, the second waits 100 s for a 100 s run: slowdowns 1 and 2.
  Job a;
  a.id = 0;
  a.submit = 0;
  a.runtime = a.estimate = 100;
  a.procs = 4;
  Job b = a;
  b.id = 1;
  b.submit = 0;
  scheduler.job_submitted(a, 0);
  scheduler.job_submitted(b, 0);
  (void)scheduler.select_starts(0);
  scheduler.job_finished(0, 100);
  (void)scheduler.select_starts(100);
  scheduler.job_finished(1, 200);
  // mean bounded slowdown = (1 + 2) / 2.
  EXPECT_DOUBLE_EQ(scheduler.effective_threshold(), 1.5);
}

TEST(SelectiveScheduler, FixedModeIgnoresCompletions) {
  BackfillScheduler scheduler =
      selective(SchedulerConfig{4, PriorityPolicy::Fcfs}, 3.0);
  Job a;
  a.id = 0;
  a.submit = 0;
  a.runtime = a.estimate = 100;
  a.procs = 4;
  scheduler.job_submitted(a, 0);
  (void)scheduler.select_starts(0);
  scheduler.job_finished(0, 100);
  EXPECT_DOUBLE_EQ(scheduler.effective_threshold(), 3.0);
}

TEST(SelectiveScheduler, AdaptiveModeProducesValidSchedules) {
  const Trace trace = test::random_trace(300, 8, 21, true);
  BackfillScheduler scheduler =
      selective(SchedulerConfig{8, PriorityPolicy::Fcfs}, 1.5, true);
  EXPECT_NO_THROW(
      (void)run_simulation(trace, scheduler, {.validate = true}));
}

TEST(SelectiveScheduler, AdaptiveNameDiffers) {
  const BackfillScheduler scheduler =
      selective(SchedulerConfig{8, PriorityPolicy::Sjf}, 2.0, true);
  EXPECT_EQ(scheduler.name(), "selective-adaptive2.0-sjf");
}

TEST(SelectiveScheduler, FactoryBuildsAdaptive) {
  SchedulerExtras extras;
  extras.xfactor_threshold = 2.0;
  extras.selective_adaptive = true;
  const auto scheduler =
      make_scheduler(SchedulerKind::Selective,
                     SchedulerConfig{8, PriorityPolicy::Fcfs}, extras);
  EXPECT_EQ(scheduler->name(), "selective-adaptive2.0-fcfs");
}

TEST(SelectiveScheduler, NameEncodesThreshold) {
  const BackfillScheduler scheduler =
      selective(SchedulerConfig{8, PriorityPolicy::Sjf}, 2.5);
  EXPECT_EQ(scheduler.name(), "selective2.5-sjf");
}

TEST(SelectiveScheduler, FactoryBuildsWithExtras) {
  SchedulerExtras extras;
  extras.xfactor_threshold = 4.0;
  const auto scheduler =
      make_scheduler(SchedulerKind::Selective,
                     SchedulerConfig{8, PriorityPolicy::Fcfs}, extras);
  EXPECT_EQ(scheduler->name(), "selective4.0-fcfs");
}

TEST(SelectiveScheduler, LatePromotionAheadOfAHolderTriggersAPass) {
  // P is promoted at D's arrival, which cannot start. P sorts ahead of
  // the earlier-promoted A, anchors first and pushes A's reservation
  // past C's window, so C can start at once: the promotion alone must
  // request the pass.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 1000, .procs = 6},   // runs [0, 1000)
      {.submit = 1, .runtime = 500, .procs = 5},    // P: promoted at 600
      {.submit = 2, .runtime = 100, .procs = 10},   // A: promoted at 400
      {.submit = 400, .runtime = 700, .procs = 4},  // C: blocked by A
      {.submit = 600, .runtime = 10, .procs = 5},   // D
  });
  const auto result = run_selective(trace, 10, 2.0);
  EXPECT_EQ(result.outcomes[3].start, 600);
  test::ReferenceReservationDepth oracle{
      SchedulerConfig{10, PriorityPolicy::Fcfs}, SchedulerKind::Selective,
      {.xfactor_threshold = 2.0}};
  EXPECT_EQ(start_times(result),
            start_times(run_simulation(trace, oracle, {.validate = true})));
}

}  // namespace
}  // namespace bfsim::core
