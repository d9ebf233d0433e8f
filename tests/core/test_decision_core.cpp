// Unit tests for the decision-core seam itself: the incremental event
// API, the lifecycle contract (every DecisionError fires *before* the
// scheduler is touched, so the core stays serviceable), the pass/skip
// accounting, and the wake-up discipline. The differential suites prove
// the seam reproduces run_simulation; this file pins the contract a
// front can rely on when its event source is hostile.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/decision_core.hpp"
#include "core/reference_compression.hpp"
#include "core/scheduler.hpp"
#include "core/simulation.hpp"
#include "core/slack_scheduler.hpp"
#include "sim/failure.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

Job make_job(JobId id, Time submit, Time estimate, int procs) {
  Job job;
  job.id = id;
  job.submit = submit;
  job.runtime = estimate;
  job.estimate = estimate;
  job.procs = procs;
  return job;
}

class DecisionCoreTest : public ::testing::Test {
 protected:
  DecisionCoreTest()
      : scheduler_(make_scheduler(SchedulerKind::Easy,
                                  SchedulerConfig{8, PriorityPolicy::Fcfs})),
        core_(*scheduler_) {}

  std::unique_ptr<Scheduler> scheduler_;
  DecisionCore core_;
};

TEST_F(DecisionCoreTest, SubmitAndStartLifecycle) {
  EXPECT_EQ(core_.phase(0), JobPhase::kUnseen);
  core_.on_submit(make_job(0, 0, 100, 4), 0);
  EXPECT_EQ(core_.phase(0), JobPhase::kQueued);
  EXPECT_EQ(core_.queued(), 1u);
  const CycleDecision decision = core_.end_cycle(0);
  EXPECT_TRUE(decision.pass_ran);
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(decision.starts[0], 0u);
  EXPECT_EQ(core_.phase(0), JobPhase::kRunning);
  EXPECT_EQ(core_.queued(), 0u);
  EXPECT_EQ(core_.running(), 1u);
  core_.on_finish(0, 100);
  EXPECT_EQ(core_.phase(0), JobPhase::kFinished);
  EXPECT_EQ(core_.running(), 0u);
  EXPECT_EQ(core_.stats().events, 2u);
}

TEST_F(DecisionCoreTest, TimeMustNotRunBackwards) {
  core_.on_submit(make_job(0, 100, 10, 1), 100);
  EXPECT_THROW(core_.on_submit(make_job(1, 99, 10, 1), 99), DecisionError);
  // The guard fired before any mutation: job 1 is unseen, and the core
  // keeps serving at valid times.
  EXPECT_EQ(core_.phase(1), JobPhase::kUnseen);
  EXPECT_NO_THROW(core_.on_submit(make_job(1, 100, 10, 1), 100));
}

TEST_F(DecisionCoreTest, RejectsMalformedSubmissions) {
  // Duplicate submit.
  core_.on_submit(make_job(0, 0, 10, 1), 0);
  EXPECT_THROW(core_.on_submit(make_job(0, 0, 10, 1), 0), DecisionError);
  // Estimate below one.
  EXPECT_THROW(core_.on_submit(make_job(1, 0, 0, 1), 0), DecisionError);
  // Wider than the machine.
  EXPECT_THROW(core_.on_submit(make_job(1, 0, 10, 9), 0), DecisionError);
  // Submit-time mismatch: an arrival is an event at its own instant.
  EXPECT_THROW(core_.on_submit(make_job(1, 5, 10, 1), 0), DecisionError);
  // Hostile id: must not allocate a phase table entry per 2^60.
  EXPECT_THROW(core_.on_submit(make_job(kMaxTrackedJobs, 0, 10, 1), 0),
               DecisionError);
  // None of it perturbed the queue.
  EXPECT_EQ(core_.queued(), 1u);
  EXPECT_EQ(core_.stats().events, 1u);
}

TEST_F(DecisionCoreTest, FinishRequiresARunningJob) {
  EXPECT_THROW(core_.on_finish(0, 0), DecisionError);
  core_.on_submit(make_job(0, 0, 10, 1), 0);
  // Queued but not started: still not finishable.
  EXPECT_THROW(core_.on_finish(0, 0), DecisionError);
  (void)core_.end_cycle(0);
  EXPECT_NO_THROW(core_.on_finish(0, 10));
  // And not twice.
  EXPECT_THROW(core_.on_finish(0, 10), DecisionError);
}

TEST_F(DecisionCoreTest, CancelContract) {
  EXPECT_THROW(core_.on_cancel(0, 0), DecisionError);  // never submitted
  core_.on_submit(make_job(0, 0, 10, 8), 0);
  core_.on_submit(make_job(1, 0, 10, 8), 0);
  (void)core_.end_cycle(0);  // job 0 starts; job 1 waits
  core_.on_cancel(1, 5);     // queued: withdrawn for good
  EXPECT_EQ(core_.phase(1), JobPhase::kCancelled);
  EXPECT_EQ(core_.queued(), 0u);
  EXPECT_THROW(core_.on_cancel(1, 5), DecisionError);  // cancelled twice
  // Cancelling a running job is a scheduler no-op but legal input.
  EXPECT_NO_THROW(core_.on_cancel(0, 6));
  EXPECT_EQ(core_.phase(0), JobPhase::kRunning);
}

TEST_F(DecisionCoreTest, CancelOfARunningJobStillForcesAPass) {
  // No hook can vouch the batch is a no-op (clock-driven policies can
  // surface starts from time alone), so the cycle must run a pass.
  core_.on_submit(make_job(0, 0, 10, 8), 0);
  (void)core_.end_cycle(0);
  core_.on_cancel(0, 5);
  const CycleDecision decision = core_.end_cycle(5);
  EXPECT_TRUE(decision.pass_ran);
}

TEST_F(DecisionCoreTest, NoOpBatchesAreSkippedAndCounted) {
  core_.on_submit(make_job(0, 0, 100, 8), 0);  // fills the machine
  core_.on_submit(make_job(1, 0, 50, 8), 0);   // must wait behind it
  (void)core_.end_cycle(0);
  // A submit that provably cannot start (machine full, EASY cannot
  // backfill it) lets the scheduler hooks veto the pass.
  core_.on_submit(make_job(2, 10, 50, 8), 10);
  const CycleDecision decision = core_.end_cycle(10);
  EXPECT_FALSE(decision.pass_ran);
  EXPECT_EQ(decision.starts.size(), 0u);
  EXPECT_EQ(core_.stats().passes_skipped, 1u);
}

TEST_F(DecisionCoreTest, StaleWakeIsACountedNoOp) {
  core_.on_submit(make_job(0, 0, 100, 1), 0);
  (void)core_.end_cycle(0);
  // A wake at an instant where no reservation is due: the cycle re-asks
  // the scheduler, learns nothing is due, and skips.
  core_.on_wake(10);
  const CycleDecision decision = core_.end_cycle(10);
  EXPECT_FALSE(decision.pass_ran);
  EXPECT_EQ(core_.stats().wakeups, 1u);
}

TEST_F(DecisionCoreTest, ErrorsLeaveTheCoreServiceable) {
  // A front that quarantines DecisionErrors must be able to keep using
  // the core: run a small legitimate schedule after a barrage of
  // contract violations and check it completes coherently.
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(core_.on_finish(99, 0), DecisionError);
    EXPECT_THROW(core_.on_cancel(98, 0), DecisionError);
    EXPECT_THROW(core_.on_submit(make_job(0, 5, 10, 1), 0), DecisionError);
  }
  core_.on_submit(make_job(0, 0, 10, 4), 0);
  const CycleDecision first = core_.end_cycle(0);
  ASSERT_EQ(first.starts.size(), 1u);
  core_.on_finish(0, 10);
  const CycleDecision second = core_.end_cycle(10);
  EXPECT_EQ(second.starts.size(), 0u);
  EXPECT_EQ(core_.stats().events, 2u);
}

TEST_F(DecisionCoreTest, StatsTrackQueueDepth) {
  core_.on_submit(make_job(0, 0, 100, 8), 0);
  (void)core_.end_cycle(0);
  core_.on_submit(make_job(1, 1, 10, 1), 1);
  core_.on_submit(make_job(2, 1, 10, 8), 1);
  (void)core_.end_cycle(1);
  EXPECT_EQ(core_.stats().max_queue, 2u);
}

TEST(DecisionCoreWakeups, ConservativeReportsItsReservation) {
  const auto scheduler = make_scheduler(
      SchedulerKind::Conservative, SchedulerConfig{4, PriorityPolicy::Fcfs});
  DecisionCore core{*scheduler};
  core.on_submit(make_job(0, 0, 100, 4), 0);
  (void)core.end_cycle(0);
  core.on_submit(make_job(1, 1, 50, 4), 1);
  const CycleDecision blocked = core.end_cycle(1);
  EXPECT_EQ(blocked.starts.size(), 0u);
  // Job 1's reservation sits at job 0's estimated end.
  EXPECT_EQ(blocked.next_wakeup, 100);
}

/// Forwards every hook to `inner` and counts submits that arrive while
/// some started job has reached its estimated end -- which the event
/// order rules out: completions and repairs at an instant come before its
/// submits, and runs die at their estimate. Slack's displacement trial
/// relies on it (its capacity at `now` is then exactly the free count).
class EstimatedEndProbe final : public Scheduler {
 public:
  explicit EstimatedEndProbe(Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] int violations() const { return violations_; }
  [[nodiscard]] int submits() const { return submits_; }

  bool job_submitted(const Job& job, Time now) override {
    ++submits_;
    for (const auto& [id, est_end] : est_ends_)
      if (est_end <= now) ++violations_;
    return inner_.job_submitted(job, now);
  }
  bool job_finished(JobId id, Time now) override {
    est_ends_.erase(id);
    return inner_.job_finished(id, now);
  }
  bool job_cancelled(JobId id, Time now) override {
    return inner_.job_cancelled(id, now);
  }
  bool job_killed(JobId id, Time now) override {
    est_ends_.erase(id);
    return inner_.job_killed(id, now);
  }
  bool node_down(const sim::Outage& outage, Time now) override {
    return inner_.node_down(outage, now);
  }
  bool node_up(const sim::Outage& outage, Time now) override {
    return inner_.node_up(outage, now);
  }
  [[nodiscard]] Time next_wakeup() override { return inner_.next_wakeup(); }
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    const std::size_t first = out.size();
    inner_.select_starts(now, out);
    for (std::size_t i = first; i < out.size(); ++i)
      est_ends_[out[i].id] = sim::saturating_add(now, out[i].estimate);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const SchedulerConfig& config() const override {
    return inner_.config();
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return inner_.queued_count();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return inner_.running_count();
  }

 private:
  Scheduler& inner_;
  std::map<JobId, Time> est_ends_;
  int violations_ = 0;
  int submits_ = 0;
};

TEST(DecisionCoreEventOrder, FinishBeforeSubmitAtOneInstantFeedsSlackTrial) {
  // Job 0 fills the machine until t=100 and finishes on time; job 1
  // waits for it. At t=100 job 2 arrives together with job 0's finish:
  // its conservative anchor is t=200, behind job 1, but displacing job 1
  // to t=150 keeps job 1 inside its slack. The trial needs job 0's
  // processors, which the core returns before the submit.
  const SchedulerConfig config{10, PriorityPolicy::Fcfs};
  SlackScheduler slack{config, 10.0};
  test::ReferenceCompression oracle{config, 10.0};
  EstimatedEndProbe probe{slack};
  DecisionCore core{probe};
  DecisionCore oracle_core{oracle};
  const auto drive = [](DecisionCore& c) {
    c.on_submit(make_job(0, 0, 100, 10), 0);
    EXPECT_EQ(c.end_cycle(0).starts.size(), 1u);
    c.on_submit(make_job(1, 10, 100, 10), 10);
    EXPECT_TRUE(c.end_cycle(10).starts.empty());
    c.on_finish(0, 100);
    c.on_submit(make_job(2, 100, 50, 5), 100);
    const CycleDecision decision = c.end_cycle(100);
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0], 2u);
    EXPECT_EQ(decision.next_wakeup, 150);
  };
  drive(core);
  drive(oracle_core);
  EXPECT_EQ(probe.submits(), 3);
  EXPECT_EQ(probe.violations(), 0);
  EXPECT_EQ(slack.displacements(), 1u);
  EXPECT_EQ(slack.displacements(), oracle.displacements());
  EXPECT_EQ(slack.reservation_of(1), 150);
}

TEST(DecisionCoreEventOrder, NoSubmitSeesARunPastItsEstimate) {
  // The same invariant over a whole replay: early finishes, on-time
  // finishes, outage kills and requeued resubmissions.
  workload::Trace trace = test::random_trace(300, 32, 5, true);
  const sim::FailureTrace failures = sim::generate_failures(
      {.mean_uptime = 4.0 * static_cast<double>(sim::kHour),
       .mean_repair = 1.0 * static_cast<double>(sim::kHour),
       .max_procs_lost = 8},
      32, 0, 9);
  ASSERT_FALSE(failures.empty());
  SlackScheduler slack{SchedulerConfig{32, PriorityPolicy::Fcfs}, 2.0};
  EstimatedEndProbe probe{slack};
  const SimulationResult result =
      run_simulation(trace, probe, {.validate = true, .failures = &failures});
  EXPECT_GT(result.kills, 0u);
  EXPECT_GT(probe.submits(), 300);  // requeued victims submit again
  EXPECT_EQ(probe.violations(), 0);
}

}  // namespace
}  // namespace bfsim::core
