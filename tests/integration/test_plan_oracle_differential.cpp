// The plan scheduler against its full-replan oracle.
//
// Under static priorities core::PlanScheduler answers a submit or a
// cancel by re-placing only the queue suffix from the changed priority
// position on; the oracle (core/reference_plan.hpp) rebuilds the whole
// plan at every submit, finish, cancel and outage. Every paper priority
// must produce the oracle's schedule byte for byte, procs only and with
// a contended burst buffer, with and without cancellations, without
// outages and with generated outages under both requeue policies --
// audited and validated. Run in lockstep with the oracle, the plan must
// hold the oracle's planned starts after every event, not only the part
// of the plan that comes due. XFactor keeps the full replan, so its
// counters must show no suffix re-placement at all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lockstep.hpp"
#include "core/plan_scheduler.hpp"
#include "core/reference_plan.hpp"
#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

constexpr std::size_t kJobs = 300;
constexpr int kBufferGb = 256;

workload::Trace build_trace(bool contended, bool cancels,
                            std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = kJobs;
  scenario.load = exp::kHighLoad;
  scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                        .factor = 3.0};
  scenario.seed = seed;
  workload::Trace trace = exp::build_workload(scenario);
  if (contended) test::assign_random_bb(trace, kBufferGb, seed * 131 + 7);
  if (cancels) {
    sim::Rng rng{seed * 977 + 13};
    workload::apply_cancellations(trace, 0.15, /*patience=*/2.0, rng);
  }
  return trace;
}

class PlanOracleDifferential : public testing::TestWithParam<PriorityPolicy> {
};

TEST_P(PlanOracleDifferential, MatchesTheFullReplanEveryEvent) {
  const PriorityPolicy priority = GetParam();
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  std::uint64_t full = 0;
  std::uint64_t suffix = 0;
  std::uint64_t oracle_replans = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL})
    for (const bool contended : {false, true})
      for (const bool cancels : {false, true}) {
        const workload::Trace trace = build_trace(contended, cancels, seed);
        const int bb = contended ? kBufferGb : 0;
        model.max_bb_lost = bb / 4;
        const sim::FailureTrace failures =
            generate_failures(model, procs, bb, seed * 31 + 7);
        ASSERT_FALSE(failures.empty());
        for (const int outages : {0, 1, 2}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       (contended ? " contended" : " procs-only") +
                       (cancels ? " cancels" : "") +
                       " outages=" + std::to_string(outages));
          SimulationOptions options;
          options.validate = true;
          if (outages > 0) {
            options.failures = &failures;
            options.requeue = outages == 1
                                  ? sim::RequeuePolicy::kResubmitFull
                                  : sim::RequeuePolicy::kResubmitRemaining;
          }
          const SchedulerConfig config{procs, priority, bb};
          test::ReferencePlan oracle{config};
          const SimulationResult expected =
              run_simulation(trace, oracle, options);
          PlanScheduler plan{config};
          options.audit = true;  // a fatal auditor: any violation throws
          const SimulationResult got = run_simulation(trace, plan, options);
          ASSERT_EQ(got.outcomes.size(), expected.outcomes.size());
          for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
            const JobOutcome& a = got.outcomes[i];
            const JobOutcome& b = expected.outcomes[i];
            ASSERT_TRUE(a.start == b.start && a.end == b.end &&
                        a.killed == b.killed && a.cancelled == b.cancelled &&
                        a.requeues == b.requeues &&
                        a.first_start == b.first_start)
                << "job " << i << ": plan start " << a.start << " end "
                << a.end << ", oracle start " << b.start << " end " << b.end;
          }
          EXPECT_EQ(got.kills, expected.kills);
          PlanScheduler primary{config};
          test::ReferencePlan shadow{config};
          test::Lockstep lockstep{primary, shadow};
          options.audit = false;
          (void)run_simulation(trace, lockstep, options);
          EXPECT_EQ(lockstep.mismatch(), "");
          full += plan.full_replans();
          suffix += plan.suffix_replans();
          oracle_replans += oracle.replans();
        }
      }
  if (priority == PriorityPolicy::XFactor) {
    EXPECT_EQ(suffix, 0u);
  } else {
    // Submits and cancels moved to suffix re-placements; finishes and
    // outages still replan in full.
    EXPECT_GT(suffix, 0u);
    EXPECT_LT(full, oracle_replans / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPriorities, PlanOracleDifferential, testing::ValuesIn(kPaperPolicies),
    [](const testing::TestParamInfo<PriorityPolicy>& info) {
      return to_string(info.param);
    });

}  // namespace
}  // namespace bfsim::core
