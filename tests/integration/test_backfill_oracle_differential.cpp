// The reservation-depth kernel against its oracle.
//
// core::BackfillScheduler picks its capacity view from the number of
// holders (free capacity, EASY's shadow/extra test, the full profile)
// and skips passes its hooks prove unnecessary. The oracle
// (core/reference_reservation_depth.hpp) rebuilds the whole profile at
// every pass and never skips one. Every policy of the family -- EASY,
// K-reservation over a spread of depths, selective with fixed and
// adaptive bars -- must produce the oracle's schedule byte for byte
// under every paper priority, in four regimes: procs only, a contended
// burst buffer, generated outages under both requeue policies, and
// cancellations. The outage cells are the soundness gate for the skip
// rules: requeued victims keep their original submit and land mid-queue.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/backfill_scheduler.hpp"
#include "core/reference_reservation_depth.hpp"
#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

constexpr std::size_t kJobs = 400;
constexpr int kBufferGb = 256;

struct Policy {
  SchedulerKind kind;
  SchedulerExtras extras;
};

std::vector<Policy> family() {
  std::vector<Policy> policies{{SchedulerKind::Easy, {}}};
  for (const int depth : {0, 1, 2, 4, 64})
    policies.push_back(
        {SchedulerKind::KReservation, {.reservation_depth = depth}});
  for (const double threshold : {1.0, 2.0, 5.0})
    policies.push_back(
        {SchedulerKind::Selective, {.xfactor_threshold = threshold}});
  policies.push_back(
      {SchedulerKind::Selective,
       {.xfactor_threshold = 1.0, .selective_adaptive = true}});
  return policies;
}

workload::Trace build_trace(double factor, double cancel_fraction,
                            std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = kJobs;
  scenario.load = exp::kHighLoad;
  scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                        .factor = factor};
  scenario.seed = seed;
  workload::Trace trace = exp::build_workload(scenario);
  if (cancel_fraction > 0.0) {
    sim::Rng rng{seed * 977 + 13};
    workload::apply_cancellations(trace, cancel_fraction, /*patience=*/2.0,
                                  rng);
  }
  return trace;
}

struct Regime {
  workload::Trace trace;
  int burst_buffer = 0;
  const sim::FailureTrace* failures = nullptr;
  sim::RequeuePolicy requeue = sim::RequeuePolicy::kResubmitFull;
};

/// Runs every policy x priority of the family on `regime` through the
/// kernel (audited and validated) and the oracle; the schedules must
/// coincide. Adds the kernel's skipped passes to `skipped`.
void expect_kernel_matches_oracle(const Regime& regime,
                                  std::uint64_t* skipped = nullptr) {
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  for (const Policy& policy : family()) {
    for (const PriorityPolicy priority : kPaperPolicies) {
      const SchedulerConfig config{procs, priority, regime.burst_buffer};
      BackfillScheduler kernel{config, policy.kind, policy.extras};
      test::ReferenceReservationDepth oracle{config, policy.kind,
                                             policy.extras};
      SCOPED_TRACE(kernel.name());
      SimulationOptions options;
      options.validate = true;
      options.failures = regime.failures;
      options.requeue = regime.requeue;
      const SimulationResult expected =
          run_simulation(regime.trace, oracle, options);
      options.audit = true;
      const SimulationResult got =
          run_simulation(regime.trace, kernel, options);
      // The oracle's hooks always vouch for a pass; only batches that
      // reach no hook (a killed run's stale completion) go unpassed.
      EXPECT_GE(expected.passes, got.passes);
      ASSERT_EQ(got.outcomes.size(), expected.outcomes.size());
      for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
        const JobOutcome& a = got.outcomes[i];
        const JobOutcome& b = expected.outcomes[i];
        ASSERT_TRUE(a.start == b.start && a.end == b.end &&
                    a.killed == b.killed && a.cancelled == b.cancelled &&
                    a.requeues == b.requeues &&
                    a.first_start == b.first_start)
            << "job " << i << ": kernel start " << a.start << " end "
            << a.end << ", oracle start " << b.start << " end " << b.end;
      }
      EXPECT_EQ(got.kills, expected.kills);
      if (skipped != nullptr) *skipped += got.passes_skipped;
    }
  }
}

TEST(BackfillOracleDifferential, ProcsOnly) {
  std::uint64_t skipped = 0;
  for (const double factor : {1.0, 4.0})
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      SCOPED_TRACE("R=" + std::to_string(factor) +
                   " seed=" + std::to_string(seed));
      expect_kernel_matches_oracle({.trace = build_trace(factor, 0.0, seed)},
                                   &skipped);
    }
  // The comparison is only a soundness gate if the kernel does skip.
  EXPECT_GT(skipped, 0u);
}

TEST(BackfillOracleDifferential, ContendedBurstBuffer) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Regime regime{.trace = build_trace(2.0, 0.0, seed),
                  .burst_buffer = kBufferGb};
    test::assign_random_bb(regime.trace, kBufferGb, seed * 131 + 7);
    expect_kernel_matches_oracle(regime);
  }
}

TEST(BackfillOracleDifferential, GeneratedOutagesUnderBothRequeuePolicies) {
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const sim::FailureTrace failures =
        generate_failures(model, procs, 0, seed * 31 + 7);
    ASSERT_FALSE(failures.empty());
    for (const sim::RequeuePolicy requeue :
         {sim::RequeuePolicy::kResubmitFull,
          sim::RequeuePolicy::kResubmitRemaining}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " requeue=" + sim::to_string(requeue));
      expect_kernel_matches_oracle({.trace = build_trace(2.0, 0.0, seed),
                                          .failures = &failures,
                                          .requeue = requeue});
    }
  }
}

TEST(BackfillOracleDifferential, Cancellations) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_kernel_matches_oracle(
        {.trace = build_trace(2.0, 0.15, seed)});
  }
}

}  // namespace
}  // namespace bfsim::core
