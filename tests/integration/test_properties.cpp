// Cross-cutting property tests: every scheduler x priority x workload
// combination must produce a physically valid, deterministic schedule,
// and algebraic relationships between the schedulers must hold.
#include <gtest/gtest.h>

#include <tuple>

#include "core/reference_reservation_depth.hpp"
#include "core/simulation.hpp"
#include "core/validator.hpp"
#include "exp/scenario.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using Combo = std::tuple<SchedulerKind, PriorityPolicy, std::uint64_t, bool>;

class SchedulerPropertyTest : public testing::TestWithParam<Combo> {};

TEST_P(SchedulerPropertyTest, ScheduleIsValidAndWorkConserving) {
  const auto [kind, priority, seed, overestimate] = GetParam();
  const Trace trace = test::random_trace(400, 16, seed, overestimate);
  const auto result = run_simulation(trace, kind,
                                     SchedulerConfig{16, priority});

  const auto report = validate_schedule(trace, result.outcomes, 16);
  ASSERT_TRUE(report.ok()) << report.violations.front();

  // Work conservation: every job ran once for its effective runtime.
  std::int64_t work = 0;
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_GE(o.start, o.job.submit);
    work += static_cast<std::int64_t>(o.end - o.start) * o.job.procs;
  }
  std::int64_t expected = 0;
  for (const Job& j : trace)
    expected += static_cast<std::int64_t>(std::min(j.runtime, j.estimate)) *
                j.procs;
  EXPECT_EQ(work, expected);

  // Peak usage never exceeds the machine.
  EXPECT_LE(peak_usage(result.outcomes), 16);
}

TEST_P(SchedulerPropertyTest, NoIdleStartDelay) {
  // When the machine is totally idle and the queue is empty, an arriving
  // job must start instantly, whatever the policy.
  const auto [kind, priority, seed, overestimate] = GetParam();
  const Trace trace = test::make_trace(
      {{.submit = 1000, .runtime = 50, .procs = 16,
        .estimate = overestimate ? sim::Time{500} : sim::Time{0}}});
  const auto result =
      run_simulation(trace, kind, SchedulerConfig{16, priority});
  EXPECT_EQ(result.outcomes[0].start, 1000);
}

std::string combo_name(const testing::TestParamInfo<Combo>& info) {
  const SchedulerKind kind = std::get<0>(info.param);
  const PriorityPolicy priority = std::get<1>(info.param);
  const std::uint64_t seed = std::get<2>(info.param);
  const bool over = std::get<3>(info.param);
  std::string name = to_string(kind) + "_" + to_string(priority) + "_s" +
                     std::to_string(seed) + (over ? "_over" : "_exact");
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchedulerPropertyTest,
    testing::Combine(
        testing::Values(SchedulerKind::Fcfs, SchedulerKind::Easy,
                        SchedulerKind::Conservative,
                        SchedulerKind::KReservation,
                        SchedulerKind::Selective, SchedulerKind::Slack),
        testing::Values(PriorityPolicy::Fcfs, PriorityPolicy::Sjf,
                        PriorityPolicy::XFactor),
        testing::Values(std::uint64_t{1}, std::uint64_t{2}),
        testing::Bool()),
    combo_name);

// --- Algebraic relationships -----------------------------------------

class CrossSchedulerTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSchedulerTest, EasyEqualsReservationDepthOne) {
  // EASY and depth-1 K-reservation are the same configuration of the
  // reservation-depth kernel; both must reproduce the rebuild-per-pass
  // oracle at depth 1 exactly (the rest of the family is covered by
  // integration/test_backfill_oracle_differential.cpp).
  for (const bool overestimate : {false, true}) {
    const Trace trace = test::random_trace(500, 12, GetParam(), overestimate);
    for (const auto priority :
         {PriorityPolicy::Fcfs, PriorityPolicy::Sjf,
          PriorityPolicy::XFactor}) {
      const SchedulerConfig config{12, priority};
      test::ReferenceReservationDepth oracle{config, SchedulerKind::Easy};
      const auto expected = test::start_times(run_simulation(trace, oracle));
      const auto easy = run_simulation(trace, SchedulerKind::Easy, config);
      SchedulerExtras extras;
      extras.reservation_depth = 1;
      const auto kres =
          run_simulation(trace, SchedulerKind::KReservation, config, extras);
      EXPECT_EQ(test::start_times(easy), expected)
          << to_string(priority) << (overestimate ? " over" : " exact");
      EXPECT_EQ(test::start_times(kres), expected)
          << to_string(priority) << (overestimate ? " over" : " exact");
    }
  }
}

TEST_P(CrossSchedulerTest, ConservativePriorityEquivalenceWithExactEstimates) {
  // Paper Section 4.1: with exact estimates, conservative backfilling
  // produces the identical schedule for every priority policy.
  const Trace trace = test::random_trace(500, 12, GetParam(),
                                         /*overestimate=*/false);
  const auto baseline = run_simulation(
      trace, SchedulerKind::Conservative,
      SchedulerConfig{12, PriorityPolicy::Fcfs});
  for (const auto priority :
       {PriorityPolicy::Sjf, PriorityPolicy::XFactor, PriorityPolicy::Ljf,
        PriorityPolicy::Narrowest, PriorityPolicy::Widest}) {
    const auto other = run_simulation(trace, SchedulerKind::Conservative,
                                      SchedulerConfig{12, priority});
    EXPECT_EQ(test::start_times(baseline), test::start_times(other))
        << to_string(priority);
  }
}

TEST(ConservativePriorityEquivalence, HoldsWithAContendedBurstBuffer) {
  // Section 4.1 on the second axis: with exact estimates conservative
  // backfilling still gives one schedule for FCFS, SJF and XFactor when
  // a 1,024 GB buffer binds (CTC, bfbench's bb-contended demand model:
  // narrow jobs stage 128-512 GB, wide jobs 0-64 GB). The served path
  // pins the same relation (test_served_differential.cpp).
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    exp::Scenario scenario;
    scenario.trace = exp::TraceKind::Ctc;
    scenario.jobs = 600;
    scenario.seed = seed;
    Trace trace = exp::build_workload(scenario);
    const int procs = scenario.procs();
    const auto procs_only = run_simulation(
        trace, SchedulerKind::Conservative,
        SchedulerConfig{procs, PriorityPolicy::Fcfs});
    sim::Rng rng{seed * 0x9e3779b97f4a7c15ULL + 11};
    for (Job& job : trace)
      job.bb = job.procs < procs / 4
                   ? static_cast<int>(rng.uniform_int(128, 512))
                   : static_cast<int>(rng.uniform_int(0, 64));
    const auto fcfs = run_simulation(
        trace, SchedulerKind::Conservative,
        SchedulerConfig{procs, PriorityPolicy::Fcfs, 1024});
    // The buffer binds: the schedule is not the procs-only one.
    EXPECT_NE(test::start_times(fcfs), test::start_times(procs_only));
    for (const auto priority : {PriorityPolicy::Sjf, PriorityPolicy::XFactor}) {
      const auto other = run_simulation(
          trace, SchedulerKind::Conservative,
          SchedulerConfig{procs, priority, 1024});
      EXPECT_EQ(test::start_times(fcfs), test::start_times(other))
          << to_string(priority);
    }
  }
}

TEST_P(CrossSchedulerTest, ConservativeDivergesAcrossPrioritiesWithHoles) {
  // The converse: with heavy overestimation, early completions create
  // holes and the compression order (= priority policy) matters. We only
  // require *some* divergence between FCFS and SJF on a busy trace.
  const Trace trace = test::random_trace(500, 12, GetParam(),
                                         /*overestimate=*/true);
  const auto fcfs = run_simulation(trace, SchedulerKind::Conservative,
                                   SchedulerConfig{12, PriorityPolicy::Fcfs});
  const auto sjf = run_simulation(trace, SchedulerKind::Conservative,
                                  SchedulerConfig{12, PriorityPolicy::Sjf});
  EXPECT_NE(test::start_times(fcfs), test::start_times(sjf));
}

TEST_P(CrossSchedulerTest, BackfillingNeverHurtsTotalThroughput) {
  // Makespan with backfilling is never worse than plain FCFS on the same
  // trace -- backfilling only moves work earlier into holes.
  const Trace trace = test::random_trace(400, 12, GetParam(), false);
  const SchedulerConfig config{12, PriorityPolicy::Fcfs};
  const auto plain = run_simulation(trace, SchedulerKind::Fcfs, config);
  const auto easy = run_simulation(trace, SchedulerKind::Easy, config);
  const auto cons =
      run_simulation(trace, SchedulerKind::Conservative, config);
  EXPECT_LE(easy.makespan, plain.makespan);
  EXPECT_LE(cons.makespan, plain.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSchedulerTest,
                         testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace bfsim::core
