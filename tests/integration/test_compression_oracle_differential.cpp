// Compression against its oracle.
//
// core::compress_queue gives each visited job a read-only move test and
// skips jobs that gained no capacity before their start; only movers pay
// for release + re-anchor. The oracle (core/reference_compression.hpp)
// releases and re-anchors every queued job in every round, and builds
// slack's displacement trial without an early exit. Conservative and
// slack must produce the oracle's schedule byte for byte under every
// paper priority, with exact and R=3 estimates, procs only and with a
// contended burst buffer, with and without 15% cancellations, and
// without outages or with generated outages under both requeue
// policies -- audited and validated. Run in lockstep with the oracle,
// they must hold the same reservations after every event. Their
// compression counters must name exactly the oracle's movers and
// rounds, so a job that does not move never pays for a release.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/conservative_scheduler.hpp"
#include "core/lockstep.hpp"
#include "core/reference_compression.hpp"
#include "core/simulation.hpp"
#include "core/slack_scheduler.hpp"
#include "exp/scenario.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

constexpr std::size_t kJobs = 300;
constexpr int kBufferGb = 256;
constexpr double kSlack = 2.0;

workload::Trace build_trace(double factor, bool contended, bool cancels,
                            std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = kJobs;
  scenario.load = exp::kHighLoad;
  if (factor > 1.0)
    scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                          .factor = factor};
  scenario.seed = seed;
  workload::Trace trace = exp::build_workload(scenario);
  if (contended) test::assign_random_bb(trace, kBufferGb, seed * 131 + 7);
  if (cancels) {
    sim::Rng rng{seed * 977 + 13};
    workload::apply_cancellations(trace, 0.15, /*patience=*/2.0, rng);
  }
  return trace;
}

void expect_same_schedule(const SimulationResult& got,
                          const SimulationResult& expected) {
  ASSERT_EQ(got.outcomes.size(), expected.outcomes.size());
  for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
    const JobOutcome& a = got.outcomes[i];
    const JobOutcome& b = expected.outcomes[i];
    ASSERT_TRUE(a.start == b.start && a.end == b.end &&
                a.killed == b.killed && a.cancelled == b.cancelled &&
                a.requeues == b.requeues && a.first_start == b.first_start)
        << "job " << i << ": start " << a.start << " end " << a.end
        << ", oracle start " << b.start << " end " << b.end;
  }
  EXPECT_EQ(got.kills, expected.kills);
}

/// Totals over the grid, so the suite can show the pruning is real.
struct Totals {
  std::uint64_t tested = 0;
  std::uint64_t oracle_reanchors = 0;
  std::uint64_t moves = 0;
  std::uint64_t displacements = 0;
};

/// Runs the scheduler `make()` builds and the oracle on `trace`, each
/// on its own (the production run audited) and then in lockstep.
template <typename Make>
void run_pair(const workload::Trace& trace, const SimulationOptions& base,
              const SchedulerConfig& config, std::optional<double> slack,
              Make make, Totals& totals) {
  auto production = make();
  SCOPED_TRACE(production.name());
  test::ReferenceCompression oracle{config, slack};
  SimulationOptions options = base;
  options.validate = true;
  const SimulationResult expected = run_simulation(trace, oracle, options);
  options.audit = true;  // a fatal auditor: any violation throws
  const SimulationResult got = run_simulation(trace, production, options);
  expect_same_schedule(got, expected);
  const CompressionStats& stats = production.compression();
  EXPECT_EQ(stats.reanchored, oracle.moves());
  EXPECT_EQ(stats.rounds, oracle.rounds());
  if constexpr (requires { production.displacements(); }) {
    EXPECT_EQ(production.displacements(), oracle.displacements());
    totals.displacements += production.displacements();
  }
  totals.tested += stats.tested;
  totals.oracle_reanchors += oracle.reanchors();
  totals.moves += stats.reanchored;

  auto primary = make();
  test::ReferenceCompression shadow{config, slack};
  test::Lockstep lockstep{primary, shadow};
  options.audit = false;
  (void)run_simulation(trace, lockstep, options);
  EXPECT_EQ(lockstep.mismatch(), "");
  EXPECT_GT(lockstep.checks(), 0u);
}

class CompressionOracleDifferential
    : public testing::TestWithParam<PriorityPolicy> {};

TEST_P(CompressionOracleDifferential, MatchesTheReanchorEverythingLoop) {
  const PriorityPolicy priority = GetParam();
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  Totals totals;
  const std::uint64_t seed = 3;
  for (const double factor : {1.0, 3.0})
    for (const bool contended : {false, true})
      for (const bool cancels : {false, true}) {
        const workload::Trace trace =
            build_trace(factor, contended, cancels, seed);
        const int bb = contended ? kBufferGb : 0;
        model.max_bb_lost = bb / 4;
        const sim::FailureTrace failures =
            generate_failures(model, procs, bb, seed * 31 + 7);
        ASSERT_FALSE(failures.empty());
        for (const int outages : {0, 1, 2}) {
          SimulationOptions options;
          if (outages > 0) {
            options.failures = &failures;
            options.requeue = outages == 1
                                  ? sim::RequeuePolicy::kResubmitFull
                                  : sim::RequeuePolicy::kResubmitRemaining;
          }
          SCOPED_TRACE("R=" + std::to_string(factor) +
                       (contended ? " contended" : " procs-only") +
                       (cancels ? " cancels" : "") +
                       " outages=" + std::to_string(outages));
          const SchedulerConfig config{procs, priority, bb};
          run_pair(trace, options, config, std::nullopt,
                   [&] { return ConservativeScheduler{config}; }, totals);
          run_pair(trace, options, config, kSlack,
                   [&] { return SlackScheduler{config, kSlack}; }, totals);
        }
      }
  // The comparison is only a gate if compression moved jobs, most jobs
  // the oracle re-anchored did not move (so the move test turned them
  // away), and slack displaced arrivals.
  EXPECT_GT(totals.moves, 0u);
  EXPECT_LT(totals.tested, totals.oracle_reanchors);
  EXPECT_LT(totals.moves, totals.tested / 2);
  EXPECT_GT(totals.displacements, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPriorities, CompressionOracleDifferential,
    testing::ValuesIn(kPaperPolicies),
    [](const testing::TestParamInfo<PriorityPolicy>& info) {
      return to_string(info.param);
    });

}  // namespace
}  // namespace bfsim::core
