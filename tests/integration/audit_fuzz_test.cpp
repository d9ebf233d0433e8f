// Fuzz-style differential harness: seeded synthetic workloads -- varied
// load, estimate accuracy (R in {1, 2, 4}) and cancellation rate --
// driven through every scheduler with the invariant auditor attached
// and the physical-schedule validator on. Any capacity overflow, broken
// guarantee or stale profile aborts the run at the offending event; on
// top of that, cross-scheduler metric relationships from the paper are
// asserted per cell (FCFS-baseline dominance, Section 4.1 priority
// equivalence under conservative backfill with exact estimates).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/simulation.hpp"
#include "exp/fault.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "util/log.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/report.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

struct FuzzCell {
  exp::TraceKind trace = exp::TraceKind::Ctc;
  double load = exp::kHighLoad;
  double factor = 1.0;           ///< estimate = R x runtime
  double cancel_fraction = 0.0;  ///< jobs withdrawn while queued
  std::uint64_t seed = 1;

  [[nodiscard]] std::string label() const {
    return exp::to_string(trace) + " load=" + std::to_string(load) +
           " R=" + std::to_string(factor) +
           " cancel=" + std::to_string(cancel_fraction) +
           " seed=" + std::to_string(seed);
  }
};

constexpr std::size_t kJobs = 200;

workload::Trace build_fuzz_trace(const FuzzCell& cell) {
  exp::Scenario scenario;
  scenario.trace = cell.trace;
  scenario.jobs = kJobs;
  scenario.load = cell.load;
  scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                        .factor = cell.factor};
  scenario.seed = cell.seed;
  workload::Trace trace = exp::build_workload(scenario);
  if (cell.cancel_fraction > 0.0) {
    sim::Rng rng{cell.seed * 977 + 13};
    workload::apply_cancellations(trace, cell.cancel_fraction,
                                  /*patience=*/2.0, rng);
  }
  return trace;
}

/// One audited, validated simulation; returns its aggregated metrics.
metrics::Metrics audited_run(const workload::Trace& trace, int procs,
                             SchedulerKind kind, PriorityPolicy priority) {
  const SimulationResult result =
      run_simulation(trace, kind, SchedulerConfig{procs, priority}, {},
                     {.validate = true, .audit = true});
  return metrics::compute_metrics(result, procs);
}

std::vector<FuzzCell> fuzz_grid() {
  std::vector<FuzzCell> cells;
  for (const double factor : {1.0, 2.0, 4.0})
    for (const double cancel : {0.0, 0.15})
      for (const std::uint64_t seed : {1ULL, 2ULL})
        cells.push_back({.trace = exp::TraceKind::Sdsc,
                         .load = exp::kHighLoad,
                         .factor = factor,
                         .cancel_fraction = cancel,
                         .seed = seed});
  // A normal-load CTC cell and a Lublin robustness cell keep the grid
  // from overfitting to one generator shape.
  cells.push_back({.trace = exp::TraceKind::Ctc,
                   .load = exp::kNormalLoad,
                   .factor = 2.0,
                   .cancel_fraction = 0.1,
                   .seed = 3});
  cells.push_back({.trace = exp::TraceKind::Lublin,
                   .load = exp::kHighLoad,
                   .factor = 1.0,
                   .cancel_fraction = 0.0,
                   .seed = 4});
  return cells;
}

TEST(AuditFuzz, EverySchedulerSurvivesTheAuditedGrid) {
  // The real assertion is inside run_simulation: the auditor throws at
  // the first violated invariant, the validator at the first physically
  // impossible schedule. The metric checks on top are sanity floors.
  for (const FuzzCell& cell : fuzz_grid()) {
    SCOPED_TRACE(cell.label());
    const workload::Trace trace = build_fuzz_trace(cell);
    const int procs = exp::machine_procs(cell.trace);
    const struct {
      SchedulerKind kind;
      PriorityPolicy priority;
    } schemes[] = {
        {SchedulerKind::Fcfs, PriorityPolicy::Fcfs},
        {SchedulerKind::Easy, PriorityPolicy::Fcfs},
        {SchedulerKind::Easy, PriorityPolicy::Sjf},
        {SchedulerKind::Conservative, PriorityPolicy::Fcfs},
        {SchedulerKind::Conservative, PriorityPolicy::XFactor},
        {SchedulerKind::KReservation, PriorityPolicy::Fcfs},
        {SchedulerKind::Selective, PriorityPolicy::Fcfs},
        {SchedulerKind::Slack, PriorityPolicy::Fcfs},
        {SchedulerKind::Plan, PriorityPolicy::Fcfs},
        {SchedulerKind::Plan, PriorityPolicy::Sjf},
    };
    for (const auto& scheme : schemes) {
      SCOPED_TRACE(to_string(scheme.kind) + "-" +
                   to_string(scheme.priority));
      metrics::Metrics m;
      ASSERT_NO_THROW(
          m = audited_run(trace, procs, scheme.kind, scheme.priority));
      // Waits are physical times: never negative (a negative mean wait
      // means an outcome leaked kNoTime into the statistics).
      EXPECT_GE(m.overall.wait.mean(), 0.0);
      EXPECT_GE(m.overall.slowdown.mean(), 1.0);
      EXPECT_LE(m.utilization, 1.0 + 1e-9);
      EXPECT_EQ(m.overall.count() + m.cancelled_jobs, kJobs);
    }
  }
}

TEST(AuditFuzz, MultiResourceGridSurvivesThePerAxisAuditor) {
  // The same audited-grid discipline on two axes: every profile-bearing
  // scheduler runs the fuzz workloads with deterministic burst-buffer
  // demands against a shared buffer, and the auditor's per-axis
  // capacity and profile cross-checks are fatal throughout.
  constexpr int kBufferGb = 512;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                        .load = exp::kHighLoad,
                        .factor = 2.0,
                        .cancel_fraction = seed == 2 ? 0.15 : 0.0,
                        .seed = seed};
    SCOPED_TRACE(cell.label());
    workload::Trace trace = build_fuzz_trace(cell);
    test::assign_random_bb(trace, kBufferGb, seed * 131 + 7);
    const int procs = exp::machine_procs(cell.trace);
    for (const SchedulerKind kind :
         {SchedulerKind::Easy, SchedulerKind::Conservative,
          SchedulerKind::KReservation, SchedulerKind::Selective,
          SchedulerKind::Slack, SchedulerKind::Plan}) {
      SCOPED_TRACE(to_string(kind));
      const SimulationResult result = run_simulation(
          trace, kind,
          SchedulerConfig{procs, PriorityPolicy::Fcfs, kBufferGb}, {},
          {.validate = true, .audit = true});
      for (const JobOutcome& outcome : result.outcomes)
        EXPECT_TRUE(outcome.start != sim::kNoTime || outcome.cancelled);
    }
  }
}

TEST(AuditFuzz, ReservationDepthHoldersSurviveContendedBufferAndOutages) {
  // kres and selective report the holders of their last pass, so the
  // auditor's reservation checks (unknown job, guaranteed start in the
  // past) now bind them too -- here on a contended buffer, with outages
  // that take processors and buffer alike and kill and requeue running
  // jobs under both requeue policies.
  constexpr int kBufferGb = 256;
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  model.max_bb_lost = kBufferGb / 4;
  const struct {
    SchedulerKind kind;
    SchedulerExtras extras;
  } policies[] = {
      {SchedulerKind::KReservation, {.reservation_depth = 2}},
      {SchedulerKind::KReservation, {.reservation_depth = 8}},
      {SchedulerKind::Selective, {.xfactor_threshold = 1.5}},
      {SchedulerKind::Selective,
       {.xfactor_threshold = 1.0, .selective_adaptive = true}},
  };
  std::uint64_t kills = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                        .load = exp::kHighLoad,
                        .factor = 2.0,
                        .cancel_fraction = seed == 2 ? 0.1 : 0.0,
                        .seed = seed};
    workload::Trace trace = build_fuzz_trace(cell);
    test::assign_random_bb(trace, kBufferGb, seed * 131 + 7);
    const sim::FailureTrace failures =
        generate_failures(model, procs, kBufferGb, seed * 31 + 7);
    for (const auto& policy : policies)
      for (const PriorityPolicy priority : kPaperPolicies)
        for (const sim::RequeuePolicy requeue :
             {sim::RequeuePolicy::kResubmitFull,
              sim::RequeuePolicy::kResubmitRemaining}) {
          const SchedulerConfig config{procs, priority, kBufferGb};
          const auto scheduler =
              make_scheduler(policy.kind, config, policy.extras);
          SCOPED_TRACE(cell.label() + " " + scheduler->name() +
                       " requeue=" + sim::to_string(requeue));
          ASSERT_TRUE(scheduler->audit_hooks().reservations);
          SimulationOptions options;
          options.validate = true;
          options.audit = true;
          options.failures = &failures;
          options.requeue = requeue;
          SimulationResult result;
          ASSERT_NO_THROW(result = run_simulation(trace, *scheduler, options));
          kills += result.kills;
        }
  }
  EXPECT_GT(kills, 0u);
}

TEST(AuditFuzz, SeededBufferOversubscriptionIsCaughtOnTheSecondAxis) {
  // Mutation check for the new axis: shrink the capacity the *auditor*
  // believes in below what the scheduler packs against, and every
  // resulting overflow must surface as "capacity-bb" -- proof the
  // second-axis invariant actually bites on realistic workloads.
  const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                      .load = exp::kHighLoad,
                      .factor = 1.0,
                      .cancel_fraction = 0.0,
                      .seed = 6};
  workload::Trace trace = build_fuzz_trace(cell);
  const int procs = exp::machine_procs(cell.trace);
  constexpr int kRealBuffer = 256;
  test::assign_random_bb(trace, kRealBuffer, 99);
  // The scheduler packs against the real capacity...
  const SchedulerConfig real{procs, PriorityPolicy::Fcfs, kRealBuffer};
  const auto scheduler = make_scheduler(SchedulerKind::Easy, real);
  // ...while the auditor is built for a machine with half the buffer
  // (a distinct scheduler object: only its config seeds the auditor).
  const SchedulerConfig halved{procs, PriorityPolicy::Fcfs, kRealBuffer / 2};
  const auto believed = make_scheduler(SchedulerKind::Fcfs, halved);
  ScheduleAuditor auditor{*believed, {.fatal = false}};
  (void)run_simulation(trace, *scheduler, {.auditor = &auditor});
  ASSERT_FALSE(auditor.ok());
  bool saw_capacity_bb = false;
  for (const AuditViolation& violation : auditor.violations()) {
    // Only the buffer axis was shrunk, so only it may fire.
    EXPECT_EQ(violation.invariant, "capacity-bb") << violation.to_string();
    saw_capacity_bb |= violation.invariant == "capacity-bb";
  }
  EXPECT_TRUE(saw_capacity_bb);
}

TEST(AuditFuzz, BackfillingDominatesTheFcfsBaseline) {
  // Paper Fig. 1 / Section 4: at high load, both backfilling schemes
  // beat the no-backfill baseline on mean slowdown and turnaround.
  // Checked on cancellation-free cells (the paper's setting).
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double factor : {1.0, 2.0}) {
      const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                          .load = exp::kHighLoad,
                          .factor = factor,
                          .cancel_fraction = 0.0,
                          .seed = seed};
      SCOPED_TRACE(cell.label());
      const workload::Trace trace = build_fuzz_trace(cell);
      const int procs = exp::machine_procs(cell.trace);
      const auto fcfs =
          audited_run(trace, procs, SchedulerKind::Fcfs, PriorityPolicy::Fcfs);
      const auto easy =
          audited_run(trace, procs, SchedulerKind::Easy, PriorityPolicy::Fcfs);
      const auto cons = audited_run(trace, procs, SchedulerKind::Conservative,
                                    PriorityPolicy::Fcfs);
      EXPECT_LE(easy.overall.slowdown.mean(), fcfs.overall.slowdown.mean());
      EXPECT_LE(cons.overall.slowdown.mean(), fcfs.overall.slowdown.mean());
      EXPECT_LE(easy.overall.turnaround.mean(),
                fcfs.overall.turnaround.mean());
      EXPECT_LE(cons.overall.turnaround.mean(),
                fcfs.overall.turnaround.mean());
    }
  }
}

TEST(AuditFuzz, ConservativePriorityEquivalenceUnderExactEstimates) {
  // Paper Section 4.1: with exact estimates (no early completions, so
  // compression never fires) conservative backfilling produces the
  // *identical* schedule under every priority policy. Cancellations
  // punch holes and void the theorem, so those cells are excluded.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                        .load = exp::kHighLoad,
                        .factor = 1.0,
                        .cancel_fraction = 0.0,
                        .seed = seed};
    SCOPED_TRACE(cell.label());
    const workload::Trace trace = build_fuzz_trace(cell);
    const int procs = exp::machine_procs(cell.trace);
    std::vector<std::vector<sim::Time>> starts;
    for (const PriorityPolicy priority : kPaperPolicies) {
      const SimulationResult result = run_simulation(
          trace, SchedulerKind::Conservative, SchedulerConfig{procs, priority},
          {}, {.validate = true, .audit = true});
      starts.push_back(test::start_times(result));
    }
    EXPECT_EQ(starts[0], starts[1]) << "fcfs vs sjf diverged";
    EXPECT_EQ(starts[0], starts[2]) << "fcfs vs xfactor diverged";
  }
}

TEST(AuditFuzz, SweepShardsTheFuzzGridWithPerCellAuditors) {
  // The same fuzz grid routed through exp::Sweep: every cell carries
  // its own internal auditor + validator (SweepOptions{.audit,
  // .validate}), custom runners reproduce the cancellation transform
  // from the scenario seed, and the sharded run must match the serial
  // one byte for byte.
  exp::Sweep sweep;
  for (const FuzzCell& cell : fuzz_grid()) {
    exp::Scenario scenario;
    scenario.trace = cell.trace;
    scenario.jobs = kJobs;
    scenario.load = cell.load;
    scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                          .factor = cell.factor};
    scenario.scheduler = SchedulerKind::Conservative;
    scenario.priority = PriorityPolicy::Fcfs;
    scenario.seed = cell.seed;
    const double cancel = cell.cancel_fraction;
    (void)sweep.add(
        scenario, cell.label(),
        [cancel](const exp::Scenario& s,
                 const core::SimulationOptions& sim_options,
                 exp::CellResult& result) {
          workload::Trace trace = exp::build_workload(s);
          if (cancel > 0.0) {
            sim::Rng rng{s.seed * 977 + 13};
            workload::apply_cancellations(trace, cancel, /*patience=*/2.0,
                                          rng);
          }
          const SchedulerConfig config{s.procs(), s.priority};
          result.metrics = metrics::compute_metrics(
              run_simulation(trace, s.scheduler, config, {}, sim_options),
              config.procs);
        });
  }

  exp::SweepOptions serial;
  serial.audit = true;
  serial.validate = true;
  const exp::SweepReport oracle = sweep.run(serial);
  ASSERT_EQ(oracle.cells.size(), fuzz_grid().size());
  for (const exp::CellResult& cell : oracle.cells) {
    SCOPED_TRACE(cell.tag);
    EXPECT_GE(cell.metrics.overall.slowdown.mean(), 1.0);
    EXPECT_EQ(cell.metrics.overall.count() + cell.metrics.cancelled_jobs,
              kJobs);
  }

  exp::SweepOptions sharded = serial;
  sharded.threads = 3;
  sharded.chunk = 1;
  const exp::SweepReport parallel = sweep.run(sharded);
  EXPECT_EQ(metrics::metrics_json(parallel.merged),
            metrics::metrics_json(oracle.merged));
  for (std::size_t i = 0; i < oracle.cells.size(); ++i)
    EXPECT_EQ(metrics::metrics_json(parallel.cells[i].metrics),
              metrics::metrics_json(oracle.cells[i].metrics))
        << oracle.cells[i].tag;
}

TEST(AuditFuzz, FaultTolerantSweepReproducesTheAuditedGridUnderInjection) {
  // The fault-injected retry path must be invisible to the audited fuzz
  // grid: transient faults on several cells, healed by retries, with
  // the per-cell auditor + validator still attached, produce the exact
  // bytes of the fault-free serial oracle.
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::Off);
  util::reset_log_limits();
  exp::Sweep sweep;
  std::vector<std::string> tags;
  for (const FuzzCell& cell : fuzz_grid()) {
    exp::Scenario scenario;
    scenario.trace = cell.trace;
    scenario.jobs = kJobs;
    scenario.load = cell.load;
    scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                          .factor = cell.factor};
    scenario.scheduler = SchedulerKind::Conservative;
    scenario.priority = PriorityPolicy::Fcfs;
    scenario.seed = cell.seed;
    const double cancel = cell.cancel_fraction;
    tags.push_back(cell.label());
    (void)sweep.add(
        scenario, cell.label(),
        [cancel](const exp::Scenario& s,
                 const core::SimulationOptions& sim_options,
                 exp::CellResult& result) {
          workload::Trace trace = exp::build_workload(s);
          if (cancel > 0.0) {
            sim::Rng rng{s.seed * 977 + 13};
            workload::apply_cancellations(trace, cancel, /*patience=*/2.0,
                                          rng);
          }
          const SchedulerConfig config{s.procs(), s.priority};
          result.metrics = metrics::compute_metrics(
              run_simulation(trace, s.scheduler, config, {}, sim_options),
              config.procs);
        });
  }

  exp::SweepOptions serial;
  serial.audit = true;
  serial.validate = true;
  const exp::SweepReport oracle = sweep.run(serial);

  exp::FaultPlan faults;
  faults.add(tags[0], {.fail_attempts = 2});
  faults.add(tags[tags.size() / 2],
             {.fail_attempts = 1, .kind = util::FailureKind::ParseError});
  faults.add(tags.back(),
             {.fail_attempts = 1,
              .kind = util::FailureKind::ResourceExhausted});
  exp::SweepOptions faulty = serial;
  faulty.threads = 3;
  faulty.chunk = 1;
  faulty.policy.retries = 2;
  faulty.faults = &faults;
  const exp::SweepReport report = sweep.run(faulty);

  EXPECT_EQ(report.retried, 4u);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(metrics::metrics_json(report.merged),
            metrics::metrics_json(oracle.merged));
  ASSERT_EQ(report.cells.size(), oracle.cells.size());
  for (std::size_t i = 0; i < oracle.cells.size(); ++i)
    EXPECT_EQ(metrics::metrics_json(report.cells[i].metrics),
              metrics::metrics_json(oracle.cells[i].metrics))
        << oracle.cells[i].tag;
  util::reset_log_limits();
  util::set_log_level(saved);
}

TEST(AuditFuzz, CollectingAuditorStaysSilentAndBusy) {
  // Differential sanity on the auditor itself: a clean run must produce
  // zero violations while performing a substantial number of checks --
  // an auditor that never checks anything would trivially "pass".
  const FuzzCell cell{.trace = exp::TraceKind::Sdsc,
                      .load = exp::kHighLoad,
                      .factor = 2.0,
                      .cancel_fraction = 0.15,
                      .seed = 5};
  const workload::Trace trace = build_fuzz_trace(cell);
  const int procs = exp::machine_procs(cell.trace);
  const SchedulerConfig config{procs, PriorityPolicy::Fcfs};
  const auto scheduler = make_scheduler(SchedulerKind::Conservative, config);
  ScheduleAuditor auditor{*scheduler, {.fatal = false}};
  const auto result = run_simulation(trace, *scheduler, {.auditor = &auditor});
  EXPECT_GT(result.events, 0u);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().to_string();
  EXPECT_GT(auditor.checks(), 10 * trace.size());
}

}  // namespace
}  // namespace bfsim::core
