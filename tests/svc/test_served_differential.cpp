// The served differential wall: a trace replayed through the service
// stack (RemoteDecisionCore -> JSON frames -> Session -> DecisionCore)
// must produce byte-identical schedules to run_simulation for every
// scheduler x priority policy x estimate regime x cancellation mix.
// LocalChannel short-circuits the socket but keeps every byte of the
// protocol, so this is the daemon's semantics minus the kernel.
#include <gtest/gtest.h>

#include <string>

#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/session.hpp"
#include "workload/transforms.hpp"

namespace bfsim::svc {
namespace {

using core::PriorityPolicy;
using core::SchedulerKind;
using core::SimulationResult;

constexpr std::size_t kJobs = 200;

const SchedulerKind kAllKinds[] = {
    SchedulerKind::Fcfs,         SchedulerKind::Easy,
    SchedulerKind::Conservative, SchedulerKind::KReservation,
    SchedulerKind::Selective,    SchedulerKind::Slack,
    SchedulerKind::Plan,
};

workload::Trace build_trace(double factor, double cancel_fraction,
                            double load, std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = kJobs;
  scenario.load = load;
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

/// Byte-level equality on every field both fronts report.
void expect_identical(const SimulationResult& served,
                      const SimulationResult& local) {
  ASSERT_EQ(served.outcomes.size(), local.outcomes.size());
  for (std::size_t i = 0; i < served.outcomes.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(served.outcomes[i].start, local.outcomes[i].start);
    EXPECT_EQ(served.outcomes[i].end, local.outcomes[i].end);
    EXPECT_EQ(served.outcomes[i].killed, local.outcomes[i].killed);
    EXPECT_EQ(served.outcomes[i].cancelled, local.outcomes[i].cancelled);
  }
  EXPECT_EQ(served.makespan, local.makespan);
  EXPECT_EQ(served.events, local.events);
  EXPECT_EQ(served.passes, local.passes);
  EXPECT_EQ(served.passes_skipped, local.passes_skipped);
  EXPECT_EQ(served.wakeups, local.wakeups);
  EXPECT_EQ(served.max_queue, local.max_queue);
  EXPECT_EQ(served.scheduler_name, local.scheduler_name);
}

SimulationResult run_served(const workload::Trace& trace,
                            const HelloRequest& hello) {
  Session session;
  LocalChannel channel{session};
  const SimulationResult result = served_run(trace, channel, hello);
  // A clean replay quarantines nothing.
  EXPECT_EQ(session.report().rejected, 0u);
  EXPECT_TRUE(session.closed());
  return result;
}

TEST(ServedDifferential, MatchesTheInProcessEngineAcrossTheGrid) {
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  for (const double factor : {1.0, 4.0}) {
    for (const double cancel : {0.0, 0.15}) {
      SCOPED_TRACE("R=" + std::to_string(factor) +
                   " cancel=" + std::to_string(cancel));
      const workload::Trace trace =
          build_trace(factor, cancel, exp::kHighLoad, 1);
      for (const SchedulerKind kind : kAllKinds) {
        for (const PriorityPolicy priority : core::kPaperPolicies) {
          SCOPED_TRACE(to_string(kind) + "-" + to_string(priority));
          HelloRequest hello;
          hello.kind = kind;
          hello.config = core::SchedulerConfig{procs, priority};
          const SimulationResult served = run_served(trace, hello);
          const SimulationResult local = core::run_simulation(
              trace, kind, hello.config, hello.extras, {.validate = true});
          expect_identical(served, local);
        }
      }
    }
  }
}

TEST(ServedDifferential, AuditedSessionStaysIdenticalAndGreen) {
  // The daemon-side auditor observes every event through the seam; it
  // must stay silent (no throw) and change nothing about the schedule.
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  const workload::Trace trace = build_trace(2.0, 0.1, exp::kHighLoad, 3);
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    HelloRequest hello;
    hello.kind = kind;
    hello.config = core::SchedulerConfig{procs, PriorityPolicy::XFactor};
    hello.audit = true;
    const SimulationResult served = run_served(trace, hello);
    const SimulationResult local = core::run_simulation(
        trace, kind, hello.config, hello.extras,
        {.validate = true, .audit = true});
    expect_identical(served, local);
  }
}

TEST(ServedDifferential, LowLoadFastPathsSurviveTheWire) {
  // Quarter load: most submits hit the O(1) empty-and-fits start path
  // and the skip hooks; next_wakeup round-trips as JSON null almost
  // every batch. The wire must be invisible.
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  const workload::Trace trace = build_trace(4.0, 0.0, 0.25, 5);
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    HelloRequest hello;
    hello.kind = kind;
    hello.config = core::SchedulerConfig{procs, PriorityPolicy::Sjf};
    const SimulationResult served = run_served(trace, hello);
    const SimulationResult local = core::run_simulation(
        trace, kind, hello.config, hello.extras, {.validate = true});
    expect_identical(served, local);
  }
}

TEST(ServedDifferential, BurstBufferDemandsCrossTheWire) {
  // v2 fields: the machine's capacity rides the hello frame, each
  // job's demand rides its submit event. The audited daemon must match
  // the in-process engine byte for byte with the second axis binding.
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  workload::Trace trace = build_trace(2.0, 0.1, exp::kHighLoad, 9);
  sim::Rng rng{9 * 1031 + 7};
  for (workload::Job& job : trace)
    job.bb = static_cast<int>(rng.uniform_int(0, 512));
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    HelloRequest hello;
    hello.kind = kind;
    hello.config = core::SchedulerConfig{procs, PriorityPolicy::Fcfs,
                                         /*burst_buffer=*/512};
    hello.audit = true;
    const SimulationResult served = run_served(trace, hello);
    const SimulationResult local = core::run_simulation(
        trace, kind, hello.config, hello.extras,
        {.validate = true, .audit = true});
    expect_identical(served, local);
  }
}

TEST(ServedDifferential, ConservativePriorityEquivalenceWithAContendedBuffer) {
  // Section 4.1 through the daemon: conservative with exact estimates
  // gives one schedule for FCFS, SJF and XFactor with a contended
  // 1,024 GB buffer (CTC, bfbench's bb-contended demand model), and
  // every served schedule is the in-process one. Every submit carries
  // a `bb` field.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    exp::Scenario scenario;
    scenario.trace = exp::TraceKind::Ctc;
    scenario.jobs = 600;
    scenario.seed = seed;
    workload::Trace trace = exp::build_workload(scenario);
    const int procs = scenario.procs();
    sim::Rng rng{seed * 0x9e3779b97f4a7c15ULL + 11};
    for (workload::Job& job : trace)
      job.bb = job.procs < procs / 4
                   ? static_cast<int>(rng.uniform_int(128, 512))
                   : static_cast<int>(rng.uniform_int(0, 64));
    const core::SchedulerConfig fcfs{procs, PriorityPolicy::Fcfs, 1024};
    const SimulationResult local =
        core::run_simulation(trace, SchedulerKind::Conservative, fcfs);
    for (const PriorityPolicy priority :
         {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor}) {
      SCOPED_TRACE(to_string(priority));
      HelloRequest hello;
      hello.kind = SchedulerKind::Conservative;
      hello.config = core::SchedulerConfig{procs, priority, 1024};
      const SimulationResult served = run_served(trace, hello);
      ASSERT_EQ(served.outcomes.size(), local.outcomes.size());
      for (std::size_t i = 0; i < served.outcomes.size(); ++i)
        ASSERT_EQ(served.outcomes[i].start, local.outcomes[i].start)
            << "job " << i;
    }
  }
}

TEST(ServedDifferential, NonDefaultExtrasCrossTheWire) {
  // Every extras knob rides the hello frame; a daemon configured with
  // depth-8 reservations or a custom slack factor must behave as the
  // in-process scheduler built from the same extras.
  const int procs = exp::machine_procs(exp::TraceKind::Sdsc);
  const workload::Trace trace = build_trace(2.0, 0.0, exp::kHighLoad, 7);
  core::SchedulerExtras extras;
  extras.reservation_depth = 8;
  extras.xfactor_threshold = 3.5;
  extras.selective_adaptive = true;
  extras.slack_factor = 1.5;
  for (const SchedulerKind kind :
       {SchedulerKind::KReservation, SchedulerKind::Selective,
        SchedulerKind::Slack}) {
    SCOPED_TRACE(to_string(kind));
    HelloRequest hello;
    hello.kind = kind;
    hello.config = core::SchedulerConfig{procs, PriorityPolicy::Fcfs};
    hello.extras = extras;
    const SimulationResult served = run_served(trace, hello);
    const SimulationResult local = core::run_simulation(
        trace, kind, hello.config, extras, {.validate = true});
    expect_identical(served, local);
  }
}

}  // namespace
}  // namespace bfsim::svc
