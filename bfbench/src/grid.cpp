// bfbench -- the in-process workloads: paper-grid and bb-contended.
//
// Both declare their cells on an exp::Sweep whose custom runners drive
// core::EngineReplay over a ProbeCore, so the cell does exactly what
// core::run_simulation does (trace checks, DecisionCore, replay) plus
// metrics::compute_metrics, with the probe timing it. Traces are built
// in set-up and shared read-only by the cells.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/replay.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "gate.hpp"
#include "metrics/aggregate.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "sim/rng.hpp"

namespace bfbench {

namespace core = bfsim::core;
namespace exp = bfsim::exp;
namespace sim = bfsim::sim;
namespace workload = bfsim::workload;

namespace {

/// Burst-buffer capacity (GB) of the contended machine, and its demand
/// model (the one perf_burstbuffer uses): narrow jobs stage data, wide
/// jobs are compute-bound.
constexpr int kBufferGb = 1024;

void assign_contended_demands(workload::Trace& trace, int procs,
                              std::uint64_t seed) {
  sim::Rng rng{seed * 0x9e3779b97f4a7c15ULL + 11};
  for (workload::Job& job : trace)
    job.bb = job.procs < procs / 4
                 ? static_cast<int>(rng.uniform_int(kBufferGb / 8, kBufferGb / 2))
                 : static_cast<int>(rng.uniform_int(0, kBufferGb / 16));
}

/// The outage scenario of the paper-grid's outage cells (the one
/// perf_availability uses): six hours up, one hour down, up to a
/// quarter of the machine lost per outage.
sim::FailureTrace build_failures(int procs, std::uint64_t seed) {
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  model.horizon = 365 * sim::kDay;
  return sim::generate_failures(model, procs, 0, seed * 31 + 7);
}

struct CellSpec {
  std::string tag;
  std::size_t input = 0;  ///< index into GridInputs::traces
  bool outages = false;
  core::SchedulerKind kind = core::SchedulerKind::Easy;
  core::PriorityPolicy priority = core::PriorityPolicy::Fcfs;
};

struct GridInputs {
  std::vector<core::Trace> traces;
  std::vector<core::SchedulerConfig> machines;  ///< per trace
  std::vector<sim::FailureTrace> failures;      ///< per trace
  std::vector<CellSpec> cells;
  std::size_t threads = 1;
};

/// Jobs per trace when the command line does not override it.
constexpr std::size_t kPaperGridJobs = 1000;
constexpr std::size_t kContendedJobs = 600;
/// Traces per trace family and run, drawn from seeds derived from the
/// run's seed. Scheduling cost varies from trace to trace; averaging
/// over several traces keeps one run's figures close to the next
/// seed's.
constexpr std::uint64_t kPaperGridTraces = 3;
constexpr std::uint64_t kContendedTraces = 10;
/// Untraced timed passes a run makes at least, past its deadline if
/// need be, so each metric is a median of several.
constexpr std::size_t kMinTimedPasses = 3;
/// paper-grid's sweep threads: fixed, so that runs on different
/// machines split the work the same way, but never more than nproc.
std::size_t paper_grid_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
}

std::uint64_t trace_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 64 + index;
}

GridInputs build_paper_grid(std::uint64_t seed, std::size_t jobs) {
  GridInputs in;
  in.threads = paper_grid_threads();
  for (std::uint64_t draw = 0; draw < kPaperGridTraces; ++draw)
    for (const exp::TraceKind trace : {exp::TraceKind::Ctc, exp::TraceKind::Sdsc})
      for (const double factor : {1.0, 3.0}) {
        exp::Scenario scenario;
        scenario.trace = trace;
        scenario.jobs = jobs;
        scenario.seed = trace_seed(seed, draw);
        scenario.estimates =
            factor == 1.0
                ? exp::EstimateSpec{}
                : exp::EstimateSpec{exp::EstimateRegime::Systematic, factor};
        const std::size_t input = in.traces.size();
        in.traces.push_back(exp::build_workload(scenario));
        in.machines.push_back({scenario.procs(), core::PriorityPolicy::Fcfs, 0});
        in.failures.push_back(build_failures(scenario.procs(), scenario.seed));
        for (const core::SchedulerKind kind : kSchedulers)
          for (const core::PriorityPolicy priority :
               {core::PriorityPolicy::Fcfs, core::PriorityPolicy::Sjf,
                core::PriorityPolicy::XFactor})
            for (const bool outages : {false, true})
              in.cells.push_back(
                  {exp::to_string(trace) + "#" + std::to_string(draw) + "/" +
                       scenario.estimates.label() + "/" + core::to_string(kind) +
                       "/" + core::to_string(priority) +
                       (outages ? "/outages" : "/clean"),
                   input, outages, kind, priority});
      }
  return in;
}

GridInputs build_bb_contended(std::uint64_t seed, std::size_t jobs) {
  GridInputs in;
  for (std::uint64_t draw = 0; draw < kContendedTraces; ++draw) {
    exp::Scenario scenario;
    scenario.trace = exp::TraceKind::Ctc;
    scenario.jobs = jobs;
    scenario.seed = trace_seed(seed, draw);
    scenario.estimates = {exp::EstimateRegime::Systematic, 3.0};
    const std::size_t input = in.traces.size();
    in.traces.push_back(exp::build_workload(scenario));
    assign_contended_demands(in.traces.back(), scenario.procs(), scenario.seed);
    in.machines.push_back(
        {scenario.procs(), core::PriorityPolicy::Fcfs, kBufferGb});
    in.failures.emplace_back();
    for (const core::SchedulerKind kind : kSchedulers)
      in.cells.push_back({"ctc#" + std::to_string(draw) + "/R=3/bb/" +
                              core::to_string(kind),
                          input, false, kind, core::PriorityPolicy::Fcfs});
  }
  return in;
}

/// Everything one cell of one pass leaves behind. The schedule itself
/// is reduced to its digest (and, on the reference pass, the gate's
/// verdict) inside the cell, so that a pass holds one schedule per
/// thread rather than one per cell, and peak_rss_mb measures bfsim.
/// Hashing the outcomes is a small, fixed share of a timed pass.
struct CellOutput {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> violations;
  std::vector<double> frame_ns;
  LayerStats layers;
  std::unique_ptr<Tracer> tracer;
};

struct PassOutput {
  std::vector<CellOutput> cells;
  std::vector<std::string> errors;  ///< per cell, "" = ran
  double wall_s = 0.0;
  bool checked = false;  ///< the cells ran check_schedule
};

/// How a pass treats each cell's schedule once the cell's timed work is
/// done.
struct PassGate {
  bool check = false;  ///< run check_schedule (the untimed reference pass)
  bool plant = false;  ///< corrupt cell 0's schedule first (gate tests)
};

void run_cell(const GridInputs& in, std::size_t index, bool traced,
              Clock::time_point epoch, std::size_t span_capacity,
              PassGate gate, CellOutput& out, exp::CellResult& cell_result) {
  const CellSpec& spec = in.cells[index];
  const core::Trace& trace = in.traces[spec.input];
  core::SchedulerConfig config = in.machines[spec.input];
  config.priority = spec.priority;
  const sim::FailureTrace* failures =
      spec.outages ? &in.failures[spec.input] : nullptr;

  const auto start = Clock::now();
  Tracer* tracer = nullptr;
  std::int32_t cell_span = -1;
  if (traced) {
    out.tracer = std::make_unique<Tracer>(epoch, static_cast<std::uint32_t>(index),
                                          span_capacity);
    tracer = out.tracer.get();
    cell_span = tracer->open(SpanKind::kCell);
  }
  const auto scheduler = core::make_scheduler(spec.kind, config);
  std::unique_ptr<ProbeScheduler> probe_scheduler;
  core::Scheduler* decided_by = scheduler.get();
  if (traced) {
    probe_scheduler =
        std::make_unique<ProbeScheduler>(*scheduler, out.layers, tracer);
    decided_by = probe_scheduler.get();
  }
  core::validate_replay_trace(trace, config.procs, config.burst_buffer);
  if (failures != nullptr)
    sim::validate_failure_trace(*failures, config.procs, config.burst_buffer);

  const std::int32_t replay_span =
      traced ? tracer->open(SpanKind::kReplay) : -1;
  const auto replay_start = Clock::now();
  core::DecisionCore decision{*decided_by};
  decision.reserve_jobs(trace.size());
  ProbeCore probe{decision,
                  trace,
                  out.frame_ns,
                  traced ? &out.layers : nullptr,
                  probe_scheduler.get(),
                  tracer};
  core::EngineReplay<ProbeCore> replay{trace, probe, failures};
  core::SimulationResult result = replay.run();
  const auto replay_end = Clock::now();
  if (traced) tracer->close(replay_span);

  const std::int32_t metrics_span =
      traced ? tracer->open(SpanKind::kMetrics) : -1;
  cell_result.metrics = bfsim::metrics::compute_metrics(
      result, config.procs, exp::experiment_metrics_options(trace.size()));
  const auto end = Clock::now();
  if (traced) {
    tracer->close(metrics_span);
    tracer->close(cell_span);
    LayerStats& layers = out.layers;
    layers.engine_events = result.events;
    layers.replay_s = std::chrono::duration<double>(replay_end - replay_start).count();
    layers.metrics_s = std::chrono::duration<double>(end - replay_end).count();
    layers.passes = result.passes;
    layers.passes_skipped = result.passes_skipped;
    layers.max_queue = result.max_queue;
    layers.kills = result.kills;
  }
  out.seconds = std::chrono::duration<double>(end - start).count();

  if (gate.plant && index == 0) plant_wrong_start(result);
  out.digest = schedule_digest(result);
  if (gate.check)
    out.violations = check_schedule(trace, result, config.procs,
                                    config.burst_buffer, failures,
                                    sim::RequeuePolicy::kResubmitFull);
}

PassOutput run_pass(const GridInputs& in, std::size_t threads, bool traced,
                    PassGate gate, Clock::time_point epoch) {
  constexpr std::size_t kSpanBudget = 200000;
  const std::size_t span_capacity = kSpanBudget / in.cells.size() + 1;
  PassOutput pass;
  pass.checked = gate.check;
  pass.cells.resize(in.cells.size());
  pass.errors.resize(in.cells.size());
  exp::Sweep sweep;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    exp::Scenario label;
    label.scheduler = in.cells[i].kind;
    label.priority = in.cells[i].priority;
    sweep.add(label, in.cells[i].tag,
              [&in, &pass, i, traced, gate, epoch, span_capacity](
                  const exp::Scenario&, const core::SimulationOptions&,
                  exp::CellResult& result) {
                run_cell(in, i, traced, epoch, span_capacity, gate,
                         pass.cells[i], result);
              });
  }
  exp::SweepOptions options;
  options.threads = threads;
  // One cell per task: with the default ~42-cell chunks of uneven cost
  // the pass wall time depends on how the chunks fall to the threads.
  options.chunk = 1;
  options.policy.partial = true;  // a failing cell is counted, not fatal
  const auto start = Clock::now();
  const exp::SweepReport report = sweep.run(options);
  pass.wall_s = seconds_since(start);
  for (const exp::CellFailure& failure : report.failures)
    pass.errors[failure.cell] = failure.message.empty() ? "failed" : failure.message;
  return pass;
}

/// Per-cell reference of the first pass, the one that runs
/// check_schedule: later passes must reproduce its schedule exactly.
struct Reference {
  std::uint64_t digest = 0;
  bool ok = false;
  bool set = false;
};

/// Gate one pass; returns the failed cell count.
std::uint64_t gate_pass(const GridInputs& in, const PassOutput& pass,
                        std::vector<Reference>& reference, RunResult& run,
                        const std::string& pass_label) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    const CellOutput& cell = pass.cells[i];
    const CellSpec& spec = in.cells[i];
    bool ok = pass.errors[i].empty();
    if (!ok)
      std::fprintf(stderr, "bfbench: %s failed: %s\n", spec.tag.c_str(),
                   pass.errors[i].c_str());
    const std::uint64_t digest = ok ? cell.digest : 0;
    if (ok) {
      Reference& ref = reference[i];
      if (!ref.set) {  // a cell that threw on the reference pass stays failed
        for (const std::string& violation : cell.violations)
          std::fprintf(stderr, "bfbench: %s: %s\n", spec.tag.c_str(),
                       violation.c_str());
        ref = {digest, pass.checked && cell.violations.empty(), true};
      }
      ok = ref.ok && digest == ref.digest;
      if (ref.ok && digest != ref.digest)
        std::fprintf(stderr, "bfbench: %s: schedule differs between passes\n",
                     spec.tag.c_str());
    }
    if (!ok) ++failed;
    run.digests.emplace_back(pass_label + "/" + spec.tag, digest);
  }
  return failed;
}

}  // namespace

RunResult run_grid_workload(const Options& options) {
  const bool paper = options.workload == "paper-grid";
  const std::size_t jobs =
      options.jobs != 0 ? options.jobs : paper ? kPaperGridJobs : kContendedJobs;
  const auto build = [&] {
    return paper ? build_paper_grid(options.seed, jobs)
                 : build_bb_contended(options.seed, jobs);
  };

  // Set-up: trace generation. A virtual machine's speed can drift over
  // seconds, so besides the set-up proper, a short burst of builds after
  // each timed pass samples set-up time across the whole run; setup_s is
  // the median of the bursts' medians.
  GridInputs in;
  std::vector<double> setup_s = {median(timed_setup([&] { in = build(); }))};
  std::size_t jobs_per_pass = 0;
  for (const CellSpec& cell : in.cells) jobs_per_pass += in.traces[cell.input].size();

  RunResult run;
  std::vector<Reference> reference(in.cells.size());
  std::vector<double> pass_wall, pass_busy, frame_p50_us, frame_p90_us,
      frame_p99_us;
  std::size_t frame_samples = 0;
  std::vector<std::vector<double>> cell_seconds(in.cells.size());
  std::vector<double> traced_wall;
  std::map<std::string, LayerStats> layers;
  PassOutput traced_pass;
  const auto epoch = Clock::now();

  // Pass 0 warms the allocator, caches and thread pool, and is the
  // reference pass whose cells run check_schedule: it is not timed.
  // Timed passes follow until the deadline; traced runs alternate
  // untraced and traced passes so both see the same machine.
  auto deadline = Clock::now();
  for (int pass_index = 0;; ++pass_index) {
    const bool warmup = pass_index == 0;
    const bool traced = options.trace && !warmup && pass_index % 2 == 0;
    PassOutput pass = run_pass(in, in.threads, traced,
                               {warmup, options.plant_fault}, epoch);
    std::fprintf(stderr, "bfbench: %s pass %d: %.4f s\n",
                 warmup ? "warm-up" : traced ? "traced" : "untraced", pass_index,
                 pass.wall_s);
    if (warmup) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
    } else if (traced) {
      traced_wall.push_back(pass.wall_s);
    } else {
      pass_wall.push_back(pass.wall_s);
      double busy = 0.0;
      std::vector<double> frames_us;
      for (std::size_t i = 0; i < in.cells.size(); ++i) {
        busy += pass.cells[i].seconds;
        cell_seconds[i].push_back(pass.cells[i].seconds);
        for (const double ns : pass.cells[i].frame_ns)
          frames_us.push_back(ns / 1e3);
      }
      pass_busy.push_back(busy);
      setup_s.push_back(median(timed_setup([&] { (void)build(); }, 0.02)));
      frame_samples += frames_us.size();
      frame_p50_us.push_back(quantile(frames_us, 0.50));
      frame_p90_us.push_back(quantile(frames_us, 0.90));
      frame_p99_us.push_back(quantile(frames_us, 0.99));
    }
    run.attempted += in.cells.size();
    run.failed += gate_pass(in, pass, reference, run,
                            (traced ? "traced" : "untraced") +
                                std::to_string(pass_index));
    if (traced && traced_wall.size() == 1) traced_pass = std::move(pass);
    const bool enough = pass_wall.size() >= kMinTimedPasses &&
                        (!options.trace || !traced_wall.empty());
    if (enough && Clock::now() >= deadline) break;
  }

  if (!options.trace) {
    std::vector<double> throughput;
    for (const double wall : pass_wall)
      throughput.push_back(static_cast<double>(jobs_per_pass) / wall);
    std::vector<double> cell_throughput;
    for (std::size_t i = 0; i < in.cells.size(); ++i)
      cell_throughput.push_back(
          static_cast<double>(in.traces[in.cells[i].input].size()) /
          median(cell_seconds[i]));
    run.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", median(throughput), "1/s"},
        {"cell_jobs_per_s_geomean", geomean(cell_throughput), "1/s"},
        {"frame_p50_us", median(frame_p50_us), "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return run;
  }

  LayerValues values;
  std::vector<const Tracer*> tracers;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    CellOutput& cell = traced_pass.cells[i];
    layers[core::to_string(in.cells[i].kind)].merge(cell.layers);
    if (cell.tracer) tracers.push_back(cell.tracer.get());
  }
  add_engine_layers(layers, values);
  values["workload.build_s"] = median(setup_s);
  values["exp.sweep.wall_s"] = median(pass_wall);
  values["exp.sweep.cell_busy_s"] = median(pass_busy);
  values["exp.sweep.efficiency"] =
      median(pass_busy) / (static_cast<double>(in.threads) * median(pass_wall));
  if (in.threads > 1) {
    // The serial baseline: the same grid in the calling thread.
    PassOutput serial = run_pass(in, 1, false, {false, options.plant_fault}, epoch);
    run.attempted += in.cells.size();
    run.failed += gate_pass(in, serial, reference, run, "serial");
    values["exp.sweep.speedup_vs_serial"] = serial.wall_s / median(pass_wall);
  } else {
    values["exp.sweep.speedup_vs_serial"] = 1.0;
  }
  values["frame_samples"] = static_cast<double>(frame_samples);
  values["frame_p90_us"] = median(frame_p90_us);
  values["frame_p99_us"] = median(frame_p99_us);
  values["trace_overhead"] = median(traced_wall) / median(pass_wall);
  write_chrome_trace(options.work_dir + "/trace-" + options.workload + "-" +
                         std::to_string(options.seed) + ".json",
                     tracers);
  run.metrics = layer_metrics(values);
  return run;
}

}  // namespace bfbench
