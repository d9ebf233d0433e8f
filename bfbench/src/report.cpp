#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

namespace bfbench {

double quantile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

namespace core = bfsim::core;

/// The schedulers whose audit_profile() exposes a live profile.
constexpr core::SchedulerKind kProfileSchedulers[] = {
    core::SchedulerKind::Conservative, core::SchedulerKind::Slack,
    core::SchedulerKind::Plan};

const char* const kPerScheduler[][2] = {
    {"core.decision.busy_s", "s"},
    {"core.decision.end_cycle_p50_ns", "ns"},
    {"core.decision.end_cycle_p99_ns", "ns"},
    {"core.decision.pass_yield", "ratio"},
    {"core.scheduler.select_starts_busy_s", "s"},
    {"core.scheduler.select_starts_p99_ns", "ns"},
    {"core.scheduler.hooks_busy_s", "s"},
};

const char* const kPerProfile[][2] = {
    {"core.profile.breakpoints_mean", "count"},
    {"core.profile.breakpoints_peak", "count"},
    {"core.profile.anchor_p50_ns", "ns"},
    {"core.profile.anchor_p99_ns", "ns"},
};

/// Every per-layer metric name with its unit, in print order.
std::vector<std::pair<std::string, std::string>> per_layer_catalog() {
  std::vector<std::pair<std::string, std::string>> catalog = {
      {"sim.engine.events", "count"},
      {"sim.engine.self_s", "s"},
      {"core.decision.calls", "count"},
      {"core.decision.passes", "count"},
      {"core.decision.passes_skipped", "count"},
      {"core.decision.max_queue", "count"},
      {"core.decision.kills", "count"},
  };
  for (const auto& metric : kPerScheduler)
    for (const core::SchedulerKind kind : kSchedulers)
      catalog.emplace_back(std::string(metric[0]) + "." + core::to_string(kind),
                           metric[1]);
  for (const auto& metric : kPerProfile)
    for (const core::SchedulerKind kind : kProfileSchedulers)
      catalog.emplace_back(std::string(metric[0]) + "." + core::to_string(kind),
                           metric[1]);
  const std::pair<std::string, std::string> tail[] = {
      {"workload.build_s", "s"},
      {"metrics.compute_s", "s"},
      {"exp.sweep.wall_s", "s"},
      {"exp.sweep.cell_busy_s", "s"},
      {"exp.sweep.efficiency", "ratio"},
      {"exp.sweep.speedup_vs_serial", "ratio"},
      {"frame_samples", "count"},
      {"frame_p90_us", "us"},
      {"frame_p99_us", "us"},
      {"svc.frames", "count"},
      {"svc.request_bytes", "bytes"},
      {"svc.reply_bytes", "bytes"},
      {"svc.codec.parse_p50_ns", "ns"},
      {"svc.session.handle_p50_us", "us"},
      {"svc.session.handle_p99_us", "us"},
      {"svc.transport_p50_us", "us"},
      {"svc.eventlog.append_p50_us", "us"},
      {"svc.eventlog.append_p99_us", "us"},
      {"trace_overhead", "ratio"},
  };
  catalog.insert(catalog.end(), std::begin(tail), std::end(tail));
  return catalog;
}

}  // namespace

void add_engine_layers(const std::map<std::string, LayerStats>& by_scheduler,
                       LayerValues& values) {
  LayerStats total;
  for (const auto& [scheduler, stats] : by_scheduler) {
    total.merge(stats);
    const std::string suffix = "." + scheduler;
    values["core.decision.busy_s" + suffix] = stats.decision_busy_s;
    std::vector<double> cycles = stats.end_cycle_ns;
    values["core.decision.end_cycle_p50_ns" + suffix] = quantile(cycles, 0.50);
    values["core.decision.end_cycle_p99_ns" + suffix] = quantile(cycles, 0.99);
    values["core.decision.pass_yield" + suffix] =
        stats.passes == 0 ? 0.0
                          : static_cast<double>(stats.passes_starting) /
                                static_cast<double>(stats.passes);
    values["core.scheduler.select_starts_busy_s" + suffix] = stats.select_busy_s;
    std::vector<double> selects = stats.select_ns;
    values["core.scheduler.select_starts_p99_ns" + suffix] =
        quantile(selects, 0.99);
    values["core.scheduler.hooks_busy_s" + suffix] = stats.hooks_busy_s;
    if (stats.breakpoint_samples > 0) {
      values["core.profile.breakpoints_mean" + suffix] =
          stats.breakpoint_sum / static_cast<double>(stats.breakpoint_samples);
      values["core.profile.breakpoints_peak" + suffix] =
          static_cast<double>(stats.breakpoint_peak);
      std::vector<double> anchors = stats.anchor_ns;
      values["core.profile.anchor_p50_ns" + suffix] = quantile(anchors, 0.50);
      values["core.profile.anchor_p99_ns" + suffix] = quantile(anchors, 0.99);
    }
  }
  values["sim.engine.events"] = static_cast<double>(total.engine_events);
  values["sim.engine.self_s"] = total.replay_s - total.decision_busy_s;
  values["core.decision.calls"] = static_cast<double>(total.decision_calls);
  values["core.decision.passes"] = static_cast<double>(total.passes);
  values["core.decision.passes_skipped"] =
      static_cast<double>(total.passes_skipped);
  values["core.decision.max_queue"] = static_cast<double>(total.max_queue);
  values["core.decision.kills"] = static_cast<double>(total.kills);
  values["metrics.compute_s"] = total.metrics_s;
}

std::vector<Metric> layer_metrics(const LayerValues& values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values)
    if (std::none_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; }))
      throw std::logic_error("bfbench: layer metric outside the catalog: " +
                             name);
  return metrics;
}

void print_result(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    const std::vector<Span>& spans = tracers[tid]->spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      char event[320];
      std::snprintf(event, sizeof event,
                    "%s\n{\"name\": \"%s\", \"cat\": \"bfbench\", \"ph\": "
                    "\"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": "
                    "%.3f, \"args\": {\"op\": %u, \"self_us\": %.3f}}",
                    first ? "" : ",", span_name(span.kind), tid,
                    static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                    span.op, static_cast<double>(self[i]) / 1e3);
      out << event;
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace bfbench
