// bfbench -- metric names, units and output formats.
//
// The per-layer metric set is fixed: every traced run prints every
// name, with 0 where the workload does not exercise that layer (the
// served workloads run the decision core inside the daemon, the grid
// workloads never open a socket). The set is listed once, in report.cpp.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"

namespace bfbench {

/// Every scheduler, in declaration order. The grid workloads run them
/// all; per-scheduler layer metrics carry core::to_string(kind) as a
/// suffix.
inline constexpr bfsim::core::SchedulerKind kSchedulers[] = {
    bfsim::core::SchedulerKind::Fcfs,         bfsim::core::SchedulerKind::Easy,
    bfsim::core::SchedulerKind::Conservative, bfsim::core::SchedulerKind::KReservation,
    bfsim::core::SchedulerKind::Selective,    bfsim::core::SchedulerKind::Slack,
    bfsim::core::SchedulerKind::Plan};

/// Per-layer values measured by one traced run; names absent from the
/// map print as 0.
using LayerValues = std::map<std::string, double>;

/// Fill the sim/core/metrics layer values from per-scheduler stats.
void add_engine_layers(const std::map<std::string, LayerStats>& by_scheduler,
                       LayerValues& values);

/// Print the final result line (and nothing else) to stdout.
void print_result(const RunResult& result);

/// The per-layer metrics in catalog order, from `values`.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerValues& values);

/// Write spans as Chrome trace-event JSON (one tid per tracer).
void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

}  // namespace bfbench
