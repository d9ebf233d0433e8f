// bfbench -- the correctness gate, run outside every timed region.
//
// A schedule passes when core::validate_schedule accepts it (arrival,
// duration and processor capacity) and the benchmark's own sweep line
// finds no instant at which running jobs plus capacity lost to outages
// exceed the machine on either axis. The validator checks processors
// only, so the burst-buffer axis and the outage timeline are checked
// here. Killed runs are not in the outcomes, so their partial
// occupancy is not checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "sim/failure.hpp"

namespace bfbench {

/// Every violation found in `result`, empty when the schedule passes.
[[nodiscard]] std::vector<std::string> check_schedule(
    const bfsim::core::Trace& trace, const bfsim::core::SimulationResult& result,
    int procs, int burst_buffer, const bfsim::sim::FailureTrace* failures,
    bfsim::sim::RequeuePolicy requeue);

/// FNV-1a over every outcome's start, end and flags plus the makespan:
/// equal digests mean byte-identical schedules (up to hash collision).
[[nodiscard]] std::uint64_t schedule_digest(
    const bfsim::core::SimulationResult& result);

/// Field-by-field equality of two schedules of one trace.
[[nodiscard]] bool same_schedule(const bfsim::core::SimulationResult& a,
                                 const bfsim::core::SimulationResult& b);

/// The planted fault of the gate's own tests: the first job that ran
/// now starts one second before it was submitted.
void plant_wrong_start(bfsim::core::SimulationResult& result);

}  // namespace bfbench
