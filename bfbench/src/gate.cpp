#include "gate.hpp"

#include <algorithm>
#include <tuple>

#include "core/validator.hpp"

namespace bfbench {

namespace core = bfsim::core;
namespace sim = bfsim::sim;

std::vector<std::string> check_schedule(const core::Trace& trace,
                                        const core::SimulationResult& result,
                                        int procs, int burst_buffer,
                                        const sim::FailureTrace* failures,
                                        sim::RequeuePolicy requeue) {
  std::vector<std::string> violations;
  if (result.outcomes.size() != trace.size()) {
    violations.push_back("outcome count differs from the trace");
    return violations;
  }
  for (const core::JobOutcome& outcome : result.outcomes)
    if (outcome.start == sim::kNoTime && !outcome.cancelled) {
      violations.push_back("job " + std::to_string(outcome.job.id) +
                           " never ran");
      return violations;
    }
  violations = core::validate_schedule(trace, result.outcomes, procs, requeue)
                   .violations;

  // Sweep line over (time, delta procs, delta bb). Capacity is checked
  // once all changes at an instant have applied: the engine releases
  // (finishes, repairs) before it acquires (starts, downs) at one time.
  struct Step {
    sim::Time at;
    int procs;
    int bb;
  };
  std::vector<Step> steps;
  steps.reserve(2 * trace.size());
  for (const core::JobOutcome& outcome : result.outcomes) {
    if (outcome.start == sim::kNoTime) continue;
    steps.push_back({outcome.start, outcome.job.procs, outcome.job.bb});
    steps.push_back({outcome.end, -outcome.job.procs, -outcome.job.bb});
  }
  if (failures != nullptr)
    for (const sim::Outage& outage : failures->outages) {
      steps.push_back({outage.down_at, outage.procs, outage.bb});
      steps.push_back({outage.repair_at, -outage.procs, -outage.bb});
    }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.at < b.at; });
  int used_procs = 0;
  int used_bb = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    used_procs += steps[i].procs;
    used_bb += steps[i].bb;
    if (i + 1 < steps.size() && steps[i + 1].at == steps[i].at) continue;
    if (used_procs > procs || used_bb > burst_buffer) {
      violations.push_back("capacity exceeded at t=" +
                           std::to_string(steps[i].at) + ": " +
                           std::to_string(used_procs) + " procs, " +
                           std::to_string(used_bb) + " GB in use or down");
      break;
    }
  }
  return violations;
}

std::uint64_t schedule_digest(const core::SimulationResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const core::JobOutcome& outcome : result.outcomes) {
    mix(outcome.start);
    mix(outcome.end);
    mix(outcome.first_start);
    mix(outcome.requeue_wait);
    mix((outcome.killed ? 1 : 0) | (outcome.cancelled ? 2 : 0) |
        (static_cast<std::int64_t>(outcome.requeues) << 2));
  }
  mix(result.makespan);
  return hash;
}

bool same_schedule(const core::SimulationResult& a,
                   const core::SimulationResult& b) {
  if (a.outcomes.size() != b.outcomes.size() || a.makespan != b.makespan)
    return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const core::JobOutcome& x = a.outcomes[i];
    const core::JobOutcome& y = b.outcomes[i];
    if (std::tie(x.start, x.end, x.killed, x.cancelled, x.requeues,
                 x.first_start, x.requeue_wait) !=
        std::tie(y.start, y.end, y.killed, y.cancelled, y.requeues,
                 y.first_start, y.requeue_wait))
      return false;
  }
  return true;
}

void plant_wrong_start(core::SimulationResult& result) {
  for (core::JobOutcome& outcome : result.outcomes)
    if (outcome.start != sim::kNoTime) {
      outcome.start = outcome.job.submit - 1;
      return;
    }
}

}  // namespace bfbench
