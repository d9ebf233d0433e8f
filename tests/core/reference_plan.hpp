// bfsim tests -- the plan scheduler that rebuilds its whole plan at every
// event, kept as the oracle for core::PlanScheduler.
//
// This is Kopanski & Rzadca's plan-based scheduling in its plain form:
// every submit, finish, cancel and outage rebuilds the availability
// profile from the running set and the active outages, then anchors every
// queued job in priority order.
// core::PlanScheduler re-places only a suffix of the queue on submits
// and cancels under static priorities, and skips the replan where the
// queue is empty; its schedules must match this one byte for byte. Its
// hooks always request a pass. Do not optimise this file -- its value
// is that it stays the obvious formulation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/scheduler.hpp"

namespace bfsim::test {

class ReferencePlan final : public core::SchedulerBase {
 public:
  explicit ReferencePlan(core::SchedulerConfig config)
      : SchedulerBase(config) {}

  bool job_submitted(const core::Job& job, core::Time now) override {
    insert_queued(job, now);
    replan(now);
    return true;
  }

  bool job_finished(core::JobId id, core::Time now) override {
    (void)commit_finish(id);
    replan(now);
    return true;
  }

  bool job_cancelled(core::JobId id, core::Time now) override {
    (void)take_queued(id);
    reservations_.erase(id);
    replan(now);
    return true;
  }

  bool job_killed(core::JobId id, core::Time now) override {
    // The outage's node_down follows at this instant and replans.
    (void)commit_finish(id);
    (void)now;
    return true;
  }

  bool node_down(const sim::Outage& outage, core::Time now) override {
    (void)SchedulerBase::node_down(outage, now);
    replan(now);
    return true;
  }

  bool node_up(const sim::Outage& outage, core::Time now) override {
    // No replan: the outage rectangle ends now by itself, and under
    // XFactor a replan at a repair would reorder the queue at an instant
    // the plan-based scheme does not re-optimise at.
    (void)SchedulerBase::node_up(outage, now);
    return true;
  }

  [[nodiscard]] core::Time next_wakeup() override {
    core::Time earliest = sim::kNoTime;
    for (const core::Job& job : queue_) {
      const core::Time start = reservations_.at(job.id);
      if (earliest == sim::kNoTime || start < earliest) earliest = start;
    }
    return earliest;
  }

  using Scheduler::select_starts;
  void select_starts(core::Time now, std::vector<core::Job>& out) override {
    ensure_sorted(now);
    std::vector<core::JobId> due;
    for (const core::Job& job : queue_) {
      const core::Time start = reservations_.at(job.id);
      if (start < now)
        throw std::logic_error("reference: planned start in the past");
      if (start == now) due.push_back(job.id);
    }
    for (const core::JobId id : due) {
      reservations_.erase(id);
      out.push_back(commit_start(id, now));
    }
  }

  [[nodiscard]] std::string name() const override {
    return "reference-plan";
  }

  [[nodiscard]] std::vector<core::AuditReservation> audit_reservations()
      const override {
    std::vector<core::AuditReservation> out;
    for (const core::Job& job : queue_)
      out.push_back({job.id, reservations_.at(job.id), job.estimate,
                     job.procs, job.bb});
    return out;
  }

  /// Replans that placed at least one queued job.
  [[nodiscard]] std::uint64_t replans() const { return replans_; }

 private:
  core::TimeByJob reservations_;
  std::uint64_t replans_ = 0;

  void replan(core::Time now) {
    core::MultiProfile profile = profile_from_running_and_outages(now);
    ensure_sorted(now);
    for (const core::Job& job : queue_)
      reservations_.set(job.id, profile.find_and_reserve(
                                    job.procs, job.bb, job.estimate, now));
    if (!queue_.empty()) ++replans_;
  }
};

}  // namespace bfsim::test
