#include "core/plan_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bfsim::core {

PlanScheduler::PlanScheduler(SchedulerConfig config)
    : SchedulerBase(config), profile_(config.procs, config.burst_buffer) {}

// Plan starts jobs only when a planned start comes due, so "does a pass
// matter at `now`" is exactly "is the earliest planned start == now" --
// every hook re-plans (or patches the plan incrementally on the
// queue-empty fast paths) and answers from the due-heap.

void PlanScheduler::replan(Time now) {
  profile_ = profile_from_running_and_outages(now);
  if (queue_.empty()) {
    due_.clear();  // reservations_ is already empty alongside the queue
    return;
  }
  ensure_sorted(now);
  for (const Job& job : queue_)
    reservations_.set(
        job.id, profile_.find_and_reserve(job.procs, job.bb, job.estimate,
                                          now));
  due_.rebuild(reservations_);
  ++replans_;
}

bool PlanScheduler::job_submitted(const Job& job, Time now) {
  const bool was_idle_fit = queue_.empty() && fits_now(job);
  insert_queued(job, now);
  if (was_idle_fit) {
    // O(1) fast path for the idle/low-load regime: with nothing queued
    // the profile holds only running-job rectangles (every one begins
    // at-or-before `now`), so free capacity is non-decreasing on every
    // axis for t >= now and fitting now anchors the job at `now` --
    // exactly what a full replan would compute.
    reservations_.set(job.id, now);
    due_.push(now, job.id);
    profile_.reserve(now, sim::saturating_add(now, job.estimate), job.procs,
                     job.bb);
    return true;
  }
  replan(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_finished(JobId id, Time now) {
  const RunningJob rj = commit_finish(id);
  if (queue_.empty()) {
    // Nothing to re-plan around: return the unused tail of the job's
    // estimated rectangle and drop the consumed history so the profile
    // stays proportional to the live schedule between replans.
    if (now < rj.est_end)
      profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    profile_.discard_before(now);
    return false;
  }
  replan(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_cancelled(JobId id, Time now) {
  const Job job = take_queued(id);
  const Time start = reservations_.at(id);
  reservations_.erase(id);
  if (queue_.empty()) {
    // Last queued job withdrawn: just vacate its planned rectangle.
    profile_.release(start, sim::saturating_add(start, job.estimate),
                     job.procs, job.bb);
    return false;
  }
  replan(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_killed(JobId id, Time now) {
  // Just the running-set bookkeeping: the outage's node_down (which
  // always follows the kills) replans wholesale, so patching the
  // about-to-be-discarded profile here would be wasted work.
  (void)commit_finish(id);
  (void)now;
  return false;  // node_down decides whether a pass is needed
}

bool PlanScheduler::node_down(const sim::Outage& outage, Time now) {
  SchedulerBase::node_down(outage, now);
  // The replan's rebuilt profile folds the new outage rectangle in via
  // profile_from_running_and_outages.
  replan(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::node_up(const sim::Outage& outage, Time now) {
  // The outage rectangle expires at repair_at == now by itself; every
  // planned start was anchored with the repair time already known, so a
  // start planned exactly at the repair instant is due now.
  SchedulerBase::node_up(outage, now);
  return due_.earliest(reservations_) == now;
}

Time PlanScheduler::next_wakeup() { return due_.earliest(reservations_); }

void PlanScheduler::select_starts(Time now, std::vector<Job>& out) {
  const Time earliest = due_.earliest(reservations_);
  if (earliest != sim::kNoTime && earliest < now)
    throw std::logic_error("PlanScheduler: planned start in the past at t=" +
                           std::to_string(now));
  if (earliest != now) return;
  due_scratch_.clear();
  due_.take_due(now, reservations_, due_scratch_);
  if (due_scratch_.size() > 1) {
    // Simultaneous starts commit in priority order: their relative
    // order fixes the order of the finish events they generate.
    ensure_sorted(now);
    order_scratch_.clear();
    for (const Job& job : queue_)
      if (std::find(due_scratch_.begin(), due_scratch_.end(), job.id) !=
          due_scratch_.end())
        order_scratch_.push_back(job.id);
    due_scratch_.swap(order_scratch_);
  }
  for (JobId id : due_scratch_) {
    reservations_.erase(id);
    // The job's rectangle stays reserved in the profile; it is now backed
    // by the running job until the next replan rebuilds the timeline.
    out.push_back(commit_start(id, now));
  }
}

std::vector<AuditReservation> PlanScheduler::audit_reservations() const {
  std::vector<AuditReservation> out;
  out.reserve(queue_.size());
  for (const Job& job : queue_)
    out.push_back({job.id, reservations_.at(job.id), job.estimate, job.procs,
                   job.bb});
  return out;
}

std::string PlanScheduler::name() const {
  return "plan-" + to_string(config_.priority);
}

}  // namespace bfsim::core
