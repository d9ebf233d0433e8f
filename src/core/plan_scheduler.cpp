#include "core/plan_scheduler.hpp"

#include <stdexcept>
#include <string>

namespace bfsim::core {

PlanScheduler::PlanScheduler(SchedulerConfig config)
    : SchedulerBase(config), profile_(config.procs, config.burst_buffer) {}

// Plan starts jobs only when a planned start comes due, so "does a pass
// matter at `now`" is exactly "is the earliest planned start == now" --
// every hook re-plans (in full, or from the changed queue position on)
// and answers from the due-heap.

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
  ++full_replans_;
}

void PlanScheduler::replace_suffix(std::size_t first, Time now) {
  // Why the prefix needs no work: the last full replan placed every job
  // at its earliest anchor given the running set and the jobs ahead of
  // it. Since then only starts (which keep their planned rectangle),
  // repairs (whose outage rectangle ends at `now`), on-time finishes
  // under a static order (whose rectangle ends at `now`) and earlier
  // suffix re-placements happened -- every other hook replans in full.
  // A job's plan therefore still fits, and nothing ahead of it gained
  // capacity, so a full replan at `now` would anchor it where it
  // already sits.
  profile_.discard_before(now);
  for (std::size_t i = first; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    const Time start = reservations_.get(job.id);
    if (start != sim::kNoTime)
      profile_.release(start, sim::saturating_add(start, job.estimate),
                       job.procs, job.bb);
  }
  for (std::size_t i = first; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    const Time anchor =
        profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
    reservations_.set(job.id, anchor);
    due_.push(anchor, job.id);
  }
  ++suffix_replans_;
}

bool PlanScheduler::job_submitted(const Job& job, Time now) {
  const bool was_idle_fit = queue_.empty() && fits_now(job);
  const std::size_t position = insert_queued(job, now);
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
  if (time_varying_priority())
    replan(now);
  else
    replace_suffix(position, now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_finished(JobId id, Time now) {
  const RunningJob rj = commit_finish(id);
  const bool early = now < rj.est_end;
  if (queue_.empty() || (!early && !time_varying_priority())) {
    // No replan: with nothing queued there is nothing to re-plan
    // around, and an on-time finish under a static order frees nothing
    // from `now` on, so the plan already is what a full replan would
    // compute (see replace_suffix). Return the unused tail of the job's
    // estimated rectangle and drop the consumed history so the profile
    // stays proportional to the live schedule between replans.
    if (early) profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    profile_.discard_before(now);
    return due_.earliest(reservations_) == now;
  }
  replan(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_cancelled(JobId id, Time now) {
  const std::size_t position = queue_index(id);
  const Job job = take_queued(id);
  const Time start = reservations_.at(id);
  reservations_.erase(id);
  due_.erase(id);
  if (time_varying_priority() && !queue_.empty()) {
    replan(now);
    return due_.earliest(reservations_) == now;
  }
  // Vacate the planned rectangle; the jobs behind it re-place around
  // the hole (none when it was the last queued job).
  profile_.release(start, sim::saturating_add(start, job.estimate), job.procs,
                   job.bb);
  if (position < queue_.size()) replace_suffix(position, now);
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
  order_by_priority(now, due_scratch_);
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
