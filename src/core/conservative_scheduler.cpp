#include "core/conservative_scheduler.hpp"

#include <stdexcept>
#include <string>

namespace bfsim::core {

ConservativeScheduler::ConservativeScheduler(SchedulerConfig config)
    : SchedulerBase(config), profile_(config.procs, config.burst_buffer) {}

// Conservative starts jobs only when their reservation comes due, so
// "does a pass matter at `now`" is exactly "is the earliest guarantee
// == now" -- every hook keeps the due-heap current and answers from it.

bool ConservativeScheduler::job_submitted(const Job& job, Time now) {
  Time anchor;
  if (queue_.empty() && fits_now(job)) {
    // O(1) fast path for the idle/low-load regime. With nothing queued
    // the profile holds only running-job rectangles, all of which begin
    // at-or-before `now`: free capacity is non-decreasing on every axis
    // for t >= now, so fitting into the free processors and buffer now
    // means the whole window [now, now + estimate) fits and the
    // earliest anchor is `now` itself -- no search needed,
    // byte-identical to the slow path.
    anchor = now;
    profile_.reserve(now, sim::saturating_add(now, job.estimate), job.procs,
                     job.bb);
  } else {
    anchor = profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
  }
  reservations_.set(job.id, anchor);
  due_.push(anchor, job.id);
  insert_queued(job, now);
  return anchor == now;
}

bool ConservativeScheduler::job_finished(JobId id, Time now) {
  // The clock moved past everything before `now`; drop the consumed
  // history so profile scans stay proportional to the live schedule
  // (queue + running), not to the whole replay so far. Every later
  // profile operation anchors at-or-after `now`, and the auditor only
  // checks the profile from `now` on.
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id);
  // Return the unused tail of the job's estimated rectangle. On-time
  // completions (now == est_end) free nothing; compression keeps every
  // reservation at its earliest anchor (a fixpoint, see compress), so
  // with no new capacity it is provably a no-op and is skipped outright
  // instead of re-anchoring the whole queue for nothing. A reservation
  // anchored exactly at this job's est_end can still be due now.
  if (now < rj.est_end) {
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    compress(now, now, rj.est_end);
  }
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::job_cancelled(JobId id, Time now) {
  const Job job = take_queued(id);
  const Time start = reservations_.at(id);
  const Time end = sim::saturating_add(start, job.estimate);
  profile_.release(start, end, job.procs, job.bb);
  reservations_.erase(id);
  due_.erase(id);
  // The vacated rectangle is a fresh hole: compress around it. Capacity
  // only appeared from `start` onwards, so reservations before it are
  // immovable.
  compress(now, start, end);
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::job_killed(JobId id, Time now) {
  // Like an early completion, but without compression: job_killed is
  // only ever followed by the outage's node_down, which rebuilds every
  // guarantee from scratch anyway -- compressing around the victim's
  // tail here would be wasted work on a packing about to be discarded.
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id);
  if (now < rj.est_end)
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
  return false;  // node_down decides whether a pass is needed
}

bool ConservativeScheduler::node_down(const sim::Outage& outage, Time now) {
  profile_.discard_before(now);
  // The outage invalidates the whole packing: release every queued
  // reservation, fold the downtime in as a system rectangle, and
  // re-anchor the queue in priority order. Guarantees may legally move
  // *later* here -- the auditor resets its monotone baselines on
  // node_down for exactly this reason.
  for (const Job& job : queue_) {
    const Time start = reservations_.at(job.id);
    profile_.release(start, sim::saturating_add(start, job.estimate),
                     job.procs, job.bb);
  }
  SchedulerBase::node_down(outage, now);
  // Succeeds by construction: only running rectangles and previous
  // outage rectangles remain, and the decision core killed victims
  // until the outage's demand was free on both axes.
  profile_.reserve(now, outage.repair_at, outage.procs, outage.bb);
  ensure_sorted(now);
  for (const Job& job : queue_) {
    const Time anchor =
        profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
    reservations_.set(job.id, anchor);
    due_.push(anchor, job.id);
  }
  // Repacking in priority order can legally pull a late job up to `now`
  // (its old anchor was constrained by reservations that just moved).
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::node_up(const sim::Outage& outage, Time now) {
  // The outage's rectangle ends at repair_at == now, so the profile
  // needs no repair; every reservation was anchored with the repair
  // time already known. A guarantee anchored exactly at the repair
  // instant is due now.
  SchedulerBase::node_up(outage, now);
  return due_.earliest(reservations_) == now;
}

Time ConservativeScheduler::next_wakeup() {
  return due_.earliest(reservations_);
}

void ConservativeScheduler::compress(Time now, Time begin, Time end) {
  ensure_sorted(now);
  compress_queue(queue_, profile_, reservations_, due_, now, begin, end,
                 compression_);
}

void ConservativeScheduler::select_starts(Time now, std::vector<Job>& out) {
  const Time earliest = due_.earliest(reservations_);
  if (earliest != sim::kNoTime && earliest < now)
    throw std::logic_error(
        "ConservativeScheduler: reservation in the past at t=" +
        std::to_string(now));
  if (earliest != now) return;
  due_scratch_.clear();
  due_.take_due(now, reservations_, due_scratch_);
  order_by_priority(now, due_scratch_);
  for (JobId id : due_scratch_) {
    reservations_.erase(id);
    // The job's rectangle stays reserved in the profile; it is now backed
    // by the running job until job_finished releases the unused tail.
    out.push_back(commit_start(id, now));
  }
}

std::vector<AuditReservation> ConservativeScheduler::audit_reservations()
    const {
  std::vector<AuditReservation> out;
  out.reserve(queue_.size());
  for (const Job& job : queue_)
    out.push_back({job.id, reservations_.at(job.id), job.estimate, job.procs,
                   job.bb});
  return out;
}

std::string ConservativeScheduler::name() const {
  return "conservative-" + to_string(config_.priority);
}

}  // namespace bfsim::core
