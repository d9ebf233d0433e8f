#include "core/slack_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/format.hpp"

namespace bfsim::core {

SlackScheduler::SlackScheduler(SchedulerConfig config, double slack_factor)
    : SchedulerBase(config),
      slack_factor_(slack_factor),
      profile_(config.procs, config.burst_buffer) {
  if (!(slack_factor >= 0.0))
    throw std::invalid_argument("SlackScheduler: slack_factor must be >= 0");
}

// Like conservative, slack starts jobs only when a reservation comes
// due, so every hook answers "is the earliest guarantee == now" from
// the due-heap (a displacing arrival reserves `now` for itself, which
// the same check reports).

bool SlackScheduler::job_submitted(const Job& job, Time now) {
  // The conservative guarantee anchors the deadline; the slack budget is
  // proportional to the job's own estimated length. With nothing queued
  // the profile holds only running rectangles (free non-decreasing past
  // `now`), so a job that fits the free processors anchors at `now`
  // without a search -- same O(1) fast path as conservative.
  const Time anchor =
      queue_.empty() && fits_now(job)
          ? now
          : profile_.earliest_anchor(job.procs, job.bb, job.estimate, now);
  const auto slack = static_cast<Time>(
      std::llround(slack_factor_ * static_cast<double>(job.estimate)));
  deadlines_.set(job.id, sim::saturating_add(anchor, slack));

  if (anchor > now && try_displace(job, now))
    return due_.earliest(reservations_) == now;

  profile_.reserve(anchor, sim::saturating_add(anchor, job.estimate),
                   job.procs, job.bb);
  reservations_.set(job.id, anchor);
  due_.push(anchor, job.id);
  insert_queued(job, now);
  return anchor == now;
}

bool SlackScheduler::try_displace(const Job& job, Time now) {
  // Trial plan: the newcomer takes [now, now + estimate); everyone else
  // re-anchors around it in earliest-deadline-first order. EDF places
  // the tightest guarantees first, which maximizes the chance that all
  // of them survive.
  //
  // The trial's capacity at `now` is exactly free_/free_bb_: completions
  // and repairs at an instant are delivered before its submits, and runs
  // die at their estimate, so every running job has est_end > now and
  // every active outage repair_at > now. A job that does not fit the
  // free capacity cannot fit the trial either -- refuse it before
  // building one.
  if (!fits_now(job)) return false;
  MultiProfile trial = profile_from_running_and_outages(now);
  const Time newcomer_end = sim::saturating_add(now, job.estimate);
  if (!trial.fits(job.procs, job.bb, now, newcomer_end)) return false;
  trial.reserve(now, newcomer_end, job.procs, job.bb);

  std::vector<const Job*> order;
  order.reserve(queue_.size());
  for (const Job& queued : queue_) order.push_back(&queued);
  std::sort(order.begin(), order.end(), [this](const Job* a, const Job* b) {
    const Time da = deadlines_.at(a->id);
    const Time db = deadlines_.at(b->id);
    if (da != db) return da < db;
    return a->id < b->id;
  });

  TimeByJob new_starts;
  for (const Job* queued : order) {
    // Fused search + reserve; the trial is discarded wholesale on
    // failure, so reserving before the deadline check is harmless.
    const Time anchor =
        trial.find_and_reserve(queued->procs, queued->bb, queued->estimate,
                               now);
    if (anchor > deadlines_.at(queued->id)) return false;  // slack exhausted
    new_starts.set(queued->id, anchor);
  }

  // Feasible: commit the trial plan.
  profile_ = std::move(trial);
  reservations_ = std::move(new_starts);
  reservations_.set(job.id, now);
  due_.rebuild(reservations_);
  insert_queued(job, now);
  ++displacements_;
  return true;
}

bool SlackScheduler::job_finished(JobId id, Time now) {
  // Consumed history: see ConservativeScheduler::job_finished.
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id);
  // On-time completions free nothing; compression would be a no-op. A
  // reservation anchored exactly at this job's est_end can still be due.
  if (now < rj.est_end) {
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    compress(now, now, rj.est_end);
  }
  return due_.earliest(reservations_) == now;
}

bool SlackScheduler::job_cancelled(JobId id, Time now) {
  const Job job = take_queued(id);
  const Time start = reservations_.at(id);
  const Time end = sim::saturating_add(start, job.estimate);
  profile_.release(start, end, job.procs, job.bb);
  reservations_.erase(id);
  due_.erase(id);
  deadlines_.erase(id);
  compress(now, start, end);
  return due_.earliest(reservations_) == now;
}

bool SlackScheduler::job_killed(JobId id, Time now) {
  // Early-completion bookkeeping without compression: the imminent
  // node_down rebuilds the whole packing (see conservative).
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id);
  if (now < rj.est_end)
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
  return false;  // node_down decides whether a pass is needed
}

bool SlackScheduler::node_down(const sim::Outage& outage, Time now) {
  profile_.discard_before(now);
  for (const Job& job : queue_) {
    const Time start = reservations_.at(job.id);
    profile_.release(start, sim::saturating_add(start, job.estimate),
                     job.procs, job.bb);
  }
  SchedulerBase::node_down(outage, now);
  profile_.reserve(now, outage.repair_at, outage.procs, outage.bb);
  ensure_sorted(now);
  for (const Job& job : queue_) {
    const Time anchor =
        profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
    reservations_.set(job.id, anchor);
    due_.push(anchor, job.id);
    // Re-base the deadline from the post-outage anchor: the pre-outage
    // promise may be physically impossible on the degraded machine, so
    // the outage resets each job's slack budget (force majeure -- the
    // contract DESIGN.md section 15 documents). anchor <= deadline
    // still holds by construction.
    const auto slack = static_cast<Time>(
        std::llround(slack_factor_ * static_cast<double>(job.estimate)));
    deadlines_.set(job.id, sim::saturating_add(anchor, slack));
  }
  return due_.earliest(reservations_) == now;
}

bool SlackScheduler::node_up(const sim::Outage& outage, Time now) {
  // The outage rectangle expires at repair_at == now on its own; a
  // reservation anchored exactly at the repair instant is due now.
  SchedulerBase::node_up(outage, now);
  return due_.earliest(reservations_) == now;
}

Time SlackScheduler::next_wakeup() { return due_.earliest(reservations_); }

void SlackScheduler::compress(Time now, Time begin, Time end) {
  ensure_sorted(now);
  compress_queue(queue_, profile_, reservations_, due_, now, begin, end,
                 compression_);
}

void SlackScheduler::select_starts(Time now, std::vector<Job>& out) {
  const Time earliest = due_.earliest(reservations_);
  if (earliest != sim::kNoTime && earliest < now)
    throw std::logic_error("SlackScheduler: reservation in the past");
  if (earliest != now) return;
  due_scratch_.clear();
  due_.take_due(now, reservations_, due_scratch_);
  order_by_priority(now, due_scratch_);
  for (JobId id : due_scratch_) {
    reservations_.erase(id);
    deadlines_.erase(id);
    out.push_back(commit_start(id, now));
  }
}

std::vector<AuditReservation> SlackScheduler::audit_reservations() const {
  std::vector<AuditReservation> out;
  out.reserve(queue_.size());
  for (const Job& job : queue_)
    out.push_back({job.id, reservations_.at(job.id), job.estimate, job.procs,
                   job.bb});
  return out;
}

std::string SlackScheduler::name() const {
  return "slack" + util::format_fixed(slack_factor_, 1) + "-" +
         to_string(config_.priority);
}

}  // namespace bfsim::core
