#include "core/backfill_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/format.hpp"

namespace bfsim::core {

BackfillScheduler::BackfillScheduler(SchedulerConfig config, SchedulerKind kind,
                                     const SchedulerExtras& extras)
    : SchedulerBase(config),
      kind_(kind),
      promotes_(kind == SchedulerKind::Selective),
      adaptive_(promotes_ && extras.selective_adaptive),
      threshold_(extras.xfactor_threshold) {
  if (kind == SchedulerKind::KReservation) {
    if (extras.reservation_depth < 0)
      throw std::invalid_argument(
          "BackfillScheduler: reservation depth must be >= 0");
    depth_ = extras.reservation_depth;
  } else if (promotes_) {
    if (!(threshold_ >= 1.0))
      throw std::invalid_argument(
          "BackfillScheduler: selective threshold must be >= 1.0");
    depth_ = kUnboundedDepth;
  } else if (kind != SchedulerKind::Easy) {
    throw std::invalid_argument("BackfillScheduler: '" + to_string(kind) +
                                "' is not a reservation-depth policy");
  }
}

// --- Event hooks ------------------------------------------------------

bool BackfillScheduler::job_submitted(const Job& job, Time now) {
  const std::size_t idx = insert_queued(job, now);
  // Under XFactor the pass order drifts with the clock, which can
  // surface a start with no other change.
  if (time_varying_priority()) {
    (void)promote_due(now);
    return any_fits_now();
  }
  const bool may_start = may_start_after_gain(idx);
  return promote_due(now) || may_start;
}

RunningJob BackfillScheduler::retire(JobId id) {
  const RunningJob rj = commit_finish(id);
  const auto it = std::lower_bound(running_by_end_.begin(),
                                   running_by_end_.end(),
                                   RunningByEnd{rj.est_end, id, 0, 0});
  if (it == running_by_end_.end() || it->id != id)
    throw std::logic_error("BackfillScheduler: job not in running order");
  running_by_end_.erase(it);
  return rj;
}

bool BackfillScheduler::job_finished(JobId id, Time now) {
  const RunningJob rj = retire(id);
  if (promotes_) {
    // The adaptive bar follows the bounded slowdown (tau = 10 s)
    // actually delivered to completed jobs.
    const auto bound = static_cast<double>(
        std::max<Time>(sim::checked::elapsed(now, rj.start), 10));
    const auto wait =
        static_cast<double>(sim::checked::elapsed(rj.start, rj.job.submit));
    completed_slowdown_sum_ += (wait + bound) / bound;
    ++completed_jobs_;
    (void)promote_due(now);
  }
  return !queue_.empty();
}

bool BackfillScheduler::job_killed(JobId id, Time now) {
  // An outage preemption is not a completion: the truncated run must
  // not feed the adaptive bar (the job comes back and finishes later).
  (void)retire(id);
  (void)promote_due(now);
  return !queue_.empty();
}

bool BackfillScheduler::job_cancelled(JobId id, Time now) {
  const std::size_t idx = queue_index(id);
  const bool was_holder =
      promotes_ ? promoted_.contains(id)
                : idx < static_cast<std::size_t>(depth_);
  (void)take_queued(id);
  promoted_.erase(id);
  std::erase_if(holders_,
                [id](const AuditReservation& r) { return r.id == id; });
  const bool promoted_start = promote_due(now);
  if (time_varying_priority()) return any_fits_now();
  // A skipped job constrained nobody. A holder's reservation -- and, at
  // bounded depth, its slot -- frees up for the jobs behind it.
  return (was_holder && fit_behind(idx)) || promoted_start;
}

bool BackfillScheduler::any_fits_now() const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [this](const Job& job) { return fits_now(job); });
}

bool BackfillScheduler::fit_behind(std::size_t from) const {
  for (std::size_t k = promotes_ ? 0 : from; k < queue_.size(); ++k)
    if ((k >= from || !promoted_.contains(queue_[k].id)) &&
        fits_now(queue_[k]))
      return true;
  return false;
}

bool BackfillScheduler::may_start_after_gain(std::size_t idx) const {
  const Job& job = queue_[idx];
  if (fits_now(job)) return true;
  // Without promotion every job ahead is a candidate; selective's depth
  // is unbounded, but only promoted jobs are candidates.
  if (!promotes_)
    return idx < static_cast<std::size_t>(depth_) && fit_behind(idx + 1);
  const auto promoted = [this](const Job& j) {
    return promoted_.contains(j.id);
  };
  return promoted(job) &&
         std::any_of(queue_.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                     queue_.end(), promoted) &&
         fit_behind(idx + 1);
}

double BackfillScheduler::effective_threshold() const {
  if (!adaptive_ || completed_jobs_ == 0) return threshold_;
  return std::max(threshold_, completed_slowdown_sum_ /
                                  static_cast<double>(completed_jobs_));
}

bool BackfillScheduler::promote_due(Time now) {
  if (!promotes_) return false;
  const double bar = effective_threshold();
  bool may_start = false;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    if (promoted_.contains(job.id) || xfactor(job, now) < bar) continue;
    promoted_.insert(job.id);
    // Analysed like an arrival into the promoted group. Under XFactor
    // the queue is out of pass order here, and the hooks answer anyway.
    if (!time_varying_priority() && !may_start)
      may_start = may_start_after_gain(i);
  }
  return may_start;
}

// --- The pass ---------------------------------------------------------

void BackfillScheduler::select_starts(Time now, std::vector<Job>& out) {
  // The clock can move without a promoting hook: an outage event, or a
  // cancel of a running job (which runs no hook but forces a pass).
  (void)promote_due(now);
  ensure_sorted(now);
  holders_.clear();
  profile_.reset();
  if (!promotes_) {
    walk(Group::kAll, now, out);
    return;
  }
  walk(Group::kPromoted, now, out);
  walk(Group::kUnpromoted, now, out);
}

void BackfillScheduler::walk(Group group, Time now, std::vector<Job>& out) {
  const auto in_group = [this, group](const Job& job) {
    return group == Group::kAll ||
           promoted_.contains(job.id) == (group == Group::kPromoted);
  };
  std::size_t i = 0;
  if (group != Group::kUnpromoted)  // every job it visits is a candidate
    while (i < queue_.size() &&
           holders_.size() < static_cast<std::size_t>(depth_))
      if (!in_group(queue_[i]) || !place(i, now, out)) ++i;
  // No more holders: the rest start only if they fit. In a deep queue
  // the pass spends its time here, so the free capacity -- necessary in
  // every view -- is tested first.
  while (i < queue_.size()) {
    const Job& job = queue_[i];
    if (fits_now(job) && in_group(job) && claim(job, now))
      start_job(i, now, out);
    else
      ++i;
  }
}

bool BackfillScheduler::place(std::size_t i, Time now, std::vector<Job>& out) {
  const Job& job = queue_[i];
  Time anchor = sim::kNoTime;
  if (profile_) {
    // The anchor search doubles as the fit test.
    anchor = profile_->find_and_reserve(job.procs, job.bb, job.estimate, now);
    if (anchor == now) {
      start_job(i, now, out);
      return true;
    }
  } else if (fits_now(job) && claim(job, now)) {
    start_job(i, now, out);
    return true;
  } else if (holders_.empty()) {
    anchor = shadow_of(job, now);
  } else {
    // The second holder: switch to the profile, with the first holder at
    // its shadow -- its earliest anchor, as that timeline only gains
    // capacity.
    profile_.emplace(profile_from_running_and_outages(now));
    const AuditReservation& first = holders_.front();
    profile_->reserve(first.start,
                      sim::saturating_add(first.start, first.estimate),
                      first.procs, first.bb);
    anchor = profile_->find_and_reserve(job.procs, job.bb, job.estimate, now);
  }
  holders_.push_back({job.id, anchor, job.estimate, job.procs, job.bb});
  return false;
}

bool BackfillScheduler::claim(const Job& job, Time now) {
  const Time end = sim::saturating_add(now, job.estimate);
  if (profile_) {
    if (!profile_->fits(job.procs, job.bb, now, end)) return false;
    profile_->reserve(now, end, job.procs, job.bb);
    return true;
  }
  // 0/1 holders: never delay the holder on either axis -- end by its
  // shadow time, or fit the capacity left over once it starts there.
  if (holders_.empty() || end <= holders_.front().start) return true;
  if (job.procs > extra_procs_ || job.bb > extra_bb_) return false;
  extra_procs_ -= job.procs;
  extra_bb_ -= job.bb;
  return true;
}

Time BackfillScheduler::shadow_of(const Job& holder, Time now) {
  // Walk releases in time order -- running jobs at their estimated ends,
  // outages at repair -- until the holder fits on both axes; free +
  // running + down is the whole machine, so the walk always ends.
  // Releases at one instant all count toward the extra capacity.
  int available = free_;
  int available_bb = free_bb_;
  std::size_t i = 0;  // running_by_end_ cursor
  std::size_t k = 0;  // outages_ cursor (sorted by repair_at)
  while (i < running_by_end_.size() || k < outages_.size()) {
    Time release = sim::kTimeMax;
    if (i < running_by_end_.size()) release = running_by_end_[i].est_end;
    if (k < outages_.size())
      release = std::min(release, outages_[k].repair_at);
    for (; i < running_by_end_.size() &&
           running_by_end_[i].est_end == release;
         ++i) {
      available += running_by_end_[i].procs;
      available_bb += running_by_end_[i].bb;
    }
    for (; k < outages_.size() && outages_[k].repair_at == release; ++k) {
      available += outages_[k].procs;
      available_bb += outages_[k].bb;
    }
    if (available >= holder.procs && available_bb >= holder.bb) {
      extra_procs_ = available - holder.procs;
      extra_bb_ = available_bb - holder.bb;
      return std::max(release, now);
    }
  }
  throw std::logic_error("BackfillScheduler: shadow walk failed");
}

void BackfillScheduler::start_job(std::size_t i, Time now,
                                  std::vector<Job>& out) {
  const Job job = commit_start(queue_[i].id, now);
  if (promotes_) promoted_.erase(job.id);
  // Saturated like commit_start's est_end, so both agree on far ends.
  const RunningByEnd entry{sim::saturating_add(now, job.estimate), job.id,
                           job.procs, job.bb};
  running_by_end_.insert(std::upper_bound(running_by_end_.begin(),
                                          running_by_end_.end(), entry),
                         entry);
  out.push_back(job);
}

std::string BackfillScheduler::name() const {
  std::string policy = "easy";
  if (kind_ == SchedulerKind::KReservation)
    policy = "kres" + std::to_string(depth_);
  else if (kind_ == SchedulerKind::Selective)
    policy = (adaptive_ ? "selective-adaptive" : "selective") +
             util::format_fixed(threshold_, 1);
  return policy + "-" + to_string(config_.priority);
}

}  // namespace bfsim::core
