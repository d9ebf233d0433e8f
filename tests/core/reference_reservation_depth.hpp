// bfsim tests -- the rebuild-per-pass reservation-depth loop, kept as
// the oracle for core::BackfillScheduler.
//
// This is the pass that K-reservation and selective backfilling ran in
// production before they were folded into one kernel: rebuild the
// availability profile of running jobs plus outages at every pass, walk
// the queue in pass order (promoted jobs first under selective), start
// every job whose window fits now, and anchor a reservation for each
// blocked candidate while fewer than `depth` exist. Its hooks always
// request a pass, so it doubles as the never-skip baseline: a kernel
// that skips a pass it needed diverges from it. Do not optimise this
// file -- its value is that it stays the obvious formulation.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "core/multi_profile.hpp"
#include "core/priority.hpp"
#include "core/scheduler.hpp"

namespace bfsim::test {

class ReferenceReservationDepth final : public core::SchedulerBase {
 public:
  /// Same policy arguments as core::BackfillScheduler: Easy is depth 1,
  /// KReservation depth extras.reservation_depth, Selective unbounded
  /// depth over promoted candidates.
  ReferenceReservationDepth(core::SchedulerConfig config,
                            core::SchedulerKind kind,
                            const core::SchedulerExtras& extras = {})
      : SchedulerBase(config),
        promotes_(kind == core::SchedulerKind::Selective),
        adaptive_(promotes_ && extras.selective_adaptive),
        threshold_(extras.xfactor_threshold) {
    if (kind == core::SchedulerKind::KReservation)
      depth_ = extras.reservation_depth;
    else if (promotes_)
      depth_ = static_cast<int>(1 << 30);
    else if (kind != core::SchedulerKind::Easy)
      throw std::invalid_argument("reference: not a reservation-depth kind");
  }

  bool job_submitted(const core::Job& job, core::Time now) override {
    insert_queued(job, now);
    promote_due(now);
    return true;
  }

  bool job_finished(core::JobId id, core::Time now) override {
    const core::RunningJob rj = commit_finish(id);
    const auto bound = static_cast<double>(std::max<core::Time>(
        sim::checked::elapsed(now, rj.start), kSlowdownBound));
    const auto wait =
        static_cast<double>(sim::checked::elapsed(rj.start, rj.job.submit));
    completed_slowdown_sum_ += (wait + bound) / bound;
    ++completed_jobs_;
    promote_due(now);
    return true;
  }

  bool job_killed(core::JobId id, core::Time now) override {
    (void)commit_finish(id);  // not a completion: no slowdown sample
    promote_due(now);
    return true;
  }

  bool job_cancelled(core::JobId id, core::Time now) override {
    (void)take_queued(id);
    promoted_.erase(id);
    promote_due(now);
    return true;
  }

  bool node_down(const sim::Outage& outage, core::Time now) override {
    (void)SchedulerBase::node_down(outage, now);
    return true;
  }

  bool node_up(const sim::Outage& outage, core::Time now) override {
    (void)SchedulerBase::node_up(outage, now);
    return true;
  }

  using Scheduler::select_starts;
  void select_starts(core::Time now, std::vector<core::Job>& out) override {
    promote_due(now);
    ensure_sorted(now);
    core::MultiProfile profile = profile_from_running_and_outages(now);
    int reserved = 0;
    std::vector<core::JobId> to_start;
    const auto visit = [&](const core::Job& job, bool candidate) {
      if (candidate && reserved < depth_) {
        const core::Time anchor =
            profile.find_and_reserve(job.procs, job.bb, job.estimate, now);
        if (anchor == now)
          to_start.push_back(job.id);
        else
          ++reserved;
      } else if (const core::Time end = sim::saturating_add(now, job.estimate);
                 profile.fits(job.procs, job.bb, now, end)) {
        profile.reserve(now, end, job.procs, job.bb);
        to_start.push_back(job.id);
      }
    };
    if (promotes_) {
      for (const core::Job& job : queue_)
        if (promoted_.contains(job.id)) visit(job, true);
      for (const core::Job& job : queue_)
        if (!promoted_.contains(job.id)) visit(job, false);
    } else {
      for (const core::Job& job : queue_) visit(job, true);
    }
    for (const core::JobId id : to_start) {
      promoted_.erase(id);
      out.push_back(commit_start(id, now));
    }
  }

  [[nodiscard]] std::string name() const override {
    return "reference-depth" + std::to_string(depth_);
  }

 private:
  static constexpr core::Time kSlowdownBound = 10;

  int depth_ = 1;
  bool promotes_;
  bool adaptive_;
  double threshold_;
  std::unordered_set<core::JobId> promoted_;
  double completed_slowdown_sum_ = 0.0;
  std::size_t completed_jobs_ = 0;

  void promote_due(core::Time now) {
    if (!promotes_) return;
    double bar = threshold_;
    if (adaptive_ && completed_jobs_ > 0)
      bar = std::max(bar, completed_slowdown_sum_ /
                              static_cast<double>(completed_jobs_));
    for (const core::Job& job : queue_)
      if (core::xfactor(job, now) >= bar) promoted_.insert(job.id);
  }
};

}  // namespace bfsim::test
