// bfsim -- reservation-depth backfilling: EASY, K-reservation and
// selective as one kernel.
//
// A pass walks the queue in pass order. A job that fits *now*, without
// disturbing a guarantee placed earlier in the pass, starts; a blocked
// guarantee candidate becomes a *holder* -- it anchors a reservation
// later jobs must respect -- while fewer than `depth` holders exist;
// every other job is skipped. The three configurations:
//   easy       depth 1, every job a candidate: the blocked queue head
//              holds the only reservation (Lifka; Skovira et al.), so
//              Long-Narrow jobs backfill easily (the paper's Fig. 2)
//              while non-head wide jobs can starve (Tables 4/7).
//   kres       depth K, every job a candidate (Maui-style): K = 0 is
//              greedy backfilling, large K approaches conservative.
//   selective  unbounded depth over *promoted* jobs, which walk first
//              (the paper's Section 6; Srinivasan et al., JSSPP 2002):
//              a job is promoted for good once its expansion factor
//              (wait + estimate) / estimate reaches a fixed bar, or in
//              adaptive mode the running mean bounded slowdown of
//              completed jobs (floored at the fixed bar).
// Holders are recomputed from the current order at every pass.
//
// "Fits now" is checked against a view that gets richer only as holders
// appear, each an exact special case of rebuilding the whole profile
// (tests/core/reference_reservation_depth.hpp keeps that loop):
//   0 holders   free capacity: running jobs and outages only ever
//               release capacity after `now`;
//   1 holder    EASY's shadow test over the running set (kept sorted by
//               estimated end) and the outages: end by the holder's
//               shadow time, or fit the capacity left over there;
//   2+ holders  a MultiProfile, built once per pass with the first
//               holder reserved at its shadow.
#pragma once

#include <limits>
#include <optional>
#include <tuple>
#include <unordered_set>

#include "core/multi_profile.hpp"
#include "core/scheduler.hpp"

namespace bfsim::core {

class BackfillScheduler final : public SchedulerBase {
 public:
  static constexpr int kUnboundedDepth = std::numeric_limits<int>::max();

  /// `kind` is Easy, KReservation (depth extras.reservation_depth >= 0)
  /// or Selective (extras.xfactor_threshold >= 1, adaptive when
  /// extras.selective_adaptive); std::invalid_argument otherwise.
  BackfillScheduler(SchedulerConfig config, SchedulerKind kind,
                    const SchedulerExtras& extras = {});

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool job_killed(JobId id, Time now) override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] bool adaptive() const { return adaptive_; }
  [[nodiscard]] std::size_t promoted_count() const {
    return promoted_.size();
  }
  /// The promotion bar in force now (selective).
  [[nodiscard]] double effective_threshold() const;
  /// The first holder's reservation in the last pass -- EASY's shadow
  /// time -- or kNoTime when nothing was blocked.
  [[nodiscard]] Time last_shadow_time() const {
    return holders_.empty() ? sim::kNoTime : holders_.front().start;
  }

  // The auditor sees the last pass's holders. The head's pin may never
  // move later while it stays the head -- sound only for EASY's policy
  // under FCFS: a dynamic order or a promotion may let a newly eligible
  // job overtake the head and start, pushing its pin later.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.reservations = true,
            .head_guarantee = depth_ == 1 && !promotes_ &&
                              config_.priority == PriorityPolicy::Fcfs};
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override {
    return holders_;
  }

 private:
  SchedulerKind kind_;
  int depth_ = 1;
  bool promotes_;
  bool adaptive_;
  double threshold_;
  std::unordered_set<JobId> promoted_;  ///< queued promoted jobs
  double completed_slowdown_sum_ = 0.0;  ///< adaptive bar: running mean
  std::size_t completed_jobs_ = 0;

  /// Running jobs in (est_end, id) order, kept on start/finish.
  struct RunningByEnd {
    Time est_end;
    JobId id;
    int procs;
    int bb;
    friend bool operator<(const RunningByEnd& a, const RunningByEnd& b) {
      return std::tie(a.est_end, a.id) < std::tie(b.est_end, b.id);
    }
  };
  std::vector<RunningByEnd> running_by_end_;

  std::vector<AuditReservation> holders_;  ///< last pass, in order placed
  int extra_procs_ = 0;  ///< 1-holder view: capacity left at the shadow
  int extra_bb_ = 0;
  std::optional<MultiProfile> profile_;  ///< 2+-holder view

  enum class Group { kAll, kPromoted, kUnpromoted };
  /// One walk of the pass over `group`, in priority order.
  void walk(Group group, Time now, std::vector<Job>& out);
  /// queue_[i] is a candidate and a holder slot is free: start it (true;
  /// queue_[i] then names the next job) or make it a holder.
  bool place(std::size_t i, Time now, std::vector<Job>& out);
  /// For a job that fits the free capacity now: whether its window fits
  /// the view too; if so it is claimed from the view.
  bool claim(const Job& job, Time now);
  void start_job(std::size_t i, Time now, std::vector<Job>& out);
  RunningJob retire(JobId id);
  /// EASY's shadow: the earliest release at which `holder` fits on both
  /// axes; sets the extra capacity left once it starts there.
  Time shadow_of(const Job& holder, Time now);

  // Pass-necessity rules. A hook may return false only if a pass would
  // start nothing. A pass leaves the queue settled: every candidate
  // failed to fit, so the holders are the first `depth` candidates in
  // pass order. Under a static order that stays so until an event (the
  // releases anchors wait for are finishes and repairs). The rules
  // reason from this and from each job's actual queue position, never
  // from where arrivals usually sort: a requeued outage victim keeps
  // its original submit and lands mid-queue even under FCFS. Any start
  // needs a job that fits the free capacity now, in every view.

  [[nodiscard]] bool any_fits_now() const;
  /// Some job behind queue position `from` - 1 in pass order fits now:
  /// queue_[from..], and under promotion every unpromoted job too.
  [[nodiscard]] bool fit_behind(std::size_t from) const;
  /// queue_[idx] just joined a settled queue or was just promoted. It
  /// may start itself, or as a new holder displace a later holder
  /// (anchor it later or, at bounded depth, push it out of the set) and
  /// so let a job behind it start.
  [[nodiscard]] bool may_start_after_gain(std::size_t idx) const;
  /// Promote every queued job whose expansion factor has reached the
  /// bar; called at every event, since promotion follows the clock.
  /// True when a promotion may let a pass start a job.
  bool promote_due(Time now);
};

}  // namespace bfsim::core
