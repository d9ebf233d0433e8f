// bfsim -- plan-based scheduling (extension).
//
// The Kopanski & Rzadca baseline (arXiv:2109.00082 / 2111.10200):
// instead of patching an existing reservation set around each event the
// way conservative backfilling does, the scheduler re-optimizes the
// *whole plan* at every arrival, completion, and cancellation -- the
// availability profile is rebuilt from the running set and every queued
// job is re-anchored from scratch in priority order (list scheduling on
// the plan). Under multi-resource contention this is the decisive
// difference: a conservative guarantee, once given, pins a rectangle on
// both axes forever even when a later event reshuffles the optimal
// packing, while the plan scheduler's guarantees float to the current
// best packing. The price is work per event proportional to the queue,
// and that guarantees may move *later* as well as earlier (no
// starvation-freedom by monotonicity -- the plan itself, recomputed in
// priority order, is what bounds waiting).
//
// Under a static priority order a submit or cancel changes the plan's
// inputs only from one queue position on, so those two hooks re-place
// just that suffix; the prefix is what a full replan would compute
// again (see replace_suffix). A finish at its estimate frees nothing
// from `now` on and re-places nothing. Early finishes, outages and the
// clock-driven XFactor order keep the full replan.
#pragma once

#include <cstdint>

#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/reservation_heap.hpp"
#include "core/scheduler.hpp"

namespace bfsim::core {

class PlanScheduler final : public SchedulerBase {
 public:
  explicit PlanScheduler(SchedulerConfig config);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool job_killed(JobId id, Time now) override;
  bool node_down(const sim::Outage& outage, Time now) override;
  bool node_up(const sim::Outage& outage, Time now) override;
  [[nodiscard]] Time next_wakeup() override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;

  /// Planned start time of a queued job (for tests / reporting).
  /// Throws std::out_of_range if the job is not queued.
  [[nodiscard]] Time reservation_of(JobId id) const {
    return reservations_.at(id);
  }

  /// The availability profile (running jobs + the current plan).
  [[nodiscard]] const MultiProfile& profile() const { return profile_; }

  /// Full replans executed: profile rebuilt, whole queue re-placed.
  [[nodiscard]] std::uint64_t full_replans() const { return full_replans_; }
  /// Suffix re-placements executed by submits and cancels.
  [[nodiscard]] std::uint64_t suffix_replans() const {
    return suffix_replans_;
  }

  // Auditor introspection: every queued job holds a planned start and
  // the profile is persistent between events, but a replan may legally
  // move a planned start later, so the monotone guarantee is off.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override;

 private:
  MultiProfile profile_;
  TimeByJob reservations_;  ///< queued job -> planned start
  /// Pass-time working buffer, reused so select_starts never allocates
  /// in steady state.
  std::vector<JobId> due_scratch_;
  /// Earliest planned start, so the due check and next_wakeup() never
  /// scan the queue.
  ReservationHeap due_;
  std::uint64_t full_replans_ = 0;
  std::uint64_t suffix_replans_ = 0;

  /// Rebuild the whole plan at `now`: profile from the running set,
  /// then every queued job re-anchored in priority order. reservations_
  /// holds exactly the queued jobs, so overwriting each entry refreshes
  /// the table without a clear.
  void replan(Time now);

  /// Re-place queue_[first..] at `now` under a static priority order:
  /// release the planned rectangles of that suffix (a job without one,
  /// the newcomer, has nothing to release), then anchor each of its jobs
  /// again in priority order. The profile must already hold the plan a
  /// full replan at `now` would compute for every other queued job.
  void replace_suffix(std::size_t first, Time now);
};

}  // namespace bfsim::core
