// bfsim -- slack-based backfilling (extension).
//
// A tractable variant of Talby & Feitelson's slack-based backfilling
// (IPPS 1999, the paper's citation [13]), which generalizes both of the
// paper's schemes: every queued job holds a reservation *and* a slack
// budget. A new arrival may start immediately even when that displaces
// existing reservations, provided every displaced job still starts by
//
//     deadline = conservative guarantee at arrival + slack_factor x estimate.
//
// slack_factor = 0 tolerates no start past a job's arrival guarantee.
// That equals conservative backfilling only while no job finishes before
// its estimate: once compression has moved a reservation ahead of its
// guarantee, a zero-slack arrival may push it back to that guarantee,
// which conservative never does. A large slack_factor approaches
// aggressive backfilling (anybody may be pushed) while still bounding
// starvation -- the knob trades the paper's mean-slowdown /
// worst-case-turnaround axes.
//
// Guarantee discipline (provable, asserted in tests):
//  * on arrival, a job's deadline is fixed from its conservative anchor;
//  * displacement trials re-anchor the queue in earliest-deadline-first
//    order and commit only if every job keeps start <= deadline;
//  * completions trigger conservative compression, which only moves
//    reservations earlier. Hence no job ever starts after its deadline.
#pragma once

#include "core/compression.hpp"
#include "core/multi_profile.hpp"
#include "core/reservation_heap.hpp"
#include "core/scheduler.hpp"

namespace bfsim::core {

class SlackScheduler final : public SchedulerBase {
 public:
  /// `slack_factor` >= 0: each job tolerates being pushed back by at
  /// most slack_factor x its own estimate past its arrival guarantee.
  SlackScheduler(SchedulerConfig config, double slack_factor);

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

  [[nodiscard]] double slack_factor() const { return slack_factor_; }

  /// Current guaranteed start of a queued job (<= its deadline).
  [[nodiscard]] Time reservation_of(JobId id) const {
    return reservations_.at(id);
  }
  /// Latest start this job can ever be pushed to.
  [[nodiscard]] Time deadline_of(JobId id) const {
    return deadlines_.at(id);
  }
  /// Number of arrivals that displaced existing reservations.
  [[nodiscard]] std::uint64_t displacements() const {
    return displacements_;
  }
  /// Work counters of every compression so far.
  [[nodiscard]] const CompressionStats& compression() const {
    return compression_;
  }

  // Auditor introspection: every queued job holds a reservation and the
  // profile is persistent, but displacement may legally move a
  // reservation *later* (bounded by its deadline), so guarantees are
  // not monotone here.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override;

 private:
  double slack_factor_;
  MultiProfile profile_;
  TimeByJob reservations_;
  TimeByJob deadlines_;
  /// Pass-time working buffer, reused so select_starts never allocates
  /// in steady state.
  std::vector<JobId> due_scratch_;
  /// Earliest guaranteed start, one entry per job (rebuilt wholesale when a
  /// displacement reassigns every reservation).
  ReservationHeap due_;
  std::uint64_t displacements_ = 0;
  CompressionStats compression_;

  /// Conservative compression after capacity was freed over [begin,
  /// end): starts only move earlier, so deadlines keep holding
  /// (core/compression.hpp).
  void compress(Time now, Time begin, Time end);

  /// Try to start `job` at `now` by re-anchoring every queued job in
  /// EDF order behind it. Commits and returns true when every deadline
  /// survives; leaves state untouched otherwise.
  bool try_displace(const Job& job, Time now);
};

}  // namespace bfsim::core
