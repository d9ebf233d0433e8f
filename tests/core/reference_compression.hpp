// bfsim tests -- conservative and slack backfilling with the compression
// loop that re-anchors every queued job, kept as the oracle for
// core::compress_queue.
//
// Compression used to release and re-anchor each visited job and keep
// the new anchor. This scheduler does exactly that for every queued job
// in every round, until a round moves nobody: no skip rule, no move
// test. Slack mode adds the displacement trial in its plain form -- the
// trial profile is always built, with no early exit. Due starts are
// found by scanning the queue. Its hooks always request a pass. Schedules
// must match core::ConservativeScheduler and core::SlackScheduler byte for
// byte, and `moves()` / `rounds()` must match their compression counters.
// Do not optimise this file -- its value is that it stays the obvious
// formulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/scheduler.hpp"

namespace bfsim::test {

class ReferenceCompression final : public core::SchedulerBase {
 public:
  /// Conservative backfilling without `slack_factor`, slack-based
  /// backfilling with it.
  explicit ReferenceCompression(
      core::SchedulerConfig config,
      std::optional<double> slack_factor = std::nullopt)
      : SchedulerBase(config),
        slack_factor_(slack_factor),
        profile_(config.procs, config.burst_buffer) {}

  bool job_submitted(const core::Job& job, core::Time now) override {
    const core::Time anchor =
        profile_.earliest_anchor(job.procs, job.bb, job.estimate, now);
    if (slack_factor_) {
      deadlines_.set(job.id, sim::saturating_add(anchor, slack_of(job)));
      if (anchor > now && try_displace(job, now)) return true;
    }
    profile_.reserve(anchor, sim::saturating_add(anchor, job.estimate),
                     job.procs, job.bb);
    reservations_.set(job.id, anchor);
    insert_queued(job, now);
    return true;
  }

  bool job_finished(core::JobId id, core::Time now) override {
    const core::RunningJob rj = commit_finish(id);
    if (now < rj.est_end) {
      profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
      compress(now);
    }
    return true;
  }

  bool job_cancelled(core::JobId id, core::Time now) override {
    const core::Job job = take_queued(id);
    const core::Time start = reservations_.at(id);
    profile_.release(start, sim::saturating_add(start, job.estimate),
                     job.procs, job.bb);
    reservations_.erase(id);
    deadlines_.erase(id);
    compress(now);
    return true;
  }

  bool job_killed(core::JobId id, core::Time now) override {
    const core::RunningJob rj = commit_finish(id);
    if (now < rj.est_end)
      profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    return true;
  }

  bool node_down(const sim::Outage& outage, core::Time now) override {
    for (const core::Job& job : queue_) {
      const core::Time start = reservations_.at(job.id);
      profile_.release(start, sim::saturating_add(start, job.estimate),
                       job.procs, job.bb);
    }
    (void)SchedulerBase::node_down(outage, now);
    profile_.reserve(now, outage.repair_at, outage.procs, outage.bb);
    ensure_sorted(now);
    for (const core::Job& job : queue_) {
      const core::Time anchor =
          profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
      reservations_.set(job.id, anchor);
      if (slack_factor_)
        deadlines_.set(job.id, sim::saturating_add(anchor, slack_of(job)));
    }
    return true;
  }

  bool node_up(const sim::Outage& outage, core::Time now) override {
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
        throw std::logic_error("reference: reservation in the past");
      if (start == now) due.push_back(job.id);
    }
    for (const core::JobId id : due) {
      reservations_.erase(id);
      deadlines_.erase(id);
      out.push_back(commit_start(id, now));
    }
  }

  [[nodiscard]] std::string name() const override {
    return slack_factor_ ? "reference-slack" : "reference-conservative";
  }

  [[nodiscard]] std::vector<core::AuditReservation> audit_reservations()
      const override {
    std::vector<core::AuditReservation> out;
    for (const core::Job& job : queue_)
      out.push_back({job.id, reservations_.at(job.id), job.estimate,
                     job.procs, job.bb});
    return out;
  }

  /// Reservations that compression moved earlier.
  [[nodiscard]] std::uint64_t moves() const { return moves_; }
  /// Compression rounds: passes over the queue, the last one moving
  /// nobody.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Jobs compression released and re-anchored, moved or not.
  [[nodiscard]] std::uint64_t reanchors() const { return reanchors_; }
  [[nodiscard]] std::uint64_t displacements() const { return displacements_; }

 private:
  std::optional<double> slack_factor_;
  core::MultiProfile profile_;
  core::TimeByJob reservations_;
  core::TimeByJob deadlines_;
  std::uint64_t moves_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t reanchors_ = 0;
  std::uint64_t displacements_ = 0;

  [[nodiscard]] core::Time slack_of(const core::Job& job) const {
    return static_cast<core::Time>(
        std::llround(*slack_factor_ * static_cast<double>(job.estimate)));
  }

  void compress(core::Time now) {
    if (queue_.empty()) return;
    ensure_sorted(now);
    for (bool moved = true; moved;) {
      ++rounds_;
      moved = false;
      for (const core::Job& job : queue_) {
        const core::Time start = reservations_.at(job.id);
        profile_.release(start, sim::saturating_add(start, job.estimate),
                         job.procs, job.bb);
        const core::Time anchor =
            profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
        ++reanchors_;
        if (anchor > start)
          throw std::logic_error("reference: compression delayed job " +
                                 std::to_string(job.id));
        if (anchor < start) {
          reservations_.set(job.id, anchor);
          ++moves_;
          moved = true;
        }
      }
    }
  }

  bool try_displace(const core::Job& job, core::Time now) {
    core::MultiProfile trial = profile_from_running_and_outages(now);
    const core::Time end = sim::saturating_add(now, job.estimate);
    if (!trial.fits(job.procs, job.bb, now, end)) return false;
    trial.reserve(now, end, job.procs, job.bb);
    std::vector<const core::Job*> order;
    for (const core::Job& queued : queue_) order.push_back(&queued);
    std::sort(order.begin(), order.end(),
              [this](const core::Job* a, const core::Job* b) {
                const core::Time da = deadlines_.at(a->id);
                const core::Time db = deadlines_.at(b->id);
                if (da != db) return da < db;
                return a->id < b->id;
              });
    core::TimeByJob starts;
    for (const core::Job* queued : order) {
      const core::Time anchor = trial.find_and_reserve(
          queued->procs, queued->bb, queued->estimate, now);
      if (anchor > deadlines_.at(queued->id)) return false;
      starts.set(queued->id, anchor);
    }
    profile_ = std::move(trial);
    reservations_ = std::move(starts);
    reservations_.set(job.id, now);
    insert_queued(job, now);
    ++displacements_;
    return true;
  }
};

}  // namespace bfsim::test
