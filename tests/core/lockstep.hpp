// bfsim tests -- run a scheduler and its oracle in lockstep.
//
// A schedule differential only sees the part of a plan that comes due
// before the next full repair of that plan. Lockstep feeds one event
// stream to a production scheduler and to its oracle and, after every
// hook, compares the guarantees both hold (audit_reservations), their
// next wake-up and every pass's starts. The first mismatch is kept for
// the test to report. Decisions come from the production scheduler; a
// pass runs whenever either side asks for one.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace bfsim::test {

class Lockstep final : public core::Scheduler {
 public:
  Lockstep(core::Scheduler& primary, core::Scheduler& shadow)
      : primary_(primary), shadow_(shadow) {}

  /// Empty while both sides agreed at every check.
  [[nodiscard]] const std::string& mismatch() const { return mismatch_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

  bool job_submitted(const core::Job& job, core::Time now) override {
    const bool a = primary_.job_submitted(job, now);
    const bool b = shadow_.job_submitted(job, now);
    compare("submit", job.id, now);
    return a || b;
  }
  bool job_finished(core::JobId id, core::Time now) override {
    const bool a = primary_.job_finished(id, now);
    const bool b = shadow_.job_finished(id, now);
    compare("finish", id, now);
    return a || b;
  }
  bool job_cancelled(core::JobId id, core::Time now) override {
    const bool a = primary_.job_cancelled(id, now);
    const bool b = shadow_.job_cancelled(id, now);
    compare("cancel", id, now);
    return a || b;
  }
  bool job_killed(core::JobId id, core::Time now) override {
    const bool a = primary_.job_killed(id, now);
    const bool b = shadow_.job_killed(id, now);
    return a || b;  // guarantees are rebuilt by the node_down that follows
  }
  bool node_down(const sim::Outage& outage, core::Time now) override {
    const bool a = primary_.node_down(outage, now);
    const bool b = shadow_.node_down(outage, now);
    compare("node_down", outage.id, now);
    return a || b;
  }
  bool node_up(const sim::Outage& outage, core::Time now) override {
    const bool a = primary_.node_up(outage, now);
    const bool b = shadow_.node_up(outage, now);
    compare("node_up", outage.id, now);
    return a || b;
  }
  [[nodiscard]] core::Time next_wakeup() override {
    const core::Time a = primary_.next_wakeup();
    const core::Time b = shadow_.next_wakeup();
    if (a != b) note("next_wakeup " + std::to_string(a) + " vs " +
                     std::to_string(b));
    return a;
  }

  using Scheduler::select_starts;
  void select_starts(core::Time now, std::vector<core::Job>& out) override {
    const std::size_t first = out.size();
    primary_.select_starts(now, out);
    std::vector<core::Job> expected;
    shadow_.select_starts(now, expected);
    std::ostringstream got;
    std::ostringstream want;
    for (std::size_t i = first; i < out.size(); ++i) got << out[i].id << ' ';
    for (const core::Job& job : expected) want << job.id << ' ';
    if (got.str() != want.str())
      note("starts at t=" + std::to_string(now) + ": [" + got.str() +
           "] vs [" + want.str() + "]");
    compare("pass", 0, now);
  }

  [[nodiscard]] std::string name() const override { return primary_.name(); }
  [[nodiscard]] const core::SchedulerConfig& config() const override {
    return primary_.config();
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return primary_.queued_count();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return primary_.running_count();
  }
  [[nodiscard]] core::AuditHooks audit_hooks() const override {
    return primary_.audit_hooks();
  }
  [[nodiscard]] const core::MultiProfile* audit_profile() const override {
    return primary_.audit_profile();
  }
  [[nodiscard]] std::vector<core::AuditReservation> audit_reservations()
      const override {
    return primary_.audit_reservations();
  }

 private:
  core::Scheduler& primary_;
  core::Scheduler& shadow_;
  std::string mismatch_;
  std::uint64_t checks_ = 0;

  void note(const std::string& what) {
    if (mismatch_.empty()) mismatch_ = what;
  }

  static std::string render(std::vector<core::AuditReservation> held) {
    std::sort(held.begin(), held.end(),
              [](const core::AuditReservation& a,
                 const core::AuditReservation& b) { return a.id < b.id; });
    std::ostringstream out;
    for (const core::AuditReservation& r : held)
      out << r.id << '@' << r.start << ' ';
    return out.str();
  }

  void compare(const char* hook, std::uint64_t id, core::Time now) {
    ++checks_;
    const std::string got = render(primary_.audit_reservations());
    const std::string want = render(shadow_.audit_reservations());
    if (got != want)
      note(std::string(hook) + " " + std::to_string(id) + " at t=" +
           std::to_string(now) + ": {" + got + "} vs {" + want + "}");
  }
};

}  // namespace bfsim::test
