#include "probe.hpp"

#include <algorithm>

#include "core/multi_profile.hpp"

namespace bfbench {

namespace core = bfsim::core;

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCell: return "cell";
    case SpanKind::kReplay: return "sim.engine.replay";
    case SpanKind::kMetrics: return "metrics.compute";
    case SpanKind::kEndCycle: return "core.decision.end_cycle";
    case SpanKind::kSelectStarts: return "core.scheduler.select_starts";
    case SpanKind::kReplayRun: return "svc.served_run";
    case SpanKind::kFrame: return "svc.frame";
  }
  return "?";
}

std::int32_t Tracer::open(SpanKind kind) {
  if (spans_.size() >= capacity_) return -1;
  Span span;
  span.kind = kind;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_ns = nanos(epoch_, Clock::now());
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = nanos(epoch_, Clock::now());
  stack_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& span : spans)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
  return self;
}

void LayerStats::merge(const LayerStats& other) {
  engine_events += other.engine_events;
  replay_s += other.replay_s;
  decision_calls += other.decision_calls;
  decision_busy_s += other.decision_busy_s;
  end_cycle_ns.insert(end_cycle_ns.end(), other.end_cycle_ns.begin(),
                      other.end_cycle_ns.end());
  passes += other.passes;
  passes_skipped += other.passes_skipped;
  passes_starting += other.passes_starting;
  max_queue = std::max(max_queue, other.max_queue);
  kills += other.kills;
  select_busy_s += other.select_busy_s;
  select_ns.insert(select_ns.end(), other.select_ns.begin(),
                   other.select_ns.end());
  hooks_busy_s += other.hooks_busy_s;
  breakpoint_samples += other.breakpoint_samples;
  breakpoint_sum += other.breakpoint_sum;
  breakpoint_peak = std::max(breakpoint_peak, other.breakpoint_peak);
  anchor_ns.insert(anchor_ns.end(), other.anchor_ns.begin(),
                   other.anchor_ns.end());
  metrics_s += other.metrics_s;
}

// ---------------------------------------------------------------------
// ProbeScheduler

template <typename Call>
auto ProbeScheduler::hook(Call&& call) {
  const auto start = Clock::now();
  auto result = call();
  layers_.hooks_busy_s +=
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

bool ProbeScheduler::job_submitted(const core::Job& job, core::Time now) {
  return hook([&] { return inner_.job_submitted(job, now); });
}
bool ProbeScheduler::job_finished(core::JobId id, core::Time now) {
  return hook([&] { return inner_.job_finished(id, now); });
}
bool ProbeScheduler::job_cancelled(core::JobId id, core::Time now) {
  return hook([&] { return inner_.job_cancelled(id, now); });
}
bool ProbeScheduler::job_killed(core::JobId id, core::Time now) {
  return hook([&] { return inner_.job_killed(id, now); });
}
bool ProbeScheduler::node_down(const bfsim::sim::Outage& outage,
                               core::Time now) {
  return hook([&] { return inner_.node_down(outage, now); });
}
bool ProbeScheduler::node_up(const bfsim::sim::Outage& outage,
                             core::Time now) {
  return hook([&] { return inner_.node_up(outage, now); });
}
core::Time ProbeScheduler::next_wakeup() {
  return hook([&] { return inner_.next_wakeup(); });
}

void ProbeScheduler::select_starts(core::Time now,
                                   std::vector<core::Job>& out) {
  const std::int32_t span =
      sample_span_ && tracer_ != nullptr ? tracer_->open(SpanKind::kSelectStarts)
                                         : -1;
  const auto start = Clock::now();
  inner_.select_starts(now, out);
  const auto end = Clock::now();
  if (tracer_ != nullptr) tracer_->close(span);
  const auto ns = nanos(start, end);
  layers_.select_busy_s += static_cast<double>(ns) * 1e-9;
  layers_.select_ns.push_back(static_cast<double>(ns));
}

// ---------------------------------------------------------------------
// ProbeCore

void ProbeCore::open_batch() {
  if (batch_open_) return;
  batch_open_ = true;
  ++batches_;
  batch_sampled_ = batches_ % kFrameStride == 0;
  if (batch_sampled_) batch_start_ = Clock::now();
}

template <typename Call>
void ProbeCore::timed(Call&& call) {
  open_batch();
  if (layers_ == nullptr) {
    call();
    return;
  }
  const auto start = Clock::now();
  call();
  layers_->decision_busy_s +=
      std::chrono::duration<double>(Clock::now() - start).count();
  ++layers_->decision_calls;
}

void ProbeCore::on_submit(const core::Job& job, core::Time now) {
  timed([&] { core_.on_submit(job, now); });
  submitted_ = std::max<core::JobId>(submitted_, job.id + 1);
}
void ProbeCore::on_finish(core::JobId id, core::Time now) {
  timed([&] { core_.on_finish(id, now); });
}
void ProbeCore::on_cancel(core::JobId id, core::Time now) {
  timed([&] { core_.on_cancel(id, now); });
}
void ProbeCore::on_wake(core::Time now) {
  timed([&] { core_.on_wake(now); });
}
void ProbeCore::on_node_down(const bfsim::sim::Outage& outage,
                             core::Time now) {
  timed([&] { core_.on_node_down(outage, now); });
}
void ProbeCore::on_node_up(bfsim::sim::OutageId id, core::Time now) {
  timed([&] { core_.on_node_up(id, now); });
}

core::CycleDecision ProbeCore::end_cycle(core::Time now) {
  // A stale completion of a killed run closes a batch without any hook.
  open_batch();
  batch_open_ = false;
  if (layers_ == nullptr) {
    const core::CycleDecision decision = core_.end_cycle(now);
    if (batch_sampled_)
      frame_ns_.push_back(static_cast<double>(nanos(batch_start_, Clock::now())));
    return decision;
  }

  const bool span_sampled = batches_ % kSpanStride == 0;
  const std::int32_t span =
      span_sampled ? tracer_->open(SpanKind::kEndCycle) : -1;
  scheduler_->set_span_sampling(span_sampled);
  const auto start = Clock::now();
  const core::CycleDecision decision = core_.end_cycle(now);
  const auto end = Clock::now();
  scheduler_->set_span_sampling(false);
  tracer_->close(span);

  const auto ns = nanos(start, end);
  layers_->decision_busy_s += static_cast<double>(ns) * 1e-9;
  ++layers_->decision_calls;
  layers_->end_cycle_ns.push_back(static_cast<double>(ns));
  if (decision.pass_ran && !decision.starts.empty()) ++layers_->passes_starting;
  if (batch_sampled_)
    frame_ns_.push_back(static_cast<double>(nanos(batch_start_, end)));
  sample_profile(now);
  return decision;
}

void ProbeCore::sample_profile(core::Time now) {
  const core::MultiProfile* live = core_.scheduler().audit_profile();
  if (live == nullptr) return;
  const std::size_t points = live->breakpoints();
  ++layers_->breakpoint_samples;
  layers_->breakpoint_sum += static_cast<double>(points);
  layers_->breakpoint_peak = std::max<std::uint64_t>(layers_->breakpoint_peak,
                                                     points);
  if (batches_ % kSpanStride != 0) return;
  // Anchor searches for the head of the queue, on a copy of the live
  // profile so the scheduler's own state is never touched.
  constexpr std::size_t kShapes = 8;
  const core::MultiProfile copy = *live;
  std::size_t shapes = 0;
  for (core::JobId id = 0; id < submitted_ && shapes < kShapes; ++id) {
    if (core_.phase(id) != core::JobPhase::kQueued) continue;
    const core::Job& job = trace_[id];
    const auto start = Clock::now();
    // Out-of-line call into the library: cannot be elided unused.
    (void)copy.earliest_anchor(job.procs, job.bb, job.estimate, now);
    const auto end = Clock::now();
    layers_->anchor_ns.push_back(static_cast<double>(nanos(start, end)));
    ++shapes;
  }
}

}  // namespace bfbench
