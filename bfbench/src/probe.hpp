// bfbench -- timing probes plugged into bfsim's public seams.
//
// ProbeCore wraps core::DecisionCore and is what EngineReplay drives;
// ProbeScheduler is a forwarding core::Scheduler decorator handed to
// the DecisionCore. Untraced, ProbeCore only times one event batch in
// kFrameStride (the in-process "frame" latency) and ProbeScheduler is
// not used at all. Traced, every call through both seams is timed into
// a LayerStats, every kSpanStride-th batch is recorded as spans, and
// the live profile of reservation-holding schedulers is sampled.
// Neither probe changes a decision: both only forward and read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/decision_core.hpp"
#include "core/scheduler.hpp"

namespace bfbench {

/// One batch in this many is timed end to end in untraced runs.
inline constexpr std::uint64_t kFrameStride = 8;
/// One batch in this many is kept as spans and samples the profile's
/// anchor search in traced runs.
inline constexpr std::uint64_t kSpanStride = 64;

/// What a span covers; span_name() gives its name in the trace file.
enum class SpanKind : std::uint8_t {
  kCell,
  kReplay,
  kMetrics,
  kEndCycle,
  kSelectStarts,
  kReplayRun,
  kFrame,
};
[[nodiscard]] const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kCell;
  std::int32_t parent = -1;  ///< index into the same vector, -1 = root
  std::uint32_t op = 0;      ///< cell or frame id
  std::int64_t start_ns = 0; ///< since the run's epoch
  std::int64_t end_ns = 0;
};

/// In-memory span recorder for one thread of work (one cell, one
/// replay). Spans nest by an explicit stack; past `capacity` spans are
/// dropped so a long traced run cannot exhaust memory.
class Tracer {
 public:
  Tracer(Clock::time_point epoch, std::uint32_t op, std::size_t capacity)
      : epoch_(epoch), op_(op), capacity_(capacity) {}

  /// Opens a span under the innermost open one; -1 when dropped.
  std::int32_t open(SpanKind kind);
  void close(std::int32_t index);
  void set_op(std::uint32_t op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::uint32_t op_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Self time of every span: its duration minus the part its children
/// cover (children of one span never overlap: one thread per tracer).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Per-layer measurements of traced runs, merged per scheduler.
struct LayerStats {
  std::uint64_t engine_events = 0;
  double replay_s = 0.0;          ///< EngineReplay::run wall time
  std::uint64_t decision_calls = 0;
  double decision_busy_s = 0.0;   ///< inside DecisionCore calls
  std::vector<double> end_cycle_ns;
  std::uint64_t passes = 0;
  std::uint64_t passes_skipped = 0;
  std::uint64_t passes_starting = 0;  ///< passes that started a job
  std::uint64_t max_queue = 0;
  std::uint64_t kills = 0;
  double select_busy_s = 0.0;     ///< inside Scheduler::select_starts
  std::vector<double> select_ns;
  double hooks_busy_s = 0.0;      ///< inside the other Scheduler hooks
  std::uint64_t breakpoint_samples = 0;
  double breakpoint_sum = 0.0;
  std::uint64_t breakpoint_peak = 0;
  std::vector<double> anchor_ns;
  double metrics_s = 0.0;         ///< metrics::compute_metrics

  void merge(const LayerStats& other);
};

/// Forwarding Scheduler decorator that times select_starts and hooks.
class ProbeScheduler final : public bfsim::core::Scheduler {
 public:
  ProbeScheduler(bfsim::core::Scheduler& inner, LayerStats& layers,
                 Tracer* tracer)
      : inner_(inner), layers_(layers), tracer_(tracer) {}

  using Scheduler::select_starts;

  bool job_submitted(const bfsim::core::Job& job,
                     bfsim::core::Time now) override;
  bool job_finished(bfsim::core::JobId id, bfsim::core::Time now) override;
  bool job_cancelled(bfsim::core::JobId id, bfsim::core::Time now) override;
  bool job_killed(bfsim::core::JobId id, bfsim::core::Time now) override;
  bool node_down(const bfsim::sim::Outage& outage,
                 bfsim::core::Time now) override;
  bool node_up(const bfsim::sim::Outage& outage,
               bfsim::core::Time now) override;
  [[nodiscard]] bfsim::core::Time next_wakeup() override;
  void select_starts(bfsim::core::Time now,
                     std::vector<bfsim::core::Job>& out) override;

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const bfsim::core::SchedulerConfig& config() const override {
    return inner_.config();
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return inner_.queued_count();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return inner_.running_count();
  }
  [[nodiscard]] bfsim::core::AuditHooks audit_hooks() const override {
    return inner_.audit_hooks();
  }
  [[nodiscard]] const bfsim::core::MultiProfile* audit_profile()
      const override {
    return inner_.audit_profile();
  }
  [[nodiscard]] std::vector<bfsim::core::AuditReservation> audit_reservations()
      const override {
    return inner_.audit_reservations();
  }

  /// Record select_starts as a span (set around sampled batches).
  void set_span_sampling(bool on) { sample_span_ = on; }

 private:
  template <typename Call>
  auto hook(Call&& call);

  bfsim::core::Scheduler& inner_;
  LayerStats& layers_;
  Tracer* tracer_;
  bool sample_span_ = false;
};

/// The EngineReplay `Core`: forwards to a DecisionCore and times it.
class ProbeCore {
 public:
  /// Untraced: `layers`, `scheduler` and `tracer` are null and only the
  /// sampled batch latencies land in `frame_ns`. Traced: all are set;
  /// `trace` gives the queued jobs' shapes for the anchor samples.
  ProbeCore(bfsim::core::DecisionCore& core, const bfsim::core::Trace& trace,
            std::vector<double>& frame_ns, LayerStats* layers,
            ProbeScheduler* scheduler, Tracer* tracer)
      : core_(core),
        trace_(trace),
        frame_ns_(frame_ns),
        layers_(layers),
        scheduler_(scheduler),
        tracer_(tracer) {}

  void on_submit(const bfsim::core::Job& job, bfsim::core::Time now);
  void on_finish(bfsim::core::JobId id, bfsim::core::Time now);
  void on_cancel(bfsim::core::JobId id, bfsim::core::Time now);
  void on_wake(bfsim::core::Time now);
  void on_node_down(const bfsim::sim::Outage& outage, bfsim::core::Time now);
  void on_node_up(bfsim::sim::OutageId id, bfsim::core::Time now);
  [[nodiscard]] bfsim::core::CycleDecision end_cycle(bfsim::core::Time now);

  [[nodiscard]] bfsim::sim::RequeuePolicy requeue_policy() const {
    return core_.requeue_policy();
  }
  [[nodiscard]] const bfsim::core::DecisionStats& stats() const {
    return core_.stats();
  }
  [[nodiscard]] std::string name() const { return core_.name(); }

 private:
  void open_batch();
  template <typename Call>
  void timed(Call&& call);
  void sample_profile(bfsim::core::Time now);

  bfsim::core::DecisionCore& core_;
  const bfsim::core::Trace& trace_;
  std::vector<double>& frame_ns_;
  LayerStats* layers_;
  ProbeScheduler* scheduler_;
  Tracer* tracer_;
  std::uint64_t batches_ = 0;
  bool batch_open_ = false;
  bool batch_sampled_ = false;
  Clock::time_point batch_start_{};
  bfsim::core::JobId submitted_ = 0;  ///< ids below this have arrived
};

}  // namespace bfbench
