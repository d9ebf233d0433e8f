// bfbench -- the served workloads: served-socket and served-durable.
//
// One bfsim_served daemon per replay, on a Unix socket, with an event
// log (--state) for served-durable. The benchmark process is the one
// replay client: svc::served_run over an svc::FdChannel wrapped in a
// TimingChannel that times every round trip. Closed loop, one
// connection: each `events` frame waits for its decisions, so at most
// three threads run (the daemon's reader and worker, and the client).
// Starting the daemon and the hello round trip are set-up; the replay
// after the hello is the timed work.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "gate.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "svc/client.hpp"
#include "svc/eventlog.hpp"
#include "svc/protocol.hpp"
#include "svc/session.hpp"

extern char** environ;

namespace bfbench {

namespace core = bfsim::core;
namespace exp = bfsim::exp;
namespace svc = bfsim::svc;

namespace {

/// Jobs of the replayed trace when the command line does not override.
constexpr std::size_t kServedJobs = 8000;
/// Untraced timed replays a run makes at least, past its deadline if
/// need be, so each metric is a median of several.
constexpr std::size_t kMinTimedReplays = 3;
/// Frames whose event-log append is timed in traced runs (each append
/// is an fsync).
constexpr std::size_t kEventLogFrames = 4000;

/// One bfsim_served process on a Unix socket, and the client's
/// connection to it. The destructor kills and reaps a daemon that did
/// not exit on its own.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& state_path, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// The daemon's peak resident set size so far (VmHWM), in MiB; 0 if
  /// it cannot be read.
  [[nodiscard]] double peak_rss_mb() const;
  /// Close the connection and wait for the daemon to exit (after `bye`).
  /// Returns its exit status.
  int finish();

 private:
  /// Close the connection, kill the daemon if it runs, and reap it.
  void stop();

  pid_t pid_ = -1;
  int fd_ = -1;
};

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const std::string& state_path, const std::string& log_path) {
  sockaddr_un address{};
  if (socket_path.size() >= sizeof address.sun_path)
    throw std::runtime_error("bfbench: socket path too long: " + socket_path);
  ::unlink(socket_path.c_str());
  std::vector<std::string> args = {binary, "--socket", socket_path};
  if (!state_path.empty()) {
    ::unlink(state_path.c_str());  // a fresh session, never a resume
    args.insert(args.end(), {"--state", state_path});
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int spawned =
      posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    pid_ = -1;
    throw std::runtime_error("bfbench: cannot start " + binary + ": " +
                             std::strerror(spawned));
  }

  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  // The constructor's throws skip the destructor, so each stops first.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      stop();
      throw std::runtime_error("bfbench: socket() failed");
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) == 0)
      return;
    ::close(fd_);
    fd_ = -1;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("bfbench: bfsim_served exited at start-up");
    }
    if (Clock::now() > deadline) {
      stop();
      throw std::runtime_error("bfbench: bfsim_served never listened");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Daemon::stop() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (pid_ > 0) {
    int status = 0;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
}

int Daemon::finish() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  int status = 0;
  if (pid_ > 0) ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return status;
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  std::FILE* status =
      std::fopen(("/proc/" + std::to_string(pid_) + "/status").c_str(), "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(status);
  return kib / 1024.0;
}

bool is_events_frame(const std::string& line) {
  return line.rfind("{\"type\":\"events\"", 0) == 0;
}

bool is_bye_frame(const std::string& line) {
  return line.rfind("{\"type\":\"bye\"", 0) == 0;
}

/// What a TimingChannel saw: the hello round trip, per `events` frame
/// its round trip, byte counts and (traced replays) the lines, and the
/// daemon's peak RSS just before the `bye`.
struct Recording {
  std::int64_t hello_ns = 0;
  double daemon_rss_mb = 0.0;
  std::vector<double> frame_ns;
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
  std::string hello_line;
  std::vector<std::string> requests;
  std::vector<std::string> replies;
};

/// A LineChannel decorator timing each round trip into a Recording.
class TimingChannel final : public svc::LineChannel {
 public:
  TimingChannel(svc::LineChannel& inner, const Daemon& daemon, bool keep_lines,
                Tracer* tracer, Recording& out)
      : inner_(inner),
        daemon_(daemon),
        keep_lines_(keep_lines),
        tracer_(tracer),
        out_(out) {}

  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    // After the bye the daemon exits, and its VmHWM goes with it.
    if (is_bye_frame(line)) out_.daemon_rss_mb = daemon_.peak_rss_mb();
    const bool events = is_events_frame(line);
    std::int32_t span = -1;
    if (tracer_ != nullptr && events) {
      tracer_->set_op(static_cast<std::uint32_t>(out_.frame_ns.size() + 1));
      span = tracer_->open(SpanKind::kFrame);
    }
    const auto start = Clock::now();
    std::string reply = inner_.roundtrip(line);
    const auto ns = nanos(start, Clock::now());
    if (tracer_ != nullptr) tracer_->close(span);
    if (!events) {
      if (out_.hello_line.empty()) {  // the first frame is the hello
        out_.hello_ns = ns;
        out_.hello_line = line;
      }
      return reply;
    }
    out_.frame_ns.push_back(static_cast<double>(ns));
    out_.request_bytes += line.size();
    out_.reply_bytes += reply.size();
    if (keep_lines_) {
      out_.requests.push_back(line);
      out_.replies.push_back(reply);
    }
    return reply;
  }

 private:
  svc::LineChannel& inner_;
  const Daemon& daemon_;
  bool keep_lines_;
  Tracer* tracer_;
  Recording& out_;
};

struct Replay {
  double setup_s = 0.0;   ///< daemon start + connect + hello round trip
  double replay_s = 0.0;  ///< served_run after the hello
  bool ran = false;       ///< served_run returned and the daemon exited
  bool ok = false;        ///< ran, and the schedule passed the gate
  std::uint64_t digest = 0;
  Recording recording;
};

struct ServedContext {
  const Options& options;
  const core::Trace& trace;
  svc::HelloRequest hello;
  const core::SimulationResult& reference;
  bool reference_ok = false;
  std::string socket_path;
  std::string state_path;
  std::string log_path;
};

Replay replay_once(const ServedContext& ctx, bool traced, Tracer* tracer,
                   bool plant_fault) {
  Replay replay;
  const auto start = Clock::now();
  try {
    Daemon daemon{ctx.options.served_binary, ctx.socket_path, ctx.state_path,
                  ctx.log_path};
    const double spawn_s = seconds_since(start);
    svc::FdChannel wire{daemon.fd(), daemon.fd()};
    TimingChannel channel{wire, daemon, traced, tracer, replay.recording};
    const std::int32_t span =
        tracer != nullptr ? tracer->open(SpanKind::kReplayRun) : -1;
    const auto run_start = Clock::now();
    core::SimulationResult result = svc::served_run(ctx.trace, channel, ctx.hello);
    const double run_s = seconds_since(run_start);
    if (tracer != nullptr) tracer->close(span);
    const int status = daemon.finish();
    const double hello_s = static_cast<double>(replay.recording.hello_ns) * 1e-9;
    replay.setup_s = spawn_s + hello_s;
    replay.replay_s = run_s - hello_s;
    replay.ran = true;
    if (plant_fault) plant_wrong_start(result);
    replay.digest = schedule_digest(result);
    replay.ok = ctx.reference_ok && status == 0 && same_schedule(result, ctx.reference);
    if (!replay.ok)
      std::fprintf(stderr, "bfbench: served schedule differs from in-process "
                           "(daemon status %d)\n", status);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bfbench: served replay failed: %s\n", error.what());
    replay.ok = false;
  }
  return replay;
}

/// Per-layer measurements replayed from the frames one traced replay
/// recorded: codec, in-process session and event-log append.
std::uint64_t measure_svc_layers(const ServedContext& ctx,
                                 const Recording& recorded,
                                 LayerValues& values) {
  std::uint64_t mismatches = 0;
  const std::size_t frames = recorded.requests.size();
  values["svc.frames"] = static_cast<double>(frames);
  values["svc.request_bytes"] = static_cast<double>(recorded.request_bytes);
  values["svc.reply_bytes"] = static_cast<double>(recorded.reply_bytes);

  std::vector<double> parse_ns;
  std::vector<std::uint64_t> seqs;
  std::vector<bfsim::workload::JobId> starts, kills;
  for (std::size_t i = 0; i < frames; ++i) {
    const auto start = Clock::now();
    const svc::Request request = svc::parse_request(recorded.requests[i]);
    (void)svc::parse_decision_reply(recorded.replies[i], request.batch.seq,
                                    starts, kills);
    parse_ns.push_back(static_cast<double>(nanos(start, Clock::now())));
    seqs.push_back(request.batch.seq);
  }
  values["svc.codec.parse_p50_ns"] = quantile(parse_ns, 0.50);

  // The same frames through an in-process Session: its replies must be
  // the daemon's, byte for byte.
  svc::Session session;
  (void)session.handle_line(recorded.hello_line);
  std::vector<double> handle_us, transport_us;
  for (std::size_t i = 0; i < frames; ++i) {
    const auto start = Clock::now();
    const std::string reply = session.handle_line(recorded.requests[i]);
    const double ns = static_cast<double>(nanos(start, Clock::now()));
    if (reply != recorded.replies[i]) ++mismatches;
    handle_us.push_back(ns / 1e3);
    transport_us.push_back((recorded.frame_ns[i] - ns) / 1e3);
  }
  values["svc.session.handle_p50_us"] = quantile(handle_us, 0.50);
  values["svc.session.handle_p99_us"] = quantile(handle_us, 0.99);
  values["svc.transport_p50_us"] = quantile(transport_us, 0.50);

  const std::string log_path = ctx.options.work_dir + "/eventlog-probe.log";
  ::unlink(log_path.c_str());
  {
    svc::EventLogWriter writer{log_path};
    writer.record_hello(recorded.hello_line);
    std::vector<double> append_us;
    for (std::size_t i = 0; i < frames && i < kEventLogFrames; ++i) {
      const auto start = Clock::now();
      writer.record_batch(seqs[i], recorded.requests[i]);
      append_us.push_back(static_cast<double>(nanos(start, Clock::now())) / 1e3);
    }
    values["svc.eventlog.append_p50_us"] = quantile(append_us, 0.50);
    values["svc.eventlog.append_p99_us"] = quantile(append_us, 0.99);
  }
  ::unlink(log_path.c_str());
  return mismatches;
}

}  // namespace

RunResult run_served_workload(const Options& options) {
  const bool durable = options.workload == "served-durable";
  // The client and, by inheritance, every daemon it starts share one
  // CPU. The loop is closed, so its three threads take turns anyway;
  // unpinned, the round trip switches between two regimes (same-CPU
  // and cross-CPU wake-ups, 17 and 35 us on a 4-vCPU VM) from run to
  // run, and the figures with it.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(static_cast<unsigned>(std::max(sched_getcpu(), 0)), &one_cpu);
  if (sched_setaffinity(0, sizeof one_cpu, &one_cpu) != 0)
    std::fprintf(stderr, "bfbench: cannot pin to one CPU; running unpinned\n");

  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Ctc;
  scenario.jobs = options.jobs != 0 ? options.jobs : kServedJobs;
  scenario.seed = options.seed;
  scenario.estimates = {exp::EstimateRegime::Systematic, 3.0};

  // Set-up, part one: trace generation.
  core::Trace trace;
  const std::vector<double> build_s =
      timed_setup([&] { trace = exp::build_workload(scenario); });

  svc::HelloRequest hello;
  hello.kind = core::SchedulerKind::Easy;
  hello.config = {scenario.procs(), core::PriorityPolicy::Fcfs, 0};

  // The in-process schedule every served replay must reproduce.
  const core::SimulationResult reference =
      core::run_simulation(trace, hello.kind, hello.config);
  const std::vector<std::string> violations = check_schedule(
      trace, reference, hello.config.procs, 0, nullptr,
      bfsim::sim::RequeuePolicy::kResubmitFull);
  for (const std::string& violation : violations)
    std::fprintf(stderr, "bfbench: in-process schedule: %s\n", violation.c_str());

  const std::string stem =
      options.work_dir + "/" + options.workload + "-" + std::to_string(::getpid());
  ServedContext ctx{options,
                    trace,
                    hello,
                    reference,
                    violations.empty(),
                    stem + ".sock",
                    durable ? stem + ".state" : "",
                    stem + ".daemon.log"};

  RunResult run;
  std::vector<double> setup_s, replay_wall, traced_wall, daemon_rss_mb;
  std::vector<double> frame_p50_us, frame_p90_us, frame_p99_us;
  std::size_t frame_samples = 0;
  const auto epoch = Clock::now();
  Tracer tracer{epoch, 0, 100000};
  Recording recorded;
  // Replay 0 warms the page cache, the binary and the allocator: it is
  // gated but not timed. Timed replays follow until the deadline;
  // traced runs alternate untraced and traced replays. A timed replay
  // counts whether or not it passes the gate, so a run whose every
  // replay fails still ends on time and reports its failures; one
  // that did not complete (the daemon died or never started) ends the
  // run.
  auto deadline = Clock::now();
  for (int index = 0;; ++index) {
    const bool warmup = index == 0;
    const bool traced = options.trace && !warmup && index % 2 == 0;
    const bool first_traced = traced && traced_wall.empty();
    Replay replay = replay_once(ctx, traced, first_traced ? &tracer : nullptr,
                                options.plant_fault);
    std::vector<double> frames_us;
    for (const double ns : replay.recording.frame_ns) frames_us.push_back(ns / 1e3);
    const double p50_us = quantile(frames_us, 0.50);
    std::fprintf(stderr, "bfbench: %s replay %d: %.4f s, frame p50 %.1f us\n",
                 warmup ? "warm-up" : traced ? "traced" : "untraced", index,
                 replay.replay_s, p50_us);
    const std::uint64_t frames =
        std::max<std::uint64_t>(replay.recording.frame_ns.size(), 1);
    run.attempted += frames;
    if (!replay.ok) run.failed += frames;
    run.digests.emplace_back((traced ? "traced" : "untraced") + std::to_string(index),
                             replay.digest);
    if (warmup) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
    } else if (traced && replay.ran) {
      traced_wall.push_back(replay.replay_s);
      if (first_traced && replay.ok) recorded = std::move(replay.recording);
    } else if (replay.ran) {
      setup_s.push_back(replay.setup_s);
      replay_wall.push_back(replay.replay_s);
      daemon_rss_mb.push_back(replay.recording.daemon_rss_mb);
      frame_samples += frames_us.size();
      frame_p50_us.push_back(p50_us);
      frame_p90_us.push_back(quantile(frames_us, 0.90));
      frame_p99_us.push_back(quantile(frames_us, 0.99));
    }
    if (!replay.ran) break;
    const bool enough = replay_wall.size() >= kMinTimedReplays &&
                        (!options.trace || !traced_wall.empty());
    if (enough && Clock::now() >= deadline) break;
  }
  ::unlink(ctx.socket_path.c_str());
  if (durable) ::unlink(ctx.state_path.c_str());
  if (run.failed == 0) ::unlink(ctx.log_path.c_str());

  if (!options.trace) {
    // The replay is the workload's one cell, so both throughputs agree.
    const double jobs_per_s =
        replay_wall.empty()
            ? 0.0
            : static_cast<double>(trace.size()) / median(replay_wall);
    // peak_rss_mb is the daemon's, the program an operator runs; the
    // client's memory is the benchmark's own.
    run.metrics = {
        {"setup_s", median(build_s) + median(setup_s), "s"},
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"cell_jobs_per_s_geomean", jobs_per_s, "1/s"},
        {"frame_p50_us", median(frame_p50_us), "us"},
        {"peak_rss_mb", median(daemon_rss_mb), "MB"},
    };
    return run;
  }

  LayerValues values;
  values["workload.build_s"] = median(build_s);
  values["frame_samples"] = static_cast<double>(frame_samples);
  values["frame_p90_us"] = median(frame_p90_us);
  values["frame_p99_us"] = median(frame_p99_us);
  values["trace_overhead"] =
      replay_wall.empty() ? 0.0 : median(traced_wall) / median(replay_wall);
  if (!recorded.requests.empty()) {
    const std::uint64_t mismatches = measure_svc_layers(ctx, recorded, values);
    if (mismatches > 0) {
      std::fprintf(stderr, "bfbench: %llu in-process session replies differ "
                           "from the daemon's\n",
                   static_cast<unsigned long long>(mismatches));
      run.failed += mismatches;
    }
  }
  write_chrome_trace(options.work_dir + "/trace-" + options.workload + "-" +
                         std::to_string(options.seed) + ".json",
                     {&tracer});
  run.metrics = layer_metrics(values);
  return run;
}

}  // namespace bfbench
