// bfbench -- shared types of the bfsim benchmark.
//
// The benchmark drives bfsim only through its public APIs and times
// the calls from its own files: nothing under src/ knows it is being
// measured. A run is one workload at one seed: set-up (trace
// generation, daemon start) is timed on its own, the timed phase
// repeats the workload's unit of work (a grid pass, a served replay)
// until the requested seconds are spent, and a correctness gate
// outside the timed region decides which operations failed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t nanos(Clock::time_point from,
                                        Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets, event logs and trace files.
  std::string work_dir = ".bench_build/run";
  /// The bfsim_served binary (served workloads only).
  std::string served_binary;
  /// Jobs per trace; 0 keeps the workload's default (tests shrink it).
  std::size_t jobs = 0;
  /// Corrupt one outcome of every pass or replay before the gate (tests
  /// of the gate itself).
  bool plant_fault = false;
  /// Write one line per operation, "<op> <schedule digest>", here.
  std::string digest_out;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run hands back to main for printing.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Operation label and schedule digest, in operation order.
  std::vector<std::pair<std::string, std::uint64_t>> digests;
};

/// Run `build` (the set-up) at least 5 times and for at least
/// `min_seconds`, so its median is steady even when one build takes a
/// millisecond; returns the time of each run. The caller keeps what
/// the last run built.
template <typename Build>
std::vector<double> timed_setup(Build&& build, double min_seconds = 0.25) {
  constexpr std::size_t kMinRepeats = 5;
  std::vector<double> seconds;
  const auto start = Clock::now();
  while (seconds.size() < kMinRepeats || seconds_since(start) < min_seconds) {
    const auto repeat = Clock::now();
    build();
    seconds.push_back(seconds_since(repeat));
  }
  return seconds;
}

/// The p-quantile (0 <= p <= 1, nearest rank) of `samples`; 0 when
/// empty. Sorts in place.
[[nodiscard]] double quantile(std::vector<double>& samples, double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Geometric mean of strictly positive values; 0 when empty.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB. The served workloads
/// report the daemon's instead (served.cpp).
[[nodiscard]] double peak_rss_mb();

RunResult run_grid_workload(const Options& options);
RunResult run_served_workload(const Options& options);

}  // namespace bfbench
