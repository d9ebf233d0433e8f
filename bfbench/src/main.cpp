// bfbench -- the bfsim benchmark program.
//
//   bfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--served-binary PATH]
//           [--jobs N] [--plant-fault] [--digest-out FILE]
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics and the tracing overhead. bfbench/README.md explains the
// workloads and metrics; bfbench/run.py builds and runs this binary.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "report.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bfbench --workload paper-grid|bb-contended|"
               "served-socket|served-durable\n"
               "               --seed N --seconds S --trace 0|1\n"
               "               [--work-dir DIR] [--served-binary PATH]\n"
               "               [--jobs N] [--plant-fault] [--digest-out FILE]\n");
}

bool parse(int argc, char** argv, bfbench::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plant-fault") {
      options.plant_fault = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--served-binary") {
      options.served_binary = value;
    } else if (arg == "--jobs") {
      options.jobs = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--digest-out") {
      options.digest_out = value;
    } else {
      return false;
    }
  }
  return options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bfbench::Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  const bool grid =
      options.workload == "paper-grid" || options.workload == "bb-contended";
  const bool served = options.workload == "served-socket" ||
                      options.workload == "served-durable";
  if (!grid && !served) {
    usage();
    return 2;
  }
  if (served && options.served_binary.empty()) {
    std::fprintf(stderr, "bfbench: %s needs --served-binary\n",
                 options.workload.c_str());
    return 2;
  }
  try {
    bfbench::RunResult result = grid ? bfbench::run_grid_workload(options)
                                     : bfbench::run_served_workload(options);
    if (!options.trace) {
      // error_rate's complement: an end-to-end metric must never be 0.
      result.metrics.push_back(
          {"success_rate",
           static_cast<double>(result.attempted - result.failed) /
               static_cast<double>(result.attempted),
           "ratio"});
    }
    if (!options.digest_out.empty()) {
      std::ofstream out(options.digest_out);
      for (const auto& [op, digest] : result.digests)
        out << op << ' ' << digest << '\n';
    }
    bfbench::print_result(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
