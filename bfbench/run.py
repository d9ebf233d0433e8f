#!/usr/bin/env python3
"""Build and run the bfsim benchmark.

    python3 bfbench/run.py --workload paper-grid --seed 1 --seconds 8 --trace 0

Run from the root of a bfsim checkout. The first run configures and
builds bfbench/ (the repository's libraries, bfsim_served and the
benchmark program) in Release mode under $CARGO_TARGET_DIR/bfbench, or
.bench_build/bfbench when that variable is unset; later runs only
check that the build is current. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. See bfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper-grid", "bb-contended", "served-socket", "served-durable")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that outlives this is killed with every process it started, so
# that it ends within 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="jobs per trace (0 = the workload's default)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one schedule of every pass or replay")
    parser.add_argument("--digest-out", default="",
                        help="write each operation's schedule digest here")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("bfbench: no bfsim sources next to bfbench/", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "bfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"bfbench: build failed: {error}", file=sys.stderr)
        return 1

    # Relative to the working directory: Unix socket paths
    # must stay under 108 bytes wherever the checkout lives.
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "bfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.relpath(work_dir),
        "--served-binary", os.path.join(build_dir, "bfsim_served", "bfsim_served"),
    ]
    if args.jobs:
        command += ["--jobs", str(args.jobs)]
    if args.plant_fault:
        command.append("--plant-fault")
    if args.digest_out:
        command += ["--digest-out", args.digest_out]

    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:  # anything the run left behind in its process group
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


if __name__ == "__main__":
    sys.exit(main())
