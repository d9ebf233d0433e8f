#!/usr/bin/env python3
"""Steadiness report: run every workload on ten seeds, twice, and check.

    python3 bfbench/steadiness.py --out report.json

Makes two rounds, one after the other. In each round every workload runs
once per seed 1..10 with tracing off, then once traced on seed 1, each
run lasting BENCHMARK.json's run_seconds. For
every metric of a round it records the median, the quartiles and the
spread, (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). It then checks each end-to-end
metric against its BENCHMARK.json bound: the spread of each round must
stay within the bound (setup_s excepted), and the second round's median
must not be worse than the first's by more than the bound. Exits 1 if a
check fails. Run from the root of a checkout.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 2
RUNS = 10
WORKLOADS = ("paper-grid", "bb-contended", "served-socket", "served-durable")
# The workloads BENCHMARK.json names; served-durable runs on request.
DEFAULT_WORKLOADS = ("paper-grid", "bb-contended", "served-socket")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarise(runs):
    values = {}
    units = {}
    for result in runs:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, series in values.items():
        med = statistics.median(series)
        entry = {"unit": units[name], "median": med, "values": series}
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        summary[name] = entry
    return summary


def run_round(workloads, runs, seconds):
    result = {}
    for workload in workloads:
        untraced = []
        for seed in range(1, runs + 1):
            run = run_once(workload, seed, seconds, 0)
            if not run["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: gate failed")
            untraced.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in run["metrics"].items()), flush=True)
        traced = run_once(workload, 1, seconds, 1)
        if not traced["correct"]:
            raise RuntimeError(f"{workload} traced: gate failed")
        result[workload] = {
            "end_to_end": summarise(untraced),
            "per_layer": summarise([traced]),
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
        }
    return result


def check(rounds, spec):
    """The two-round checks of every end-to-end metric, as rows."""
    rows = []
    for workload in rounds[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = rounds[0][workload]["end_to_end"][name]
            second = rounds[1][workload]["end_to_end"][name]
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if metric["better"] == "lower" else -change
            spreads = [first.get("spread", 0.0), second.get("spread", 0.0)]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "spreads": spreads, "median_change": change,
                         "worse_by": worse, "ok": ok})
    return rows


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=list(DEFAULT_WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)

    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "system": platform.platform()},
        "build_type": "Release",
        "date": datetime.date.today().isoformat(),
        "seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "rounds": [],
    }
    for number in range(1, ROUNDS + 1):
        print(f"round {number}", flush=True)
        report["rounds"].append(
            run_round(args.workloads, RUNS, spec["run_seconds"]))
    report["checks"] = check(report["rounds"], spec)
    for row in report["checks"]:
        print(f"{row['workload']:14s} {row['metric']:26s} spreads "
              f"{row['spreads'][0]:.3f} {row['spreads'][1]:.3f}  median change "
              f"{row['median_change']:+.3f}  bound {row['bound']:.2f}  "
              f"{'ok' if row['ok'] else 'FAIL'}", flush=True)

    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0 if all(row["ok"] for row in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
