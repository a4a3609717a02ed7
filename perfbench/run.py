#!/usr/bin/env python3
"""Layered, cold, checked benchmark of wittlam.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a source tree: it imports wittlam from ./src and
reads the metric names and units from ./BENCHMARK.json.  NAME is one of
universal-cold, lambda-eval and structures-series (see README.md in this
directory), or `all`, which runs the three untraced in turn.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Every op's output is checked against an
independent route; failures are counted and named, never fatal.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Child interpreters run one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("universal-cold", "lambda-eval", "structures-series")
# Set-up is timed in fresh interpreters, at least SETUP_PROBES of them and
# more until SETUP_PROBE_S has passed (a cheap set-up gets more samples, up
# to SETUP_PROBES_MAX); setup_s is their median.
SETUP_PROBES = 5
SETUP_PROBE_S = 2.0
SETUP_PROBES_MAX = 25
BUDGET_S = 170  # every child is killed once the run has taken this long


class BenchError(Exception):
    """The benchmark cannot produce a result (not an op failure)."""


def child(workload, seed, mode, deadline, seconds=None, spans=None):
    """Run one worker interpreter to completion; return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} child of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def quantile(values, q):
    """Inclusive-method quantile, which stays inside the sample's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Totals:
    """Op outcomes summed over the children of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.examples = []
        self.latencies = []
        self.timed_s = 0.0
        self.ladders = 0
        self.cold_ladders = 0

    def add(self, res):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for name, n in res["failures"].items():
            self.failures[name] = self.failures.get(name, 0) + n
        self.examples += res.get("examples", [])[: 5 - len(self.examples)]
        self.latencies += res["latencies_s"]
        self.timed_s += res["timed_s"]
        if "cold" in res:
            cold = res["cold"]
            self.ladders += 1
            self.cold_ladders += (not any(cold["cold_at_start"].values())
                                  and cold["first_calls_missed"] == cold["rungs"])

    def add_crash(self, message):
        self.add({"attempted": 1, "failed": 1, "failures": {"child-crashed": 1},
                  "examples": [message.splitlines()[0]], "latencies_s": [],
                  "timed_s": 0.0})


def setup_seconds(workload, seed, deadline):
    start = time.perf_counter()
    probes = []
    while len(probes) < SETUP_PROBES or (
            len(probes) < SETUP_PROBES_MAX
            and time.perf_counter() - start < SETUP_PROBE_S):
        probes.append(child(workload, seed, "setup", deadline))
    return statistics.median(p["setup_s"] for p in probes), probes[-1]


def run_untraced(workload, seed, seconds, deadline):
    """End-to-end metrics plus the outcome and run metadata."""
    setup_s, probe = setup_seconds(workload, seed, deadline)
    totals = Totals()
    rss = []
    if workload == "universal-cold":
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            try:
                res = child(workload, seed, "run", deadline)
            except BenchError as exc:
                if time.perf_counter() >= deadline:
                    raise
                totals.add_crash(str(exc))
                continue
            totals.add(res)
            rss.append(res["peak_rss_mb"])
    else:
        res = child(workload, seed, "run", deadline, seconds=seconds)
        totals.add(res)
        rss.append(res["peak_rss_mb"])
    if not totals.attempted:
        raise BenchError(f"no op of {workload} was attempted")
    # When every op failed, the mean time per attempt stands in for the
    # latencies; such a result has correct = false anyway.
    lat_ms = sorted(t * 1000 for t in totals.latencies) or [
        totals.timed_s / totals.attempted * 1000]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / totals.timed_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": quantile(lat_ms, 90),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, totals, probe


def run_traced(workload, seed, deadline):
    """Per-layer metrics of one traced run, plus the outcome and metadata."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json.gz"
    totals = Totals()
    if workload == "universal-cold":
        # a ladder is cold once per interpreter: time it untraced in another
        untraced = child(workload, seed, "run", deadline)
        traced = child(workload, seed, "trace", deadline, spans=spans)
        totals.add(untraced)
        overhead = traced["timed_s"] / untraced["timed_s"]
    else:
        traced = child(workload, seed, "trace", deadline, spans=spans)
        overhead = traced["traced_s"] / traced["untraced_s"]
    totals.add(traced)
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_ratio"] = overhead
    return metrics, totals, traced


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_one(workload, seed, seconds, trace, declared):
    """Run one workload; return the printable lines and the result object."""
    deadline = time.perf_counter() + BUDGET_S
    if trace:
        metrics, totals, info = run_traced(workload, seed, deadline)
    else:
        metrics, totals, info = run_untraced(workload, seed, seconds, deadline)
    if set(metrics) != set(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    meta = {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": git_sha(), "python": info["python"], "kernel": info["kernel"],
        "nproc": len(os.sched_getaffinity(0)), "ops": totals.attempted,
        "input_digest": info["digest"],
    }
    if totals.ladders:
        meta["ladders_proven_cold"] = f"{totals.cold_ladders} of {totals.ladders}"
    if info.get("untraceable"):
        meta["untraceable"] = info["untraceable"]
    error_rate = totals.failed / totals.attempted
    lines = [f"meta {json.dumps(meta)}"]
    lines += [f"{name} {metrics[name]!r} {declared[name]}" for name in declared]
    lines.append(f"error_rate {error_rate!r} ratio "
                 f"({totals.failed} of {totals.attempted} ops failed)")
    if totals.failures:
        lines.append(f"failures {json.dumps(totals.failures)}")
        lines += [f"  {e}" for e in totals.examples]
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "error_rate": error_rate,
              "failures": totals.failures, **result,
              "latencies_ms": [t * 1000 for t in totals.latencies]}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return lines, result


def load_declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wittlam" / "__init__.py").is_file():
        print(f"error: no wittlam source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = load_declared(args.trace)
        if args.workload != "all":
            lines, result = run_one(args.workload, args.seed, args.seconds,
                                    args.trace, declared)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            lines, results[workload] = run_one(workload, args.seed, args.seconds,
                                               args.trace, declared)
            print("\n".join(lines), flush=True)
        print(json.dumps(results))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
