"""One child interpreter of the benchmark; `run.py` starts it, one at a time.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  setup  import wittlam, make the inputs and do the workload's warm-up;
  run    the same set-up, then ops for S seconds of wall time (exactly one
         cold ladder on universal-cold), each op checked outside its timed
         interval;
  trace  the same set-up, then per-layer tracing (see tracing.py) of one
         cold ladder, or of TRACE_OPS ops that are each also run once
         untraced, next to the traced run, to measure the tracing overhead.

The child prints one JSON object as the last line of its standard output.
Set-up time runs from just before `import wittlam` to the end of warm-up.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Outcome:
    """Attempts, failures by check name, and op latencies of one child."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.examples = []
        self.latencies = []  # seconds, successful ops only
        self.timed_s = 0.0  # summed intervals of every op

    def record(self, elapsed, failed, where):
        self.attempted += 1
        self.timed_s += elapsed
        if failed:
            self.failures.update(failed)
            if len(self.examples) < 5:
                self.examples.append(f"{where}: {', '.join(failed)}")
        else:
            self.latencies.append(elapsed)

    def to_json(self):
        return {
            "attempted": self.attempted,
            "failed": self.attempted - len(self.latencies),
            "failures": dict(self.failures),
            "examples": self.examples,
            "latencies_s": self.latencies,
            "timed_s": self.timed_s,
        }


def run_op(workload, inp, outcome, where, tracer=None):
    """Time one op, traced if a tracer is given; check it outside the timed
    and traced interval; record the outcome; return the op's time.  An op
    or check that raises is a failure, counted and named, never fatal."""
    failed = []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.op(inp)
    except Exception as exc:
        failed = [f"op-raised-{type(exc).__name__}"]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if not failed:
        try:
            failed = workload.check(inp, out)
        except Exception as exc:
            failed = [f"check-raised-{type(exc).__name__}"]
    outcome.record(elapsed, failed, where)
    return elapsed


def run_loop(workload, inputs, seconds, outcome):
    """Ops in input order, cycling, until `seconds` of wall time have passed."""
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        run_op(workload, inputs[k % len(inputs)], outcome, f"op {k}")
        k += 1


def trace_loop(workload, inputs, tracer, outcome):
    """TRACE_OPS ops, each untraced and then traced; returns both times."""
    untraced_s = traced_s = 0.0
    for k in range(workload.TRACE_OPS):
        inp = inputs[k % len(inputs)]
        untraced_s += run_op(workload, inp, outcome, f"op {k} untraced")
        tracer.request = k
        traced_s += run_op(workload, inp, outcome, f"op {k} traced", tracer)
    return untraced_s, traced_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans", help="file for the spans of a trace run")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    cold = isinstance(workload, workloads.UniversalCold)
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.request = "warm-up"
    if not cold:  # a cold ladder must start from empty tables
        with tracer or contextlib.nullcontext():
            workload.warm_up()
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "kernel": workloads.kernel_name(),
              "digest": workloads.digest(workload.describe(i) for i in inputs),
              "python": sys.version.split()[0]}
    outcome = Outcome()
    if args.mode != "setup" and cold:
        if tracer is not None:
            tracer.request = 0
        run_op(workload, inputs, outcome, "ladder", tracer)
        result["cold"] = workload.proof()
    elif args.mode == "run":
        run_loop(workload, inputs, args.seconds, outcome)
    elif args.mode == "trace":
        result["untraced_s"], result["traced_s"] = trace_loop(
            workload, inputs, tracer, outcome)
    result.update(outcome.to_json())
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["untraceable"] = sorted(tracer.missing)
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
