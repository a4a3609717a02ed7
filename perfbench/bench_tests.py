"""The benchmark's own tests.

    python3 -m pytest -q perfbench/bench_tests.py

They check that the printed metric names are exactly those declared in
BENCHMARK.json, that a failing check is counted instead of crashing the
run, that a traced run restores every name it rebound, and that inputs and
per-layer counts are deterministic.  The file name keeps it out of the
library's own test collection.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    lines = bench("--workload", "structures-series", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.load_declared(trace)
    assert all(v["value"] == v["value"] for v in result["metrics"].values())
    assert any(line.startswith("error_rate 0.0 ratio") for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_forced_check_failure_is_counted_not_fatal(monkeypatch, tmp_path):
    workload = workloads.StructuresSeries()
    inputs = workload.inputs(0)[:2]
    real_check = workload.check
    calls = []

    def flaky_check(inp, out):
        calls.append(1)
        if len(calls) % 2:
            return ["forced"]
        return real_check(inp, out)

    def exploding_op(inp):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(workload, "check", flaky_check)
    outcome = worker.Outcome()
    for inp in inputs:
        worker.run_op(workload, inp, outcome, "test")
    monkeypatch.setattr(workload, "op", exploding_op)
    worker.run_op(workload, inputs[0], outcome, "test")
    res = outcome.to_json()
    assert res["attempted"] == 3 and res["failed"] == 2
    assert res["failures"] == {"forced": 1, "op-raised-ZeroDivisionError": 1}
    assert len(res["latencies_s"]) == 1

    # the driver turns the same counts into error_rate and correct = false
    fake = dict(res, setup_s=0.01, kernel="pure", digest="x", python="3",
                peak_rss_mb=1.0, timed_s=1.0)
    monkeypatch.setattr(run, "child", lambda *a, **k: dict(fake))
    monkeypatch.setattr(run, "OUT", tmp_path)
    lines, result = run.run_one("lambda-eval", 0, 1, 0, run.load_declared(0))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert any(line.startswith(f"error_rate {2 / 3!r}") for line in lines)
    assert any(line.startswith("failures ") for line in lines)


def _bindings():
    """Identity of every attribute of every wittlam module and class."""
    import wittlam  # noqa: F401

    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "wittlam" or name.startswith("wittlam.")):
            continue
        for attr, value in vars(mod).items():
            seen[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(name, attr, cattr)] = id(cvalue)
    return seen


def test_traced_run_restores_every_rebound_name():
    from wittlam import lambda_witt, series, sympoly

    before = _bindings()
    original_P = sympoly.universal_P
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert sympoly.universal_P is not original_P
            assert lambda_witt.universal_P is sympoly.universal_P
            assert series.TruncSeries.__rmul__ is series.TruncSeries.__mul__
            assert series.TruncSeries.__mul__.__wrapped__ is not None
            raise RuntimeError("abort the traced run")
    assert _bindings() == before
    assert sympoly.universal_P is original_P


def test_traced_name_missing_from_library_is_skipped(monkeypatch):
    gone = [("kernel_removed", "mul", "kernel", None),
            ("sympoly", "no_such_function", "sympoly.gone", None)]
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + gone)
    before = _bindings()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == {"kernel_removed.mul", "sympoly.no_such_function"}
    assert _bindings() == before


def test_same_seed_same_input_digest():
    for cls in (workloads.UniversalCold, workloads.LambdaEval,
                workloads.StructuresSeries):
        w = cls()
        first = workloads.digest(w.describe(i) for i in w.inputs(5))
        again = workloads.digest(w.describe(i) for i in cls().inputs(5))
        other = workloads.digest(w.describe(i) for i in w.inputs(6))
        assert first == again != other


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for k in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "structures-series",
             "--seed", "4", "--mode", "trace", "--spans", str(tmp_path / f"s{k}.json.gz")],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0
        counts.append({k: v for k, v in res["per_layer"].items()
                       if run.load_declared(1)[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["series.revert.calls"] == workloads.StructuresSeries.TRACE_OPS
    assert (tmp_path / "s0.json.gz").stat().st_size > 0
