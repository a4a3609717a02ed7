"""The benchmark still runs on this library.

`perfbench/worker.py` imports wittlam from `src/` and calls its public
names: `sympoly.GLOBAL_CACHE.P` and `.Pcomp`, `universal_Pcomp(m, n,
bound=...)`, `lambda_op(i, f, bound=...)`, the structure builders and
checks.  Each workload runs for a fraction of a second in a child
interpreter, so a change that breaks one of those calls, or an op's
independent check, fails here.  The tracer in `perfbench/tracing.py`
finds the names it times by module and attribute path, and reads a name
it cannot find as 0; a library name it traces that goes missing fails
here too.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload",
                         ["universal-cold", "lambda-eval", "structures-series"])
def test_benchmark_workload_runs_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0",
         "--mode", "run", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1, result
    assert result["failed"] == 0, (result["failures"], result["examples"])


# Traced names the library no longer has: their per-layer metrics read 0
# until the benchmark drops them.
GONE = {"kernel.mul", "kernel.add_into", "kernel.mul_monomial",
        "kernel.scaled", "kernel.power", "sympoly.express_in_elementary",
        "sympoly.is_symmetric"}


def test_every_traced_name_resolves_in_the_library():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for mod, path, *_ in tracing.SPANS + tracing.COUNTS:
        try:
            owner, attr = tracing._resolve(
                importlib.import_module(f"wittlam.{mod}"), path)
            owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            unresolved.add(f"{mod}.{path}")
    assert unresolved <= GONE, sorted(unresolved - GONE)
