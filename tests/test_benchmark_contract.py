"""The benchmark still runs on this library.

`perfbench/worker.py` imports wittlam from `src/` and calls its public
names: `sympoly.GLOBAL_CACHE.P` and `.Pcomp`, `universal_Pcomp(m, n,
bound=...)`, `lambda_op(i, f, bound=...)`, the structure builders and
checks.  Each workload runs for a fraction of a second in a child
interpreter, so a change that breaks one of those calls, or an op's
independent check, fails here.
"""

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
