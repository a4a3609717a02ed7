"""Golden CLI battery: one structure of each carrier kind through
`validate` (text and --json), `axiom-check`, `lift` for n = 1..4, and
`dual iso` on equal and unequal multipliers, plus `lubin solve` over
Z, Q, Z[1/2], Z_(5) and Q[y1] and its root-of-unity refusal.  Each run's
stdout and exit code (and stderr) are replayed byte for byte from
tests/data/carrier_golden.json.

Regenerate the file (only when an output change is intended, and say so
in CHANGES.md) with

    PYTHONPATH=src python tests/test_carrier_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from wittlam.cli import main

GOLDEN = Path(__file__).parent / "data" / "carrier_golden.json"


def _structures():
    """The battery's structures, by name, as JSON."""
    from wittlam.ground import GroundRing
    from wittlam.structures import (Carrier, LambdaStructure,
                                    make_binomial_structure,
                                    make_dual_structure, make_series_structure,
                                    standard_structure)

    Z, Q = GroundRing.integers(), GroundRing.rationals()
    trunc4 = Carrier.trunc_poly(Z, 4)
    x, one = trunc4.domain.x(), trunc4.domain.one()
    structures = {
        "ground-Z": make_binomial_structure(Z),
        "ground-Q": make_binomial_structure(Q),
        "ground-dualZ": LambdaStructure(Carrier.ground(GroundRing.dual(Z)),
                                        (2, 3)),
        "dual-Z": make_dual_structure(Z, {2: 2, 3: 6, 5: 10, 7: 0}),
        "dual-Z-23": make_dual_structure(Z, {2: 2, 3: 6}),
        "dual-Z-other": make_dual_structure(Z, {2: 4, 3: 6, 5: 10, 7: 0}),
        "dual-Zhalf": make_dual_structure(GroundRing.localized([2]),
                                           {2: 1, 3: 3, 5: 5, 7: 7}),
        "trunc4-mult": make_series_structure(
            trunc4, {p: (x + one) ** p - one for p in (2, 3, 5, 7)}),
        "series6-mult": standard_structure("mult", trunc=6),
        "series6-mult-23": standard_structure("mult", trunc=6, primes=(2, 3)),
        "series6-power": standard_structure("power", trunc=6),
    }
    return {name: S.to_json() for name, S in structures.items()}


#: the element each structure's `lift` runs on
ELEMENTS = {
    "ground-Z": "7", "ground-Q": "1/2", "ground-dualZ": "2+eps",
    "dual-Z": "2+3*eps", "dual-Z-23": "3-eps", "dual-Zhalf": "1/2+eps",
    "trunc4-mult": "0,1,1", "series6-mult": "2,1,1",
    "series6-mult-23": "0,1", "series6-power": "0,1,-1",
}


#: the `lubin solve` runs as (f, g, c, ring, N); the last one refuses a
#: root of unity and exits 2
SOLVES = [
    ("0,2,1", "0,2,1", "3", "Z", "8"),
    ("0,2,1,1", "0,2", "1", "Q", "10"),
    ("0,2,1", "0,2", "1", "Z[1/2]", "8"),
    ("0,3,1", "0,3", "2", "Z_(5)", "8"),
    ("0,2,y1", "0,2", "1", "Q[y1]", "6"),
    ("0,1,1", "0,1", "1", "Q", "4"),
]


def _argvs():
    """Each run as an argv, with @name standing for a structure file."""
    runs = []
    for name, element in ELEMENTS.items():
        at = f"@{name}"
        runs.append(["validate", "--structure", at])
        runs.append(["validate", "--structure", at, "--json"])
        runs.append(["axiom-check", "--structure", at])
        for n in range(1, 5):
            runs.append(["lift", "--structure", at, "--element", element,
                         "-n", str(n)])
    runs.append(["dual", "iso", "--s1", "@dual-Z", "--s2", "@dual-Z"])
    runs.append(["dual", "iso", "--s1", "@dual-Z", "--s2", "@dual-Z-other"])
    for f, g, c, ring, N in SOLVES:
        runs.append(["lubin", "solve", "--f", f, "--g", g, "--c", c,
                     "--ring", ring, "-N", N])
    return runs


def _run(argv, files):
    """stdout, stderr and exit code of `wittlam argv`, with structure
    files substituted."""
    argv = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _write_structures(directory, structures):
    files = {}
    for name, data in structures.items():
        files[name] = Path(directory) / f"{name}.json"
        files[name].write_text(json.dumps(data))
    return files


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    return _write_structures(tmp_path_factory.mktemp("golden"),
                             _golden()["structures"])


def test_battery_structures_serialise_as_recorded():
    assert _structures() == _golden()["structures"]


def pytest_generate_tests(metafunc):
    if "entry" in metafunc.fixturenames:
        runs = _golden()["runs"]
        metafunc.parametrize("entry", runs,
                             ids=[" ".join(e["argv"]) for e in runs])


def test_carrier_golden(golden_files, entry):
    expect = entry["stdout"], entry["stderr"], entry["exit"]
    assert _run(entry["argv"], golden_files) == expect


if __name__ == "__main__":
    import tempfile

    structures = _structures()
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_structures(tmp, structures)
        runs = []
        for argv in _argvs():
            stdout, stderr, code = _run(argv, files)
            runs.append({"argv": argv, "stdout": stdout, "stderr": stderr,
                         "exit": code})
    GOLDEN.write_text(json.dumps({"structures": structures, "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
