"""CLI: dispatch, exit codes, JSON round trips, determinism."""

import json
import shlex
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wittlam
from wittlam.cli import main
from wittlam.ground import parse_ring
from wittlam.lambda_witt import (LambdaElem, WittVec, ghost, lambda_mul,
                                 lambda_op, witt_mul)
from wittlam.series import SeriesRing
from wittlam.structures import make_dual_structure, standard_structure
from wittlam.ground import GroundRing

Z = GroundRing.integers()


@pytest.fixture()
def mult_file(tmp_path):
    path = tmp_path / "mult.json"
    path.write_text(json.dumps(standard_structure("mult", trunc=8).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_witt_add(capsys):
    code, out, _ = run(capsys, "witt", "add", "--a", "1,0,0,0", "--b", "1,0,0,0",
                       "--ring", "Z")
    assert code == 0
    assert out == "2,1,-2,4"


def test_witt_ghost(capsys):
    code, out, _ = run(capsys, "witt", "ghost", "--a", "1,2,3", "--ring", "Z")
    assert code == 0
    assert out == "1,-3,10"
    code, out, _ = run(capsys, "witt", "ghost", "--a", "1,2,3", "--n", "2",
                       "--ring", "Z")
    assert out == "-3"


@pytest.mark.parametrize("ring, coords", [
    ("Z", "1,-2,3,0,5,-1,2,2,-3,1,0,4"),
    ("dual(Z)", "1 + eps,-2,3*eps,0,5 - 2*eps,-1,2,2 + eps,-3,1,-eps,4"),
])
def test_witt_ghost_vector_matches_each_ghost(capsys, ring, coords):
    code, out, _ = run(capsys, "witt", "ghost", "--a", coords, "--ring", ring)
    assert code == 0
    w = WittVec(parse_ring(ring), coords.split(","))
    assert w.trunc == 12
    assert out == ",".join(str(ghost(n, w)) for n in range(1, 13))
    singles = [run(capsys, "witt", "ghost", "--a", coords, "--ring", ring,
                   "--n", str(n))[1] for n in range(1, 13)]
    assert out == ",".join(singles)


def test_lambda_ops(capsys):
    code, out, _ = run(capsys, "lambda", "add", "--f", "2,0", "--g", "3,0")
    assert (code, out) == (0, "5,6")
    code, out, _ = run(capsys, "lambda", "mul", "--f", "2,0", "--g", "1,0")
    assert (code, out) == (0, "2,0")
    code, out, _ = run(capsys, "lambda", "op", "--i", "2", "--f", "3,1,4,1,5,9")
    assert code == 0
    assert out.startswith("1,")


def test_lambda_and_witt_over_truncated_polynomials(capsys):
    # each coefficient given on the command line is a constant of Z[x]/x^5
    R = SeriesRing(Z, 4)
    f = LambdaElem(R, [1, 2, 3], 3)
    g = LambdaElem(R, [2, 0, 1], 3)
    code, out, _ = run(capsys, "lambda", "mul", "--ring", "Z[x]/x^5",
                       "--f", "1,2,3", "--g", "2,0,1")
    assert (code, out) == (0, str(lambda_mul(f, g)))
    code, out, _ = run(capsys, "lambda", "op", "--ring", "Z[x]/x^5", "--i", "2",
                       "--f", "1,2,3,4")
    assert (code, out) == (0, str(lambda_op(2, LambdaElem(R, [1, 2, 3, 4], 4))))
    code, out, _ = run(capsys, "witt", "mul", "--ring", "Z[x]/x^5",
                       "--a", "1,2,3", "--b", "2,0,1")
    a, b = WittVec(R, [1, 2, 3], 3), WittVec(R, [2, 0, 1], 3)
    assert (code, out) == (0, str(witt_mul(a, b)))


@pytest.mark.parametrize("ring", ["Z[x]/x^0", "Z[x]/y^3", "Z[x]/x^"])
def test_bad_truncated_ring_is_a_usage_error(capsys, ring):
    code, out, err = run(capsys, "lambda", "mul", "--ring", ring,
                         "--f", "1,2", "--g", "1,2")
    assert (code, out) == (2, "")
    assert f"cannot parse ring {ring!r}" in err



@pytest.mark.parametrize("ring, why", [
    ("dual()", "unknown ring ''"),
    ("dual(foo)", "unknown ring 'foo'"),
    ("Z_(x)", "Z_(p) needs a prime p, not 'x'"),
    ("Z_()", "Z_(p) needs a prime p, not ''"),
    ("Z[1/x]", "bad localization entry '1/x'"),
    ("dual(Z_(x))", "Z_(p) needs a prime p, not 'x'"),
    ("Z[1/4]", "4 is not prime"),
    ("Z[x]/x^0", "the ideal must be x^k with k >= 1"),
    ("foo", None),
])
def test_bad_ring_name_errors_name_the_whole_input(capsys, ring, why):
    code, out, err = run(capsys, "lambda", "mul", "--ring", ring,
                         "--f", "1,2", "--g", "1,2")
    assert (code, out) == (2, "")
    expect = f"cannot parse ring {ring!r}" + (f": {why}" if why else "")
    assert err == f"error: {expect}"


@pytest.mark.parametrize("ring, why", [
    ("Q[1y]", "a variable of Q[1y] is not an identifier"),
    ("dual(Q[eps])", "a variable of Q[eps] clashes with the eps of dual(Q[eps])"),
    ("dual(Q[yeps])",
     "a variable of Q[yeps] clashes with the eps of dual(Q[yeps])"),
])
def test_polynomial_variables_the_text_forms_cannot_read_are_a_usage_error(
        capsys, ring, why):
    # Q[1y] could not read `--f 1y` back, and under dual(Q[eps]) the text
    # `eps` read as the dual eps, not the variable
    var = ring.removeprefix("dual(Q[").removeprefix("Q[").rstrip("])")
    code, out, err = run(capsys, "lambda", "mul", "--ring", ring,
                         "--f", f"{var},1", "--g", "1,2")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse ring {ring!r}: {why}"

def test_dual_numbers_over_a_truncation_are_a_usage_error(capsys):
    # x^3 is a valid ideal: the error names the base of the dual numbers
    code, out, err = run(capsys, "lambda", "mul", "--ring", "dual(Z[x]/x^3)",
                         "--f", "1,2", "--g", "1,2")
    assert (code, out) == (2, "")
    assert ("cannot parse ring 'dual(Z[x]/x^3)': dual numbers need a ground "
            "ring, not Z[x]/x^3") in err
    # a truncation over dual numbers is a series ring
    assert parse_ring("dual(Z)[x]/x^3") == SeriesRing(GroundRing.dual(Z), 2)


@pytest.mark.parametrize("argv", [
    ["dual", "make", "--a", "2=2"],
    ["family", "make", "--carrier", "trunc:3", "--a", "2=5"],
    ["lubin", "solve", "--f", "0,2", "--g", "0,2", "--c", "1"],
])
def test_structure_commands_need_a_ground_ring(capsys, argv):
    code, out, err = run(capsys, *argv, "--ring", "Z[x]/x^3")
    assert (code, out) == (2, "")
    assert f"{argv[0]} needs a ground ring, not Z[x]/x^3" in err


def test_exp_unexp_inverse(capsys):
    code, out, _ = run(capsys, "exp", "--a", "1,2,-3,0,1", "--ring", "Z")
    assert code == 0
    code, back, _ = run(capsys, "unexp", "--f", out, "--ring", "Z")
    assert (code, back) == (0, "1,2,-3,0,1")


def test_validate_and_exit_codes(capsys, tmp_path, mult_file):
    code, out, _ = run(capsys, "validate", "--structure", mult_file)
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    # a structure that fails frobenius exits 1
    from wittlam.structures import Carrier, make_series_structure

    carrier = Carrier.power_series(Z, 6)
    bad = make_series_structure(carrier, {2: carrier.domain.x()})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "validate", "--structure", str(path))
    assert code == 1
    assert "FAIL" in out


def _dual_ground_structures(base, primes):
    """A power-series structure psi^p = x^p over dual(base) at N = 3, and
    the ground structure (psi = id) on dual(base) itself."""
    from wittlam.structures import (Carrier, LambdaStructure,
                                    make_series_structure)

    ring = GroundRing.dual(base)
    carrier = Carrier.power_series(ring, 3)
    x = carrier.domain.x()
    series = make_series_structure(carrier, {p: x ** p for p in primes}, primes)
    return series, LambdaStructure(Carrier.ground(ring), primes)


def test_validate_checks_frobenius_on_the_ground_generators(capsys, tmp_path):
    # psi fixes eps, and eps^p - eps = -eps is not p-divisible in dual(Z):
    # no lambda-ring, which lift finds at lambda^2(eps)
    path = tmp_path / "dual.json"
    for S in _dual_ground_structures(Z, (2, 3)):
        path.write_text(json.dumps(S.to_json()))
        code, out, _ = run(capsys, "validate", "--structure", str(path))
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split("  [")[1] for line in fails] == [
            f"eps^{p} - eps is not {p}-divisible in dual(Z)]" for p in (2, 3)]
        element = "eps" if S.carrier.kind == "ground" else "eps,0,0,0"
        code, out, err = run(capsys, "lift", "--structure", str(path), "-n", "2",
                             "--element", element)
        assert code == 2 and "not a lambda-ring" in err
    # where every window prime is a unit of the base, eps passes
    for S in _dual_ground_structures(GroundRing.localized([2]), (2,)):
        path.write_text(json.dumps(S.to_json()))
        code, out, _ = run(capsys, "validate", "--structure", str(path))
        assert code == 0 and "FAIL" not in out


def test_validate_empty_window_is_a_usage_error(capsys, tmp_path):
    data = standard_structure("mult", trunc=4, primes=(2,)).to_json()
    data["primes"], data["adams"] = [], {}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert (code, out, err) == (2, "", "error: the prime window is empty")


@pytest.mark.parametrize("entry", [3.0, "3"], ids=["float", "string"])
def test_validate_non_int_window_entry_is_a_usage_error(capsys, tmp_path, entry):
    data = standard_structure("mult", trunc=4, primes=(2, 3)).to_json()
    data["primes"] = [2, entry]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert (code, out, err) == (2, "", f"error: window entry {entry!r} is not a prime")


def test_dual_make_repeated_window_prime_is_a_usage_error(capsys):
    code, out, err = run(capsys, "dual", "make", "--ring", "Z", "--a", "2=2,3=6",
                         "--primes", "2,2,3")
    assert (code, out, err) == (2, "", "error: window primes [2, 2, 3] repeat")


def test_validate_repeated_window_prime_is_a_usage_error(capsys, tmp_path):
    data = standard_structure("mult", trunc=4, primes=(2, 3)).to_json()
    data["primes"] = [2, 2, 3]
    path = tmp_path / "window.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert (code, out, err) == (2, "", "error: window primes [2, 2, 3] repeat")


def test_lift(capsys, mult_file):
    code, out, _ = run(capsys, "lift", "--structure", mult_file,
                       "--element", "0,1", "-n", "2")
    assert code == 0
    assert out == "0,-1,0,0,0,0,0,0,0"


def test_axiom_and_coalgebra_check(capsys, mult_file):
    code, out, _ = run(capsys, "axiom-check", "--structure", mult_file,
                       "--nmax", "2", "--bound", "2")
    assert code == 0
    code, out, _ = run(capsys, "coalgebra-check", "--structure", mult_file,
                       "-M", "2", "--samples", "0,1")
    assert code == 0


def test_axiom_check_default_degree_stays_in_a_one_prime_window(capsys,
                                                                 tmp_path):
    # the window (2) reaches psi^2 only, so the default nmax is 2, not 3
    path = tmp_path / "dual2.json"
    assert run(capsys, "dual", "make", "--ring", "Z", "--a", "2=2",
               "-o", str(path))[0] == 0
    code, out, err = run(capsys, "axiom-check", "--structure", str(path))
    assert (code, err) == (0, "")
    assert "pass  lambda^n(1) = 0 for 1 < n <= 2" in out.splitlines()
    assert "FAIL" not in out and "lambda^3" not in out


def test_axiom_check_refuses_a_window_without_2(capsys, tmp_path):
    # on the window (3) no default check reaches past lambda^1 = id
    path = tmp_path / "dual3.json"
    assert run(capsys, "dual", "make", "--ring", "Z", "--a", "3=3",
               "--primes", "3", "-o", str(path))[0] == 0
    expect = (2, "", "error: psi^2 needs primes [2] outside window [3]")
    assert run(capsys, "axiom-check", "--structure", str(path)) == expect
    assert run(capsys, "axiom-check", "--structure", str(path),
               "--nmax", "2") == expect


def test_axiom_check_sees_adams_series_that_do_not_commute(capsys, tmp_path):
    # mult at N = 8 on the window (2, 3), with 3 added to the x^8
    # coefficient of psi^3: Frobenius holds, but psi^2 psi^3 != psi^3 psi^2
    # first in a degree that no axiom up to lambda^4 reaches
    S = standard_structure("mult", trunc=8, primes=(2, 3))
    data = S.to_json()
    data["adams"]["3"][8] = str(int(data["adams"]["3"][8]) + 3)
    path = tmp_path / "bent.json"
    path.write_text(json.dumps(data))
    fail = "FAIL  psi^2 and psi^3 commute"
    code, out, _ = run(capsys, "validate", "--structure", str(path))
    assert code == 1 and fail in out.splitlines()
    assert run(capsys, "universal", "roundtrip", "--structure",
               str(path))[0] == 2
    code, out, err = run(capsys, "axiom-check", "--structure", str(path))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [fail]
    # the unbent structure passes the same line
    path.write_text(json.dumps(S.to_json()))
    code, out, _ = run(capsys, "axiom-check", "--structure", str(path))
    assert code == 0 and "pass  psi^2 and psi^3 commute" in out.splitlines()


def test_dual_make_and_iso(capsys, tmp_path):
    code, out, _ = run(capsys, "dual", "make", "--ring", "Z", "--a", "2=2,3=6")
    assert code == 0
    s1 = tmp_path / "s1.json"
    s1.write_text(out)
    s2 = tmp_path / "s2.json"
    s2.write_text(json.dumps(make_dual_structure(Z, {2: 2, 3: 6}).to_json()))
    code, out, _ = run(capsys, "dual", "iso", "--s1", str(s1), "--s2", str(s2))
    assert (code, out) == (0, "isomorphic")
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps(make_dual_structure(Z, {2: 4, 3: 6}).to_json()))
    code, out, _ = run(capsys, "dual", "iso", "--s1", str(s1), "--s2", str(s3))
    assert (code, out) == (1, "not isomorphic")


def test_dual_make_rejects_bad_multiplier(capsys):
    code, _, err = run(capsys, "dual", "make", "--ring", "Z", "--a", "2=3")
    assert code == 2
    assert "divisible" in err


def test_family_make(capsys):
    code, out, _ = run(capsys, "family", "make", "--ring", "Q",
                       "--carrier", "trunc:3", "--a", "2=5,3=7")
    assert code == 0
    data = json.loads(out)
    assert data["carrier"]["kind"] == "trunc_poly"


def test_universal_commands(capsys, tmp_path, mult_file):
    code, out, _ = run(capsys, "universal", "to-hom", "--structure", mult_file)
    assert code == 0
    data = json.loads(out)
    v21 = [v for v in data["values"]
           if (v["p"], v["i"], v["tail"]) == (2, 1, [])]
    assert v21[0]["value"] == "1"
    hom_file = tmp_path / "hom.json"
    hom_file.write_text(out)
    code, out2, _ = run(capsys, "universal", "from-hom",
                        "--assignment", str(hom_file))
    assert code == 0
    assert json.loads(out2) == json.loads(open(mult_file).read())
    code, out3, _ = run(capsys, "universal", "roundtrip",
                        "--structure", mult_file)
    assert (code, out3) == (0, "roundtrip ok")
    code, out4, _ = run(capsys, "universal", "relations",
                        "--structure", mult_file)
    assert code == 0
    assert "all zero" in out4


def test_lubin_solve(capsys):
    code, out, _ = run(capsys, "lubin", "solve", "--f", "0,2,1", "--g", "0,2,1",
                       "--c", "3", "--ring", "Z", "-N", "4")
    assert (code, out) == (0, "0,3,3,1,0")


# -- golden outputs of the arithmetic commands ---------------------------------

# Two coordinate lists per ring; the Z[x]/x^3 coordinates are constants, and
# each of its result coordinates prints as its three x-coefficients.
ARITH_OPERANDS = {
    "Z": ("1,-2,3,0,2,-1", "2,1,0,-1,1,3"),
    "Z[1/2]": ("1/2,-2,3/4,0,1,-1/8", "2,1/2,0,-1,1/4,3"),
    "Z_(5)": ("1/2,-2,3,1/3,0,-1", "2,1/7,0,-1,4,1/2"),
    "Q": ("1/3,-2,5/2,0,1,-1/5", "2,1/2,0,-3/7,1,3"),
    "Q[y1]": ("y1,1,0,1/2,-y1,2", "1,-y1,2,0,1/3,1"),
    "dual(Z)": ("1 + eps,-2,3*eps,0,2 - eps,1", "2,1 - eps,0,eps,-1,3"),
    "Z[x]/x^3": ("1,-2,3,0,2,-1", "2,1,0,-1,1,3"),
}

ARITH_ARGV = {
    "witt add": ["witt", "add", "--a", "{a}", "--b", "{b}"],
    "witt mul": ["witt", "mul", "--a", "{a}", "--b", "{b}"],
    "witt ghost": ["witt", "ghost", "--a", "{a}"],
    "lambda add": ["lambda", "add", "--f", "{a}", "--g", "{b}"],
    "lambda mul": ["lambda", "mul", "--f", "{a}", "--g", "{b}"],
    "lambda op": ["lambda", "op", "--i", "2", "--f", "{a}"],
    "exp": ["exp", "--a", "{a}"],
    "unexp": ["unexp", "--f", "{a}"],
}

GOLDEN_ARITH = {
    ("witt add", "Z"):
        "3,1,-3,13,-39,110",
    ("witt mul", "Z"):
        "2,-3,24,-41,75,-59",
    ("witt ghost", "Z"):
        "1,5,10,9,11,50",
    ("lambda add", "Z"):
        "3,1,0,3,5,9",
    ("lambda mul", "Z"):
        "2,-3,2,-19,192,214",
    ("lambda op", "Z"):
        "-2,3,6",
    ("exp", "Z"):
        "1,-2,1,3,-4,-5",
    ("unexp", "Z"):
        "1,-2,5,-5,17,-18",
    ("witt add", "Z[1/2]"):
        "5/2,-1/2,-7/4,11/4,-95/8,505/16",
    ("witt mul", "Z[1/2]"):
        "1,-47/8,6,-381/16,4257/128,-7033/128",
    ("witt ghost", "Z[1/2]"):
        "1/2,17/4,19/8,129/16,161/32,1181/64",
    ("lambda add", "Z[1/2]"):
        "5/2,-1/2,-3,-1/2,9/8,7",
    ("lambda mul", "Z[1/2]"):
        "1,-47/8,11/4,-10,7399/128,10481/128",
    ("lambda op", "Z[1/2]"):
        "-2,3/8,-1/16",
    ("exp", "Z[1/2]"):
        "1/2,-2,-1/4,3/8,-1/2,-3/8",
    ("unexp", "Z[1/2]"):
        "1/2,-2,7/4,-7/8,79/16,-83/32",
    ("witt add", "Z_(5)"):
        "5/2,-6/7,1/2,289/84,-73/8,17789/784",
    ("witt mul", "Z_(5)"):
        "1,-207/28,24,-14435/2352,1/8,-3311561/43904",
    ("witt ghost", "Z_(5)"):
        "1/2,17/4,73/8,323/48,1/32,3137/64",
    ("lambda add", "Z_(5)"):
        "5/2,-6/7,-13/14,106/21,193/42,149/42",
    ("lambda mul", "Z_(5)"):
        "1,-207/28,148/7,-7265/784,294451/1176,-95843387/131712",
    ("lambda op", "Z_(5)"):
        "-2,7/6,113/12",
    ("exp", "Z_(5)"):
        "1/2,-2,2,11/6,-35/6,-14/3",
    ("unexp", "Z_(5)"):
        "1/2,-2,4,-5/3,53/6,-19/4",
    ("witt add", "Q"):
        "7/3,-5/6,17/18,227/189,-440/81,16912/1215",
    ("witt mul", "Q"):
        "2/3,-107/18,20,-3547/189,8992/243,-159257/38880",
    ("witt ghost", "Q"):
        "1/3,37/9,407/54,649/81,1216/243,524171/14580",
    ("lambda add", "Q"):
        "7/3,-5/6,-4/3,25/7,87/28,629/105",
    ("lambda mul", "Q"):
        "2/3,-107/18,71/6,-2263/756,38819/486,12157237/272160",
    ("lambda op", "Q"):
        "-2,5/6,343/60",
    ("exp", "Q"):
        "1/3,-2,11/6,5/6,-4,-23/15",
    ("unexp", "Q"):
        "1/3,-2,19/6,-19/18,415/54,-2237/810",
    ("witt add", "Q[y1]"):
        "y1 + 1,1,-y1^2 - y1 + 2,y1^3 + y1^2 + y1 + 1/2,"
        "-y1^4 - 2*y1^3 - 2*y1^2 - 2*y1 + 1/3,"
        "y1^5 + 3*y1^4 + 4*y1^3 + y1^2 - y1 + 3",
    ("witt mul", "Q[y1]"):
        "y1,-y1^3 + 2*y1 + 1,2*y1^3,-2*y1^4 - y1^3 + 2*y1^2 + 2*y1 + 1/2,"
        "1/3*y1^5 - 8/3*y1,"
        "-2*y1^7 + 4*y1^5 + 4*y1^4 + 3*y1^3 - 4*y1^2 - 2*y1 + 16",
    ("witt ghost", "Q[y1]"):
        "y1,y1^2 - 2,y1^3,y1^4,y1^5 - 5*y1,y1^6 - 14",
    ("lambda add", "Q[y1]"):
        "y1 + 1,1,-y1^2 + 3,y1 + 1/2,-y1 + 17/6,-7/6*y1 + 3",
    ("lambda mul", "Q[y1]"):
        "y1,-y1^3 + 2*y1 + 1,2*y1^3 - y1^2 - 6*y1,4*y1^2 + 2*y1 + 1/2,"
        "1/3*y1^5 - 49/6*y1^3 - 45/2*y1^2 - 77/6*y1,"
        "y1^6 + 2*y1^5 - 5/3*y1^4 + 23*y1^3 + 116/3*y1^2 + 56*y1 + 116/3",
    ("lambda op", "Q[y1]"):
        "1,-1/2,3/2*y1^2 + 1",
    ("exp", "Q[y1]"):
        "y1,1,y1,1/2,-1/2*y1,-y1^2 + 5/2",
    ("unexp", "Q[y1]"):
        "y1,1,-y1,y1^2 + 1/2,-y1^3 - 1/2*y1,y1^4 + 1/2*y1^2 + 3/2",
    ("witt add", "dual(Z)"):
        "3 + 1*eps,1 + 1*eps,-6 - 5*eps,14 + 29*eps,-41 - 81*eps,130 + 270*eps",
    ("witt mul", "dual(Z)"):
        "2 + 2*eps,-3 - 3*eps,0 + 24*eps,-32 + 25*eps,53 - 32*eps,-61 + 36*eps",
    ("witt ghost", "dual(Z)"):
        "1 + 1*eps,5 + 2*eps,1 + 12*eps,9 + 4*eps,11,11 + 6*eps",
    ("lambda add", "dual(Z)"):
        "3 + 1*eps,1 + 1*eps,-3 + 3*eps,-2 + 9*eps,1 + 3*eps,7 - 5*eps",
    ("lambda mul", "dual(Z)"):
        "2 + 2*eps,-3 - 3*eps,-4 + 6*eps,4 + 15*eps,-37 - 117*eps,279 + 888*eps",
    ("lambda op", "dual(Z)"):
        "-2,0 + 3*eps,-1 - 1*eps",
    ("exp", "dual(Z)"):
        "1 + 1*eps,-2,-2 + 1*eps,0 + 3*eps,2 - 7*eps,3 - 5*eps",
    ("unexp", "dual(Z)"):
        "1 + 1*eps,-2,2 + 5*eps,-2 - 7*eps,8 + 18*eps,-7 - 26*eps",
    ("witt add", "Z[x]/x^3"):
        "3,0,0,1,0,0,-3,0,0,13,0,0,-39,0,0,110,0,0",
    ("witt mul", "Z[x]/x^3"):
        "2,0,0,-3,0,0,24,0,0,-41,0,0,75,0,0,-59,0,0",
    ("witt ghost", "Z[x]/x^3"):
        "1,0,0,5,0,0,10,0,0,9,0,0,11,0,0,50,0,0",
    ("lambda add", "Z[x]/x^3"):
        "3,0,0,1,0,0,0,0,0,3,0,0,5,0,0,9,0,0",
    ("lambda mul", "Z[x]/x^3"):
        "2,0,0,-3,0,0,2,0,0,-19,0,0,192,0,0,214,0,0",
    ("lambda op", "Z[x]/x^3"):
        "-2,0,0,3,0,0,6,0,0",
    ("exp", "Z[x]/x^3"):
        "1,0,0,-2,0,0,1,0,0,3,0,0,-4,0,0,-5,0,0",
    ("unexp", "Z[x]/x^3"):
        "1,0,0,-2,0,0,5,0,0,-5,0,0,17,0,0,-18,0,0",
}


@pytest.mark.parametrize("command, ring", list(GOLDEN_ARITH),
                         ids=[f"{c} {r}" for c, r in GOLDEN_ARITH])
def test_arithmetic_command_golden_output(capsys, command, ring):
    a, b = ARITH_OPERANDS[ring]
    argv = [x.format(a=a, b=b) for x in ARITH_ARGV[command]] + ["--ring", ring]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, GOLDEN_ARITH[command, ring] + "\n", "")



# -- golden outputs of the check commands ----------------------------------
#
# The exact stdout and exit code of each check command, pinned so that the
# report text cannot drift.

GOLDEN_VALIDATE_MULT = """\
pass  psi^2(0) = 0
pass  frobenius psi^2 == x^2 mod 2
pass  psi^3(0) = 0
pass  frobenius psi^3 == x^3 mod 3
pass  psi^5(0) = 0
pass  frobenius psi^5 == x^5 mod 5
pass  psi^7(0) = 0
pass  frobenius psi^7 == x^7 mod 7
pass  psi^2 and psi^3 commute
pass  psi^2 and psi^5 commute
pass  psi^2 and psi^7 commute
pass  psi^3 and psi^5 commute
pass  psi^3 and psi^7 commute
pass  psi^5 and psi^7 commute
"""

GOLDEN_VALIDATE_BAD = """\
pass  psi^2(0) = 0
FAIL  frobenius psi^2 == x^2 mod 2
"""

GOLDEN_AXIOM_MULT = """\
pass  lambda^0(r) = 1
pass  lambda^1(r) = r
pass  lambda^n(1) = 0 for 1 < n <= 2
pass  additivity lambda^1(r+s) at (0,1,0,0,0,0,0,0,0; 0,1,0,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,1,0,0,0,0,0,0,0; 0,1,0,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,1,0,0,0,0,0,0,0; 0,1,0,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,1,0,0,0,0,0,0,0; 0,1,0,0,0,0,0,0,0)
pass  additivity lambda^1(r+s) at (0,1,0,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,1,0,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,1,0,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,1,0,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  additivity lambda^1(r+s) at (0,1,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,1,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,1,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,1,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  additivity lambda^1(r+s) at (0,1,1,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,1,1,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,1,1,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,1,1,0,0,0,0,0,0; 0,1,1,0,0,0,0,0,0)
pass  additivity lambda^1(r+s) at (0,1,1,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,1,1,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,1,1,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,1,1,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  additivity lambda^1(r+s) at (0,2,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  additivity lambda^2(r+s) at (0,2,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^1(rs) at (0,2,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  product lambda^2(rs) at (0,2,0,0,0,0,0,0,0; 0,2,0,0,0,0,0,0,0)
pass  composition lambda^1(lambda^2(r)) at 0,1,0,0,0,0,0,0,0
pass  composition lambda^2(lambda^1(r)) at 0,1,0,0,0,0,0,0,0
pass  composition lambda^1(lambda^2(r)) at 0,1,1,0,0,0,0,0,0
pass  composition lambda^2(lambda^1(r)) at 0,1,1,0,0,0,0,0,0
pass  composition lambda^1(lambda^2(r)) at 0,2,0,0,0,0,0,0,0
pass  composition lambda^2(lambda^1(r)) at 0,2,0,0,0,0,0,0,0
pass  filtration closure at 0,1,0,0,0,0,0,0,0
pass  filtration closure at 0,1,1,0,0,0,0,0,0
pass  filtration closure at 0,2,0,0,0,0,0,0,0
pass  psi^2 and psi^3 commute
pass  psi^2 and psi^5 commute
pass  psi^2 and psi^7 commute
pass  psi^3 and psi^5 commute
pass  psi^3 and psi^7 commute
pass  psi^5 and psi^7 commute
"""

GOLDEN_COALGEBRA_MULT = """\
pass  counit eta(lambda_t(a)) = a  at 0,0,0,0,0,0,0,0,0
pass  coassociativity at outer degree 1  at 0,0,0,0,0,0,0,0,0
pass  coassociativity at outer degree 2  at 0,0,0,0,0,0,0,0,0
pass  counit eta(lambda_t(a)) = a  at 1,0,0,0,0,0,0,0,0
pass  coassociativity at outer degree 1  at 1,0,0,0,0,0,0,0,0
pass  coassociativity at outer degree 2  at 1,0,0,0,0,0,0,0,0
"""

GOLDEN_HASSE_PROPAGATES = """\
pass  phi commutes with psi^2 (checked prime)
pass  phi commutes with psi^3
pass  phi commutes with psi^5
pass  phi commutes with psi^7
commutation at p0=2 propagated to all window primes
"""

GOLDEN_HASSE_NOT_A_MAP = """\
FAIL  phi commutes with psi^2 (checked prime)
FAIL  phi commutes with psi^3
FAIL  phi commutes with psi^5
FAIL  phi commutes with psi^7
not a lambda-map: fails at p0=2
"""

GOLDEN_HASSE_HYPOTHESIS = """\
hypothesis violated: p=2: linear coefficient is 0
hypothesis violated: p=3: linear coefficient is 0
hypothesis violated: p=5: linear coefficient is 0
hypothesis violated: p=7: linear coefficient is 0
"""


def _structure_file(tmp_path, name, S):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(S.to_json()))
    return str(path)


@pytest.fixture()
def check_files(tmp_path, mult_file):
    """Structure files and the conjugating series for the golden runs."""
    from wittlam.lubin import conjugate_structure, random_unit_series
    from wittlam.structures import Carrier, make_series_structure

    carrier = Carrier.power_series(Z, 6)
    bad = make_series_structure(carrier, {2: carrier.domain.x()})
    phi = random_unit_series(Z, 8, seed=3)
    conj = conjugate_structure(standard_structure("mult", trunc=8), phi)
    return {
        "mult": mult_file,
        "bad": _structure_file(tmp_path, "bad", bad),
        "conj": _structure_file(tmp_path, "conj", conj),
        "power": _structure_file(tmp_path, "power",
                                 standard_structure("power", trunc=8)),
        "phi": ",".join(phi.coeff_strings()),
    }


def _check_argv(files, case):
    return {
        "validate-mult": ["validate", "--structure", files["mult"]],
        "validate-bad": ["validate", "--structure", files["bad"]],
        "axiom-mult": ["axiom-check", "--structure", files["mult"],
                       "--nmax", "2", "--bound", "2"],
        "coalgebra-mult": ["coalgebra-check", "--structure", files["mult"],
                           "-M", "2", "--samples", "0,1"],
        "hasse-propagates": ["hasse", "check", "--s1", files["mult"],
                             "--s2", files["conj"], "--phi", files["phi"],
                             "--prime", "2"],
        "hasse-not-a-map": ["hasse", "check", "--s1", files["mult"],
                            "--s2", files["mult"], "--phi", "0,1,1",
                            "--prime", "2"],
        "hasse-hypothesis": ["hasse", "check", "--s1", files["power"],
                             "--s2", files["power"], "--phi", "0,1",
                             "--prime", "2"],
    }[case]


GOLDEN_CHECKS = [
    ("validate-mult", 0, GOLDEN_VALIDATE_MULT),
    ("validate-bad", 1, GOLDEN_VALIDATE_BAD),
    ("axiom-mult", 0, GOLDEN_AXIOM_MULT),
    ("coalgebra-mult", 0, GOLDEN_COALGEBRA_MULT),
    ("hasse-propagates", 0, GOLDEN_HASSE_PROPAGATES),
    ("hasse-not-a-map", 1, GOLDEN_HASSE_NOT_A_MAP),
    ("hasse-hypothesis", 1, GOLDEN_HASSE_HYPOTHESIS),
]


@pytest.mark.parametrize("case, exit_code, golden", GOLDEN_CHECKS,
                         ids=[c[0] for c in GOLDEN_CHECKS])
def test_check_command_golden_output(capsys, check_files, case, exit_code,
                                     golden):
    assert main(_check_argv(check_files, case)) == exit_code
    out = capsys.readouterr()
    assert (out.out, out.err) == (golden, "")


@pytest.mark.parametrize("case, exit_code, golden", GOLDEN_CHECKS,
                         ids=[c[0] for c in GOLDEN_CHECKS])
def test_check_command_json(capsys, check_files, case, exit_code, golden):
    assert main(_check_argv(check_files, case) + ["--json"]) == exit_code
    out = capsys.readouterr().out
    data = json.loads(out)
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert sorted(data) == ["checks", "notes", "passed"]
    assert data["passed"] is (exit_code == 0)
    # the same checks and notes as the text report, in the same order
    lines = golden.splitlines()
    checks = [line for line in lines if line[:6] in ("pass  ", "FAIL  ")]
    assert [f"{'pass' if c['passed'] else 'FAIL'}  {c['name']}"
            + (f"  [{c['detail']}]" if c["detail"] else "")
            for c in data["checks"]] == checks
    assert data["notes"] == [line for line in lines if line not in checks]


def test_hasse_check(capsys, tmp_path, mult_file):
    from wittlam.lubin import conjugate_structure, random_unit_series

    base = standard_structure("mult", trunc=8)
    phi = random_unit_series(Z, 8, seed=3)
    s2 = tmp_path / "s2.json"
    s2.write_text(json.dumps(conjugate_structure(base, phi).to_json()))
    code, out, _ = run(capsys, "hasse", "check", "--s1", mult_file,
                       "--s2", str(s2), "--phi", ",".join(phi.coeff_strings()),
                       "--prime", "2")
    assert code == 0
    assert "propagated" in out


def test_json_reemission_identical(capsys, mult_file):
    code, out1, _ = run(capsys, "universal", "to-hom", "--structure", mult_file)
    code, out2, _ = run(capsys, "universal", "to-hom", "--structure", mult_file)
    assert out1 == out2


def test_output_file(capsys, tmp_path, mult_file):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "witt", "add", "--a", "1,0", "--b", "0,1",
                       "--ring", "Z", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip() == "1,1"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "witt", "add", "--a", "1,0")  # missing --b
    assert code == 2
    code, _, err = run(capsys, "witt", "add", "--a", "1,0", "--b", "1,0",
                       "--ring", "bogus")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


TEXT_ONLY_COMMANDS = {
    "witt ghost": ["witt", "ghost", "--a", "1,2"],
    "lift": ["lift", "--structure", "{mult}", "--element", "0,1", "-n", "2"],
    "dual iso": ["dual", "iso", "--s1", "{dual}", "--s2", "{dual}"],
    "universal relations": ["universal", "relations", "--structure", "{mult}"],
    "universal roundtrip": ["universal", "roundtrip", "--structure", "{mult}"],
    "lubin solve": ["lubin", "solve", "--f", "0,2,1", "--g", "0,2,1", "--c", "3"],
}


@pytest.mark.parametrize("command", list(TEXT_ONLY_COMMANDS))
def test_json_is_a_usage_error_on_text_only_commands(capsys, tmp_path, mult_file,
                                                     command):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps(make_dual_structure(Z, {2: 2}).to_json()))
    argv = [a.format(mult=mult_file, dual=dual) for a in TEXT_ONLY_COMMANDS[command]]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--suites", "5", "--seed", "0")
    assert code == 0
    assert "suite 5" in out and out.count("PASS") == 1
    assert "seed=0" in out


def test_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "witt", "add", "--a", "1,2", "--b", "1/0,0")
    assert (code, out) == (2, "")
    assert "bad scalar '1/0'" in err
    code, _, err = run(capsys, "lubin", "solve", "--f", "0,2,1", "--g", "0,2,1",
                       "--c", "1/0")
    assert code == 2 and "bad scalar" in err


def test_unknown_suite_number_is_a_usage_error(capsys):
    code, out, err = run(capsys, "selftest", "--suites", "9")
    assert (code, out) == (2, "")
    assert "unknown suite" in err


def test_truncation_zero_and_negative_are_usage_errors(capsys):
    code, out, err = run(capsys, "lambda", "mul", "--f", "2,0", "--g", "1,0",
                         "-N", "0")
    assert (code, out) == (2, "")
    assert "N=0" in err
    code, out, err = run(capsys, "lambda", "op", "--i", "2", "--f", "3,1,4,1",
                         "-N", "-3")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "lubin", "solve", "--f", "0,2,1", "--g", "0,2,1",
                       "--c", "3", "-N", "-1")
    assert (code, out) == (2, "")
    # an explicit -N is honoured, not treated as unset
    code, out, _ = run(capsys, "witt", "add", "--a", "1,0", "--b", "1,0",
                       "-N", "1")
    assert (code, out) == (0, "2")


@pytest.mark.parametrize("coeff, message", [
    ("z", "unknown variable 'z' in 'z' (variables: y1)"),
    ("y1^x", "bad exponent 'x' in 'y1^x' (variables: y1)"),
    ("2*y1^-1", "bad exponent '-1' in '2*y1^-1' (variables: y1)"),
    ("y1^", "bad exponent '' in 'y1^' (variables: y1)"),
])
def test_bad_polynomial_text_is_a_usage_error(capsys, coeff, message):
    code, out, err = run(capsys, "witt", "add", "--ring", "Q[y1]",
                         f"--a={coeff},0", "--b", "1,0")
    assert (code, out) == (2, "")
    assert err == f"error: {message}"


def test_repeated_polynomial_variables_are_a_usage_error(capsys):
    code, out, err = run(capsys, "witt", "add", "--ring", "Q[y1,y1]", "-N", "2",
                         "--a", "y1,0", "--b", "1,0")
    assert (code, out) == (2, "")
    assert "repeated variable in Q[y1,y1]" in err


@pytest.mark.parametrize("unspaced, spaced, expect", [
    ("1+eps", "1 + eps", "2 + 1*eps,1 + 1*eps"),
    ("2-3*eps", "2 - 3*eps", "3 - 3*eps,2 - 3*eps"),
    ("1/2+eps", "1/2 + eps", "3/2 + 1*eps,1/2 + 1*eps"),
    ("-eps", "0 - eps", "1 - 1*eps,0 - 1*eps"),
])
def test_dual_scalars_without_spaces(capsys, unspaced, spaced, expect):
    outs = []
    for text in (unspaced, spaced):
        code, out, _ = run(capsys, "witt", "add", "--ring", "dual(Z[1/2])", "-N", "2",
                           f"--a={text},0", "--b", "1,0")
        assert code == 0
        outs.append(out)
    assert outs == [expect, expect]


def test_dual_scalar_with_text_after_eps_is_a_usage_error(capsys):
    code, out, err = run(capsys, "witt", "add", "--ring", "dual(Z)", "-N", "2",
                         "--a", "1 + eps + 5,0", "--b", "1,0")
    assert (code, out) == (2, "")
    assert "bad scalar" in err


def test_unexp_at_N_100_round_trips_through_exp(capsys):
    ones = ",".join(["1"] * 100)
    code, witt, _ = run(capsys, "unexp", "--ring", "Z", "-N", "100", "--f", ones)
    assert code == 0 and len(witt.split(",")) == 100
    code, back, _ = run(capsys, "exp", "--ring", "Z", "-N", "100", f"--a={witt}")
    assert (code, back) == (0, ones)


@pytest.fixture()
def mult6_file(tmp_path):
    path = tmp_path / "mult6.json"
    S = standard_structure("mult", trunc=6, primes=(2, 3))
    path.write_text(json.dumps(S.to_json()))
    return str(path)


def test_universal_to_hom_golden(capsys, mult6_file):
    # pins the order and format of the derived assignment JSON
    golden = Path(__file__).parent / "data" / "universal_to_hom_mult_N6_depth1.txt"
    assert main(["universal", "to-hom", "--structure", mult6_file,
                 "--depth", "1"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def _extra_tail(data):
    data["values"].append({"p": 2, "i": 1, "tail": [5], "value": "0"})


def _extra_slot(data):
    data["values"].append({"p": 2, "i": 7, "tail": [], "value": "0"})


def _extra_prime(data):
    data["values"].append({"p": 5, "i": 1, "tail": [], "value": "0"})


def _no_tails(data):
    data["values"] = [v for v in data["values"] if not v["tail"]]


def _negative_depth(data):
    _no_tails(data)
    data["depth"] = -1


def _composite_prime(data):
    data["primes"] = [2, 4]


def _duplicate_entry(data):
    data["values"].append(dict(data["values"][0]))


def _missing_field(data):
    del data["values"][3]["tail"]


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_extra_tail, "v(2,1,5) is outside the window", id="tail-prime"),
    pytest.param(_extra_slot, "v(2,7) is outside the window", id="i-above-N"),
    pytest.param(_extra_prime, "v(5,1) is outside the window", id="p-outside"),
    pytest.param(_no_tails, "no value for v(2,1,2)", id="tails-deleted"),
    pytest.param(_negative_depth, "depth must be an integer >= 0",
                 id="negative-depth"),
    pytest.param(_composite_prime, "window entry 4 is not a prime",
                 id="composite-prime"),
    pytest.param(_duplicate_entry, "two values for v(2,1)", id="duplicate"),
    pytest.param(_missing_field, "malformed assignment", id="missing-field"),
])
def test_from_hom_rejects_assignment_outside_window(capsys, tmp_path,
                                                    mult6_file, corrupt,
                                                    message):
    code, out, _ = run(capsys, "universal", "to-hom", "--structure",
                       mult6_file, "--depth", "1")
    assert code == 0
    data = json.loads(out)
    corrupt(data)
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(data))
    for op in ("from-hom", "relations"):
        code, out, err = run(capsys, "universal", op, "--assignment", str(path))
        assert (code, out) == (2, "")
        assert message in err


def test_from_hom_with_a_huge_window_prime_ends_quickly(capsys, tmp_path,
                                                      mult6_file):
    # primality of 10^18 + 3 is decided without trial division, so the
    # window check moves on to the values of prime 3, outside this window
    code, out, _ = run(capsys, "universal", "to-hom", "--structure",
                       mult6_file, "--depth", "1")
    assert code == 0
    data = json.loads(out)
    data["primes"] = [2, 1000000000000000003]
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=str(Path(wittlam.__file__).parents[1]))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "wittlam.cli", "universal", "from-hom",
         "--assignment", str(path)],
        capture_output=True, text=True, env=env, timeout=10)
    elapsed = time.perf_counter() - t0
    assert (done.returncode, done.stdout) == (2, "")
    assert "v(3,1) is outside the window" in done.stderr
    assert elapsed < 5


@pytest.mark.parametrize("op", ["to-hom", "relations", "roundtrip"])
def test_universal_negative_depth_is_a_usage_error(capsys, mult6_file, op):
    code, out, err = run(capsys, "universal", op, "--structure", mult6_file,
                         "--depth", "-1")
    assert (code, out) == (2, "")
    assert "depth must be an integer >= 0, got -1" in err


@pytest.mark.parametrize("sources, message", [
    pytest.param((), "one of the arguments --structure --assignment is "
                 "required", id="neither"),
    pytest.param(("--structure", "--assignment"), "argument --assignment: "
                 "not allowed with argument --structure", id="both"),
])
def test_universal_relations_needs_exactly_one_source(capsys, mult6_file,
                                                      sources, message):
    argv = ["universal", "relations"]
    for flag in sources:
        argv += [flag, mult6_file]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_universal_relations_depth_applies_to_a_structure(capsys, mult6_file):
    code, out, _ = run(capsys, "universal", "relations", "--structure", mult6_file)
    assert code == 0 and out.endswith("(depth <= 2)")
    code, out, _ = run(capsys, "universal", "relations", "--structure", mult6_file,
                       "--depth", "0")
    assert code == 0 and out.endswith("(depth <= 0)")


def test_universal_relations_depth_with_an_assignment_is_a_usage_error(
        capsys, tmp_path, mult6_file):
    code, out, _ = run(capsys, "universal", "to-hom", "--structure", mult6_file)
    assert code == 0
    path = tmp_path / "hom.json"
    path.write_text(out)
    code, out, _ = run(capsys, "universal", "relations", "--assignment", str(path))
    assert code == 0 and out.endswith("(depth <= 2)")
    code, out, err = run(capsys, "universal", "relations", "--assignment",
                         str(path), "--depth", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: --depth applies only with --structure")


def _carrier(**fields):
    return lambda data: data["carrier"].update(fields)


def _ring(ring):
    return _carrier(ring=ring)


@pytest.mark.parametrize("corrupt", [
    pytest.param(_carrier(N="4"), id="N-string"),
    pytest.param(_carrier(N=4.0), id="N-float"),
    pytest.param(_carrier(N=True), id="N-bool"),
    pytest.param(lambda data: data["carrier"].pop("N"), id="N-missing"),
    pytest.param(_carrier(kind="trunc_poly", deg="3"), id="deg-string"),
    pytest.param(_carrier(kind="trunc_poly", deg=1), id="deg-below-2"),
    pytest.param(_carrier(x_filtration="a"), id="x_filtration-string"),
    pytest.param(_carrier(x_filtration=2.5), id="x_filtration-float"),
    pytest.param(_carrier(x_filtration=2), id="x_filtration-2"),
    pytest.param(_ring({"kind": "localized_integers",
                        "inverted": {"finite": ["2"]}}), id="inverted-string"),
    pytest.param(_ring({"kind": "localized_integers"}), id="inverted-missing"),
    pytest.param(_ring({"kind": "rational_poly", "variables": "y1"}),
                 id="variables-string"),
    pytest.param(lambda data: data.pop("primes"), id="primes-missing"),
    pytest.param(lambda data: data.pop("adams"), id="adams-missing"),
    pytest.param(lambda data: data.update(adams=[]), id="adams-list"),
])
def test_malformed_structure_is_a_usage_error(capsys, tmp_path, corrupt):
    data = standard_structure("mult", trunc=4, primes=(2, 3)).to_json()
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_structure_file_that_is_a_list_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([standard_structure("mult", trunc=4).to_json()]))
    code, out, err = run(capsys, "validate", "--structure", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed structure")


def test_readme_cli_examples(capsys):
    """Each `wittlam ...  # -> <out>` line of README's CLI block prints <out>."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.partition("# -> ") for line in block.splitlines()
                if "# -> " in line]
    assert len(examples) >= 6
    for command, _, expect in examples:
        argv = shlex.split(command)
        assert argv[0] == "wittlam"
        assert run(capsys, *argv[1:])[:2] == (0, expect.strip()), command


@pytest.mark.parametrize("argv", [
    pytest.param(["dual", "make", "--ring", "Z", "--a", "2=2,3=6,5=5",
                  "--primes", "2,3"], id="dual"),
    pytest.param(["family", "make", "--ring", "Q", "--carrier", "series:4",
                  "--a", "2=2,3=6,5=5", "--primes", "2,3"], id="family"),
])
def test_adams_data_outside_the_window_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: Adams data for primes [5] outside window [2, 3]"


def test_family_without_data_for_a_window_prime_is_a_usage_error(capsys):
    code, out, err = run(capsys, "family", "make", "--ring", "Q", "--carrier",
                         "series:4", "--a", "2=2", "--primes", "2,3")
    assert (code, out) == (2, "")
    assert err == "error: missing Adams data for window primes [3]"


@pytest.mark.parametrize("key", ["adams_dual", "adams"])
def test_structure_file_with_data_outside_the_window_is_a_usage_error(
        capsys, tmp_path, key):
    if key == "adams_dual":
        data = make_dual_structure(Z, {2: 2, 3: 6}).to_json()
        data[key]["5"] = "5"
    else:
        data = standard_structure("mult", trunc=4, primes=(2, 3)).to_json()
        data[key]["5"] = data[key]["3"]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(data))
    for argv in (["validate"], ["lift", "-n", "5", "--element", "1"]):
        code, out, err = run(capsys, *argv, "--structure", str(path))
        assert (code, out) == (2, "")
        assert err == "error: Adams data for primes [5] outside window [2, 3]"


def _ground_with_adams():
    from wittlam.structures import make_binomial_structure

    data = make_binomial_structure(primes=(2, 3)).to_json()
    data["adams"] = {"2": ["0", "2", "1"], "3": ["0", "3", "3"]}
    return data


def _dual_with_both_keys():
    data = make_dual_structure(Z, {2: 2, 3: 6}).to_json()
    data["adams"] = {"2": ["0", "4"], "3": ["0", "6"]}
    return data


def _dual_keyed_adams():
    data = make_dual_structure(Z, {2: 2, 3: 6}).to_json()
    data["adams"] = data.pop("adams_dual")
    return data


def _series_keyed_adams_dual():
    data = standard_structure("mult", trunc=4, primes=(2, 3)).to_json()
    data["adams_dual"] = data.pop("adams")
    return data


@pytest.mark.parametrize("make, stray", [
    pytest.param(_ground_with_adams, "adams", id="ground-with-adams"),
    pytest.param(_dual_with_both_keys, "adams", id="dual-with-both-keys"),
    pytest.param(_dual_keyed_adams, "adams", id="dual-keyed-adams"),
    pytest.param(_series_keyed_adams_dual, "adams_dual",
                 id="series-keyed-adams_dual"),
])
def test_structure_file_reads_only_the_adams_key_its_kind_names(
        capsys, tmp_path, make, stray):
    data = make()
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(data))
    kind = data["carrier"]["kind"]
    for argv in (["validate"], ["lift", "-n", "2", "--element", "1"]):
        code, out, err = run(capsys, *argv, "--structure", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed structure: a {kind} carrier ")
        assert err.endswith(f", but the structure has {stray!r}")


def test_axiom_check_on_a_two_prime_window_uses_the_window_depth(
        capsys, tmp_path):
    code, out, _ = run(capsys, "dual", "make", "--ring", "Z", "--a", "2=2,3=6")
    path = tmp_path / "dual23.json"
    path.write_text(out)
    code, out, _ = run(capsys, "axiom-check", "--structure", str(path))
    assert code == 0 and "composition lambda^4(lambda^1(r)) at 0 + 1*eps" in out
    code, out, err = run(capsys, "axiom-check", "--structure", str(path),
                         "--bound", "6")
    assert (code, out, err) == (
        2, "", "error: psi^5 needs primes [5] outside window [2, 3]")


def test_dual_iso_compares_any_common_carrier_with_N_1(capsys, tmp_path):
    paths = {}
    for name, argv in [
        ("t23", ["family", "make", "--ring", "Q", "--carrier", "trunc:2",
                 "--a", "2=2,3=3"]),
        ("t25", ["family", "make", "--ring", "Q", "--carrier", "trunc:2",
                 "--a", "2=2,3=5"]),
        ("t3", ["family", "make", "--ring", "Q", "--carrier", "trunc:3",
                "--a", "2=2,3=3"]),
        ("dual", ["dual", "make", "--ring", "Q", "--a", "2=2,3=3"]),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(out)

    def iso(a, b):
        return run(capsys, "dual", "iso", "--s1", str(paths[a]),
                   "--s2", str(paths[b]))

    assert iso("t23", "t23") == (0, "isomorphic", "")
    assert iso("t23", "t25") == (1, "not isomorphic", "")
    mismatch = "error: dual_iso_test needs one common carrier with N = 1"
    for a, b in [("t3", "t3"), ("t23", "dual")]:
        assert iso(a, b) == (2, "", mismatch)
