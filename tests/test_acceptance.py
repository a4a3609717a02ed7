"""Acceptance gate: the eight verification suites, each exact, each timed.

Run with `pytest -s` to see the one-line-per-criterion output that the
`wittlam selftest` subcommand also prints.
"""

import re
import time

import pytest

from wittlam import acceptance


@pytest.mark.parametrize("number", range(1, 9))
def test_suite(number):
    suite = acceptance.ALL_SUITES[number - 1]
    t0 = time.perf_counter()
    report = suite(seed=0)
    elapsed = time.perf_counter() - t0
    print("\n".join(acceptance.suite_lines(report)))
    assert report.passed, report.notes
    [(name, _, detail)] = report.checks
    assert name.startswith(f"suite {number} (")
    target = int(re.fullmatch(r"\d+\.\d\ds \(target < (\d+)s\)", detail)[1])
    assert elapsed < target, (
        f"suite {number} exceeded its runtime target: "
        f"{elapsed:.1f}s >= {target}s"
    )


def test_suite_5_expects_the_wilkerson_rejection(monkeypatch):
    real = acceptance.make_dual_structure

    def crashing(base, multipliers):
        if multipliers[2] == 3:
            raise ZeroDivisionError("crash")
        return real(base, multipliers)

    monkeypatch.setattr(acceptance, "make_dual_structure", crashing)
    report = acceptance.suite_5()
    # a crash on the bad multiplier is not a correct rejection
    assert not report.passed
    assert report.notes == [
        "a_2 = 3 raised ZeroDivisionError, not WilkersonError: crash"
    ]


def test_run_all_matches_selftest():
    results = acceptance.run_all(seed=0, numbers={5, 8})
    assert [r.checks[0][0] for r in results] == [
        "suite 5 (dual-number classification)", "suite 8 (coalgebra laws)"]
    assert all(r.passed for r in results)
