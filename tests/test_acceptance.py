"""Acceptance gate: the eight verification suites, each exact, each timed.

Run with `pytest -s` to see the one-line-per-criterion output that the
`wittlam selftest` subcommand also prints.
"""

import pytest

from wittlam import acceptance


@pytest.mark.parametrize("number", range(1, 9))
def test_suite(number):
    suite = acceptance.ALL_SUITES[number - 1]
    result = suite(seed=0)
    print(result.line())
    assert result.passed, result.failures
    assert result.elapsed < result.target, (
        f"suite {number} exceeded its runtime target: "
        f"{result.elapsed:.1f}s >= {result.target}s"
    )


def test_suite_5_expects_the_wilkerson_rejection(monkeypatch):
    real = acceptance.make_dual_structure

    def crashing(base, multipliers, primes=None):
        if multipliers[2] == 3:
            raise ZeroDivisionError("crash")
        return real(base, multipliers, primes)

    monkeypatch.setattr(acceptance, "make_dual_structure", crashing)
    result = acceptance.suite_5()
    # a crash on the bad multiplier is not a correct rejection
    assert not result.passed
    assert result.failures == [
        "a_2 = 3 raised ZeroDivisionError, not WilkersonError: crash"
    ]


def test_run_all_matches_selftest():
    results = acceptance.run_all(seed=0, numbers={5, 8})
    assert [r.number for r in results] == [5, 8]
    assert all(r.passed for r in results)
