"""Commuting power series: the unique solver and the Hasse principle.

`lubin_oracle` is the solver's former route, kept as an oracle: one
degree at a time, h_j is read off h o g - f o h, both composed by
Horner's rule on whole series (`test_series.compose_oracle`).
"""

import random
from fractions import Fraction

import pytest

from wittlam.errors import LubinHypothesisError, UnsupportedRingError
from wittlam.ground import GroundRing
from wittlam.lubin import (CommutingProblem, conjugate_structure, hasse_check,
                           lubin_solve, random_unit_series)
from wittlam.series import SeriesRing, _power_table, compose
from wittlam.structures import standard_structure, validate
from wittlam.sympoly import MPoly

from test_series import compose_oracle

Z = GroundRing.integers()
Q = GroundRing.rationals()
Z2 = GroundRing.localized([2])
QY = GroundRing.rational_poly(("y1",))


def lubin_oracle(problem):
    """h by two compositions per degree: with h known to degree j - 1 and
    h_j = 0, the degree-j coefficient of h o g - f o h is the defect that
    (alpha^j - alpha) h_j must cancel."""
    alpha, c, N = problem.alpha, problem.c, problem.f.trunc
    ff_ring = problem.f.ring.fraction_field()
    ff = SeriesRing(ff_ring, N)
    f, g = ff._wrap(problem.f.payload), ff._wrap(problem.g.payload)
    coeffs = [ff_ring.zero()] * (N + 1)
    coeffs[1] = ff_ring.coerce(c)
    h = ff.coerce(coeffs)
    for j in range(2, N + 1):
        defect = (compose_oracle(h, g) - compose_oracle(f, h))[j]
        coeffs[j] = defect * (Fraction(-1) / (alpha ** j - alpha))
        h = ff.coerce(coeffs)
    return h


def mult_series(c, N, ring=Q):
    return (SeriesRing(ring, N).x() + 1) ** c - 1


def _random_problem(rng, ring, N):
    """f and g over ring sharing a linear coefficient alpha, neither 0 nor
    a root of unity, and a target c, all seeded by rng."""
    if ring == QY:
        def coeff():
            return MPoly(ring.variables, {(e,): rng.randint(-3, 3)
                                          for e in range(2)})
    elif ring == Z2:
        def coeff():
            return Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 2))
    elif ring == Q:
        def coeff():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    else:
        def coeff():
            return rng.randint(-5, 5)
    alpha = rng.choice([2, -2, 3] if ring == Z else [2, -3, Fraction(1, 2)])
    dom = SeriesRing(ring, N)
    f, g = (dom.coerce([0, alpha] + [ring.element(coeff())
                                     for _ in range(N - 1)])
            for _ in range(2))
    return CommutingProblem(f, g, rng.choice([1, -1, 2, Fraction(-3, 2)]))


@pytest.mark.parametrize("ring", [Z, Z2, Q, QY], ids=str)
def test_solver_agrees_with_oracle(ring):
    rng = random.Random(f"lubin:{ring}")
    # over Q[y1] the oracle takes 5 s at N = 16 (2-core machine, Python 3.11)
    for N in (1, 2, 3, 5, 8, 12) + (() if ring == QY else (16,)):
        problem = _random_problem(rng, ring, N)
        h = lubin_solve(problem)
        assert h == lubin_oracle(problem), (ring, N)
        g = h.domain.coerce([c.payload for c in problem.g.coeffs])
        f = h.domain.coerce([c.payload for c in problem.f.coeffs])
        assert compose_oracle(h, g) == compose_oracle(f, h), (ring, N)


def test_solver_leaves_the_compose_memo_alone():
    f = mult_series(2, 32, Z)
    _power_table.cache_clear()
    compose(f, f)
    before = _power_table.cache_info()
    h = lubin_solve(CommutingProblem(f, f, 3))
    assert _power_table.cache_info() == before
    assert h == mult_series(3, 32)


def test_linear_maps_commute():
    f = SeriesRing(Q, 5).coerce([0, 2])
    h = lubin_solve(CommutingProblem(f, f, Fraction(7)))
    assert h == SeriesRing(Q, 5).coerce([0, 7])


def test_identity_solution():
    f = mult_series(2, 6, Z)
    h = lubin_solve(CommutingProblem(f, f, 1))
    assert h == SeriesRing(Q, 6).x()


def test_solver_reproduces_powers():
    f = mult_series(2, 8, Z)
    for c in (1, 2, 3):
        h = lubin_solve(CommutingProblem(f, f, c))
        assert h == mult_series(c, 8)
        # independent verification by composition: h o f = f o h
        assert compose(h, lift(f)) == compose(lift(f), h)


def lift(f):
    return SeriesRing(Q, f.trunc).coerce([c.payload for c in f.coeffs])


def test_solution_verifies_and_is_unique():
    g = mult_series(2, 6, Z)
    f = mult_series(2, 6, Z)
    h = lubin_solve(CommutingProblem(f, g, 3))
    assert compose(h, lift(g)) == compose(lift(f), h)
    # perturbing any computed coefficient breaks the equation
    for j in range(2, 7):
        coeffs = list(h.coeffs)
        coeffs[j] = coeffs[j] + 1
        bad = SeriesRing(Q, 6).coerce(coeffs)
        assert compose(bad, lift(g)) != compose(lift(f), bad)
    # and solving twice gives the same answer
    assert lubin_solve(CommutingProblem(f, g, 3)) == h


def test_solutions_compose():
    f = mult_series(2, 8, Z)
    h2 = lubin_solve(CommutingProblem(f, f, 2))
    h3 = lubin_solve(CommutingProblem(f, f, 3))
    h6 = lubin_solve(CommutingProblem(f, f, 6))
    assert compose(h2, h3) == h6
    assert compose(h3, h2) == h6


def test_hypothesis_violations():
    with pytest.raises(LubinHypothesisError):
        CommutingProblem(SeriesRing(Q, 4).coerce([0, 1, 1]),
                         SeriesRing(Q, 4).coerce([0, 1, 1]), 1)  # alpha = 1
    with pytest.raises(LubinHypothesisError):
        CommutingProblem(SeriesRing(Q, 4).coerce([0, -1]),
                         SeriesRing(Q, 4).coerce([0, -1]), 1)  # alpha = -1
    with pytest.raises(LubinHypothesisError):
        CommutingProblem(SeriesRing(Q, 4).coerce([0, 0, 1]),
                         SeriesRing(Q, 4).coerce([0, 0, 1]), 1)  # alpha = 0
    with pytest.raises(LubinHypothesisError):
        CommutingProblem(SeriesRing(Q, 4).coerce([0, 2]),
                         SeriesRing(Q, 4).coerce([0, 3]), 1)  # mismatched alpha
    with pytest.raises(LubinHypothesisError):
        CommutingProblem(SeriesRing(Q, 4).coerce([1, 2]),
                         SeriesRing(Q, 4).coerce([0, 2]), 1)  # f(0) != 0
    # non-scalar linear coefficient over Q[y] is out of representable range
    QY = GroundRing.rational_poly(("y",))
    y = QY.coerce("y")
    f = SeriesRing(QY, 4).coerce([QY.zero(), y])
    with pytest.raises(UnsupportedRingError):
        CommutingProblem(f, f, 1)


def test_scalar_alpha_over_poly_algebra():
    QY = GroundRing.rational_poly(("y",))
    f = SeriesRing(QY, 6).coerce([0, 2, 1])
    h = lubin_solve(CommutingProblem(f, f, 3))
    expect = (SeriesRing(QY, 6).x() + 1) ** 3 - 1
    assert h == expect


def test_conjugate_structure_is_valid():
    base = standard_structure("mult", trunc=8)
    for seed in (0, 1, 2):
        phi = random_unit_series(Z, 8, seed=seed)
        S = conjugate_structure(base, phi)
        assert validate(S).passed
        assert S.adams_series(2).linear_coeff() == Z.from_int(2)


def _hypothesis_failures(report):
    return [n for n in report.notes if n.startswith("hypothesis violated: ")]


def _passed_at(report, p):
    """Whether phi commutes with psi^p, False when p was not checked."""
    return any(ok for name, ok, _ in report.checks
               if name.split(" (")[0] == f"phi commutes with psi^{p}")


def _all_pass(report):
    return all(ok for _, ok, _ in report.checks)


def _theorem_instance_holds(report, p0):
    """Pass at p0 must propagate to every window prime."""
    return not _passed_at(report, p0) or _all_pass(report)


def test_hasse_identity_map():
    S = standard_structure("mult", trunc=8)
    phi = SeriesRing(Z, 8).x()
    report = hasse_check(S, S, phi, 2)
    assert report.ok and _all_pass(report)


def test_hasse_conjugation_propagates():
    base = standard_structure("mult", trunc=8)
    rng = random.Random(0)
    for trial in range(5):
        phi = random_unit_series(Z, 8, seed=rng.randint(0, 10 ** 6))
        S2 = conjugate_structure(base, phi)
        report = hasse_check(base, S2, phi, 2)
        assert not _hypothesis_failures(report)
        assert _passed_at(report, 2) and _all_pass(report)
        assert _theorem_instance_holds(report, 2)


def test_hasse_negative_case():
    S1 = standard_structure("mult", trunc=8)
    phi = SeriesRing(Z, 8).coerce([0, 1, 1])  # x + x^2, not a conjugating map here
    report = hasse_check(S1, S1, phi, 2)
    assert not _hypothesis_failures(report)
    assert not _passed_at(report, 2)
    # vacuously: no claim at other primes
    assert _theorem_instance_holds(report, 2)
    assert "not a lambda-map" in str(report)


def test_hasse_refuses_alpha_zero():
    S = standard_structure("power", trunc=8)  # linear coefficients are 0
    phi = SeriesRing(Z, 8).x()
    report = hasse_check(S, S, phi, 2)
    assert _hypothesis_failures(report)
    assert not report.checks


def test_hasse_refuses_mismatched_alpha():
    S1 = standard_structure("mult", trunc=6, primes=(2, 3))
    carrier = S1.carrier
    dom = carrier.domain
    x = dom.x()
    from wittlam.structures import make_series_structure

    S2 = make_series_structure(
        carrier, {2: x * 4 + x * x * 2, 3: S1.adams_series(3)}
    )
    report = hasse_check(S1, S2, SeriesRing(Z, 6).x(), 2)
    assert any("differ" in m for m in _hypothesis_failures(report))


def test_random_unit_series_deterministic():
    a = random_unit_series(Z, 6, seed=5)
    b = random_unit_series(Z, 6, seed=5)
    assert a == b
    assert a.constant_term().is_zero()
    assert a.linear_coeff() == Z.one()
