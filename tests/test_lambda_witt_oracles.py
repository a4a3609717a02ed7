"""The payload kernel of `lambda_witt` against element-level oracles.

Every routine in `lambda_witt` runs on kernel payloads (ints where
integral over Z[S^-1]).  The oracles below are the same algorithms written
on RingElement / TruncSeries values with their operators and the domain's
element-level `div_int`, plus the distinct-partition formula for E^-1,
which the peel replaced.  They are checked against each other on seeded
inputs over Z, Z[1/2], Q, dual(Z), dual(Z[1/2]), Q[y1], Z[x]/x^3,
Z[x]/x^5, Z[1/2][x]/x^4 (whose products run through `series._lift`'s
denominators) and dual(Z)[x]/x^3 (through the convolution on ring
payload ops) at N in {1, 2, 8, 12}.
"""

import random
from fractions import Fraction

import pytest

from wittlam.errors import ExactDivisionError, IntegralityError
from wittlam.ground import DUAL, QPOLY, GroundRing
from wittlam.lambda_witt import (LambdaElem, WittVec, _from_power_sums,
                                 _ghost_solve, _power_sums, exp_iso,
                                 exp_iso_inv, ghost, lambda_add, lambda_mul,
                                 lambda_neg, lambda_op, witt_add, witt_mul)
from wittlam.series import SeriesRing
from wittlam.sympoly import MPoly

Z = GroundRing.integers()
Z2 = GroundRing.localized([2])

DOMAINS = [
    Z,
    Z2,
    GroundRing.rationals(),
    GroundRing.dual(Z),
    GroundRing.dual(Z2),
    GroundRing.rational_poly(("y1",)),
    SeriesRing(Z, 2),
    SeriesRing(Z, 4),
    SeriesRing(Z2, 3),
    SeriesRing(GroundRing.dual(Z), 2),
]
SIZES = [1, 2, 8, 12]


# -- element-level oracles ---------------------------------------------------


def oracle_lambda_add(f, g):
    one = f.domain.one()
    a, b = (one,) + f.a, (one,) + g.a
    out = []
    for i in range(1, f.trunc + 1):
        acc = None
        for r in range(0, i + 1):
            term = a[r] * b[i - r]
            acc = term if acc is None else acc + term
        out.append(acc)
    return LambdaElem(f.domain, out, f.trunc)


def oracle_lambda_neg(f):
    out = []
    for i in range(1, f.trunc + 1):
        acc = -f.a[i - 1]
        for r in range(1, i):
            acc = acc - out[r - 1] * f.a[i - r - 1]
        out.append(acc)
    return LambdaElem(f.domain, out, f.trunc)


def oracle_power_sums(a, M):
    p = []
    for n in range(1, M + 1):
        acc = a[n - 1] * (n if n % 2 else -n)
        for i in range(1, n):
            term = a[i - 1] * p[n - i - 1]
            acc = acc + term if i % 2 else acc - term
        p.append(acc)
    return p


def oracle_from_power_sums(domain, q):
    c = []
    for n in range(1, len(q) + 1):
        acc = q[n - 1] if n % 2 else -q[n - 1]
        for i in range(1, n):
            term = c[n - i - 1] * q[i - 1]
            acc = acc + term if i % 2 else acc - term
        try:
            c.append(domain.div_int(acc, n))
        except ExactDivisionError as exc:
            raise IntegralityError(f"power-sum inversion failed at degree {n}") from exc
    return c


def oracle_lambda_mul(f, g):
    q = [x * y for x, y in zip(oracle_power_sums(f.a, f.trunc),
                               oracle_power_sums(g.a, g.trunc))]
    return LambdaElem(f.domain, oracle_from_power_sums(f.domain, q), f.trunc)


def oracle_lambda_op(i, f, cap):
    p = oracle_power_sums(f.a, cap * i)
    ghosts = [oracle_from_power_sums(f.domain, p[j - 1:j * i:j])[i - 1]
              for j in range(1, cap + 1)]
    return LambdaElem(f.domain, oracle_from_power_sums(f.domain, ghosts), cap)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_ghost(n, w):
    acc = None
    for d in _divisors(n):
        term = w.a[d - 1] ** (n // d) * d
        if d % 2 == 0 and (n // d) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def oracle_ghost_solve(domain, targets, trunc):
    c = []
    for n in range(1, trunc + 1):
        acc = targets[n - 1]
        for d in _divisors(n)[:-1]:
            term = c[d - 1] ** (n // d) * d
            if d % 2 == 0 and (n // d) % 2 == 1:
                term = -term
            acc = acc - term
        cn = domain.div_int(acc, n)
        c.append(-cn if n % 2 == 0 else cn)
    return WittVec(domain, c, trunc)


def oracle_witt(op, a, b):
    ga = [oracle_ghost(n, a) for n in range(1, a.trunc + 1)]
    gb = [oracle_ghost(n, b) for n in range(1, a.trunc + 1)]
    targets = [x + y if op == "add" else x * y for x, y in zip(ga, gb)]
    return oracle_ghost_solve(a.domain, targets, a.trunc)


def oracle_exp_iso(w):
    N = w.trunc
    coeffs = [w.domain.one()] + [w.domain.zero()] * N
    for i in range(1, N + 1):
        for j in range(N - i, -1, -1):
            coeffs[j + i] = coeffs[j + i] + coeffs[j] * w.a[i - 1]
    return LambdaElem(w.domain, coeffs[1:], N)


def _distinct_partitions(n):
    """Partitions of n into distinct parts, all parts < n."""
    out = []

    def rec(rest, maxpart, chosen):
        if rest == 0:
            out.append(tuple(chosen))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part - 1, chosen + [part])

    rec(n, n - 1, [])
    return out


def partition_exp_iso_inv(f):
    """E^-1 by r_n = c_n - sum over distinct partitions of n (all parts
    < n) of the products of earlier r's."""
    r = []
    for n in range(1, f.trunc + 1):
        acc = f.a[n - 1]
        for parts in _distinct_partitions(n):
            prod = None
            for i in parts:
                prod = r[i - 1] if prod is None else prod * r[i - 1]
            acc = acc - prod
        r.append(acc)
    return WittVec(f.domain, r, f.trunc)


# -- seeded inputs --------------------------------------------------------------


def _scalar(rng, dom):
    """A small seeded element, zero about one time in five."""
    if rng.random() < 0.2:
        return dom.zero()
    if isinstance(dom, SeriesRing) and dom.ground == Z:
        return dom.coerce([rng.randint(-2, 2) for _ in range(dom.trunc + 1)])
    if isinstance(dom, SeriesRing):
        # over Z[1/2] with power-of-2 denominators, over dual(Z) with pairs
        return dom.coerce([_scalar(rng, dom.ground) for _ in range(dom.trunc + 1)])
    if dom.kind == DUAL:
        return dom.coerce((_scalar(rng, dom.base), _scalar(rng, dom.base)))
    if dom.kind == QPOLY:
        y = dom.element(MPoly.gen(dom.variables, "y1"))
        return y * rng.randint(-2, 2) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if dom.inverted.kind == "all":
        return dom.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    if dom.inverted.inverts(2):
        return dom.coerce(Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 2)))
    return dom.from_int(rng.randint(-3, 3))


def _cases(tag):
    for dom in DOMAINS:
        rng = random.Random(f"{tag}:{dom}")
        for N in SIZES:
            yield dom, N, [[_scalar(rng, dom) for _ in range(N)] for _ in range(2)]


def _wrapped(dom, payloads):
    return [dom._wrap(p) for p in payloads]


CASES = list(_cases("oracle"))
IDS = [f"{dom}-N{N}" for dom, N, _ in CASES]


# -- agreement -------------------------------------------------------------------


@pytest.mark.parametrize("dom, N, coords", CASES, ids=IDS)
def test_lambda_routines_match_element_oracles(dom, N, coords):
    f, g = (LambdaElem(dom, c, N) for c in coords)
    assert lambda_add(f, g) == oracle_lambda_add(f, g)
    assert lambda_neg(f) == oracle_lambda_neg(f)
    p = _power_sums(dom, f.payload, N)
    expect_p = oracle_power_sums(f.a, N)
    assert _wrapped(dom, p) == expect_p
    assert _wrapped(dom, _from_power_sums(dom, p)) == \
        oracle_from_power_sums(dom, expect_p) == list(f.a)
    assert lambda_mul(f, g) == oracle_lambda_mul(f, g)
    for i in (2, 3):
        assert lambda_op(i, f, bound=N) == oracle_lambda_op(i, f, N // i), i


@pytest.mark.parametrize("dom, N, coords", CASES, ids=IDS)
def test_witt_routines_match_element_oracles(dom, N, coords):
    a, b = (WittVec(dom, c, N) for c in coords)
    ghosts = [ghost(n, a) for n in range(1, N + 1)]
    assert ghosts == [oracle_ghost(n, a) for n in range(1, N + 1)]
    solved = _ghost_solve(dom, [dom._unwrap(x) for x in ghosts])
    assert _wrapped(dom, solved) == list(oracle_ghost_solve(dom, ghosts, N).a) == list(a.a)
    assert witt_add(a, b) == oracle_witt("add", a, b)
    assert witt_mul(a, b) == oracle_witt("mul", a, b)


@pytest.mark.parametrize("dom, N, coords", CASES, ids=IDS)
def test_exp_iso_and_peel_match_oracles(dom, N, coords):
    w = WittVec(dom, coords[0], N)
    f = LambdaElem(dom, coords[1], N)
    assert exp_iso(w) == oracle_exp_iso(w)
    assert exp_iso_inv(f) == partition_exp_iso_inv(f)
    assert exp_iso_inv(exp_iso(w)) == w
