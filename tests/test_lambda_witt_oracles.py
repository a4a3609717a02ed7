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

The generated straight-line forms of Newton's identities, the ghost map
and the ghost solve are checked against the loops they unroll, which
stay in the module as their oracles: on every degree M from 0 to one
past the limit over the same ten domains, and on integers up to 2^256.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlam.errors import ExactDivisionError, IntegralityError
from wittlam.ground import DUAL, QPOLY, GroundRing
from wittlam.lambda_witt import (_NEWTON_MAX_M, LambdaElem, WittVec,
                                 _from_power_sums, _from_power_sums_loop,
                                 _ghost_solve, _ghost_solve_loop, _ghosts,
                                 _ghosts_loop, _power_sums, _power_sums_loop,
                                 exp_iso, exp_iso_inv, ghost, lambda_add,
                                 lambda_mul, lambda_neg, lambda_op, witt_add,
                                 witt_mul)
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
        # a bound below i is an InputError; max(N, i) keeps the cap N // i
        assert lambda_op(i, f, bound=max(N, i)) == \
            oracle_lambda_op(i, f, N // i), i


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


# -- the straight-line forms against the loops they unroll -------------------------


def _shape(payload):
    """The payload with each scalar replaced by its type, so that equal
    payloads of different types (1 and Fraction(1), say) differ."""
    if isinstance(payload, tuple):
        return tuple(map(_shape, payload))
    return type(payload)


def _outcome(routine, *args):
    """What routine returns, with the shape of each payload, or the text,
    degree, prime and cause of the IntegralityError it raises."""
    try:
        got = routine(*args)
    except IntegralityError as exc:
        return ("error", str(exc), exc.degree, exc.prime, repr(exc.__cause__))
    return ("value", type(got), got, [_shape(x) for x in got])


def _all_int(payloads, dom):
    """Over Z every scalar of a result is an int, also inside a series."""
    if isinstance(dom, SeriesRing):
        return all(type(c) is int for x in payloads for c in x)
    return all(type(x) is int for x in payloads)


def _kernels_match_loops(dom, a, M):
    """Each routine at M, through its straight-line form when M is within
    the limit, equals its loop on the payloads a (at least M of them): on
    power sums and ghosts, whose inversions are exact, and on a itself
    taken as power sums and ghosts, whose inversions may fail."""
    p = _power_sums(dom, a, M)
    assert _outcome(_power_sums, dom, a, M) == _outcome(_power_sums_loop, dom, a, M)
    w = _ghosts(dom, a, M)
    assert _outcome(_ghosts, dom, a, M) == _outcome(_ghosts_loop, dom, a, M)
    for q in (p, list(a[:M])):
        expect = _outcome(_from_power_sums_loop, dom, q)
        assert _outcome(_from_power_sums, dom, q) == expect
        assert _outcome(_from_power_sums, dom, tuple(q)) == expect
        assert _outcome(_from_power_sums, dom, iter(q), M) == expect
    for targets in (w, list(a[:M])):
        assert _outcome(_ghost_solve, dom, targets) == \
            _outcome(_ghost_solve_loop, dom, targets)
    assert _from_power_sums(dom, p) == _ghost_solve(dom, w) == list(a[:M])
    if dom == Z or isinstance(dom, SeriesRing) and dom.ground == Z:
        assert _all_int(p, dom) and _all_int(w, dom)


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_straight_line_forms_match_the_loops_at_every_degree(dom):
    rng = random.Random(f"straight-line:{dom}")
    for M in range(_NEWTON_MAX_M + 2):
        # one payload more than M: the routines read a prefix
        _kernels_match_loops(dom, [_scalar(rng, dom).payload for _ in range(M + 1)], M)


_WORDS = st.one_of(st.just(0), st.sampled_from([1, -1]),
                   st.integers(-2 ** 256, 2 ** 256))


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_straight_line_forms_match_the_loops_on_large_integers(data):
    M = data.draw(st.integers(0, _NEWTON_MAX_M + 1), label="M")
    a = data.draw(st.lists(_WORDS, min_size=M, max_size=M), label="a")
    _kernels_match_loops(Z, a, M)
    dom = SeriesRing(Z, 2)
    padded = a + [0, 0]
    _kernels_match_loops(dom, [tuple(padded[i:i + 3]) for i in range(M)], M)
