"""Lambda and Witt functors: ring laws, ghosts, the exponential map.

Two independent oracles anchor the conventions:

  * the log-derivative oracle: the n-th ghost equals
    (-1)^{n-1} [t E'(t)/E(t)]_n where E(a) = prod (1 + a_i t^i) is built
    by naive list multiplication;
  * E-transport: Witt sums/products must map to series products and
    power-sum products computed on the Lambda side.

The universal polynomials anchor the Lambda side: lambda_mul and lambda_op
must agree with term-by-term evaluation of P_n and P_{m,n}, and the Witt
ghost solve with its symbolic run over Q[a.., b..].
"""

import functools
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlam
from wittlam.errors import BoundExceededError, InputError, IntegralityError
from wittlam.ground import (DUAL, QPOLY, ZLOC, GroundRing, PrimeIdeal,
                           PrimeSet, XAdicIdeal)
from wittlam.lambda_witt import (_NEWTON_KERNELS, _NEWTON_MAX_M, _ROUTINES,
                                 LambdaElem, WittVec, _from_power_sums,
                                 _from_power_sums_loop, _ghost_solve,
                                 _ghost_solve_loop, _ghosts, _ghosts_loop,
                                 _power_sums, _power_sums_loop, exp_iso,
                                 exp_iso_inv, filtration_member, ghost,
                                 lambda_adams, lambda_add, lambda_mul,
                                 lambda_neg, lambda_one, lambda_op,
                                 lambda_zero, witt_add, witt_mul, witt_zero)
from wittlam.series import (_COMPOSE_MAX_N, _KERNEL_MAX_N, SeriesRing,
                            TruncSeries, _compose_kernels, _grow_powers,
                            _kernels, _scalar_form, compose, revert)
from wittlam.structures import adams_apply, lambda_values, standard_structure
from wittlam.sympoly import MPoly, universal_P, universal_Pcomp

Z = GroundRing.integers()
Q = GroundRing.rationals()


# -- oracle helpers ------------------------------------------------------------


def naive_E(coords, N):
    """prod (1 + a_i t^i) mod t^{N+1} as a plain coefficient list."""
    out = [Fraction(0)] * (N + 1)
    out[0] = Fraction(1)
    for i, a in enumerate(coords, start=1):
        new = list(out)
        for j in range(N + 1 - i):
            new[j + i] += out[j] * a
        out = new
    return out


def series_mul(a, b):
    N = len(a) - 1
    out = [Fraction(0)] * (N + 1)
    for i, x in enumerate(a):
        for j in range(N + 1 - i):
            out[i + j] += x * b[j]
    return out


def ghost_oracle(coords, n):
    """(-1)^{n-1} [t E'/E]_n: the n-th power sum of E's root multiset."""
    N = len(coords)
    E = naive_E(coords, N)
    tEp = [Fraction(k) * E[k] for k in range(N + 1)]
    # invert E (unit constant term) then multiply
    inv = [Fraction(0)] * (N + 1)
    inv[0] = Fraction(1)
    for k in range(1, N + 1):
        inv[k] = -sum(E[j] * inv[k - j] for j in range(1, k + 1))
    val = series_mul(tEp, inv)[n]
    return -val if n % 2 == 0 else val


@functools.cache
def witt_universal_oracle(op, trunc):
    """Universal Witt sum/product polynomials for coordinates 1..N, from the
    symbolic ghost solve over Q[a_1..a_N, b_1..b_N]; every coefficient
    must come out an integer."""
    names = tuple(f"a{i}" for i in range(1, trunc + 1)) + tuple(
        f"b{i}" for i in range(1, trunc + 1)
    )
    ring = GroundRing.rational_poly(names)
    gens = [ring.element(MPoly.gen(names, v)) for v in names]
    a = WittVec(ring, gens[:trunc], trunc)
    b = WittVec(ring, gens[trunc:], trunc)
    c = witt_add(a, b) if op == "add" else witt_mul(a, b)
    polys = tuple(elem.payload for elem in c.a)
    assert all(p.is_integral() for p in polys), f"Witt {op} not integral"
    return polys


def witt_eval_oracle(op, a, b):
    """Witt sum or product by evaluating the universal polynomials."""
    one = a.domain.one()
    values = {}
    for k in range(1, a.trunc + 1):
        values[f"a{k}"] = a.a[k - 1]
        values[f"b{k}"] = b.a[k - 1]
    polys = witt_universal_oracle(op, a.trunc)
    return WittVec(a.domain, [p.evaluate(values, one) for p in polys], a.trunc)


def lambda_mul_oracle(f, g):
    """Product in Lambda(A) by evaluating P_1..P_N term by term."""
    one = f.domain.one()
    out = []
    for i in range(1, f.trunc + 1):
        values = {}
        for k in range(1, i + 1):
            values[f"a{k}"] = f.a[k - 1]
            values[f"b{k}"] = g.a[k - 1]
        out.append(universal_P(i).evaluate(values, one))
    return LambdaElem(f.domain, out, f.trunc)


def lambda_op_oracle(i, f, cap, bound):
    """lambda^i by evaluating P_{j,i}(a_1..a_{ij}) for j <= cap."""
    one = f.domain.one()
    out = []
    for j in range(1, cap + 1):
        values = {f"a{k}": f.a[k - 1] for k in range(1, i * j + 1)}
        out.append(universal_Pcomp(j, i, bound=bound).evaluate(values, one))
    return LambdaElem(f.domain, out, cap)


def W(coords, trunc=None, ring=Z):
    return WittVec(ring, coords, trunc)


def L(coords, trunc=None, ring=Z):
    return LambdaElem(ring, coords, trunc)


# -- Lambda arithmetic -----------------------------------------------------------


def test_lambda_add_examples():
    assert lambda_add(L([2, 0]), L([3, 0])) == L([5, 6])
    f = L([4, -1, 3])
    assert lambda_add(f, lambda_zero(Z, 3)) == f
    assert lambda_add(L([1, 0]), L([-1, 0])) == L([0, -1])


def test_lambda_neg():
    f = L([3, -2, 5, 1])
    assert lambda_add(f, lambda_neg(f)) == lambda_zero(Z, 4)


def test_lambda_mul_examples():
    # symbolic: (1 + a t) *_L (1 + b t) = 1 + ab t at N=2
    ring = GroundRing.rational_poly(("a", "b"))
    a = ring.element(MPoly.gen(("a", "b"), "a"))
    b = ring.element(MPoly.gen(("a", "b"), "b"))
    prod = lambda_mul(LambdaElem(ring, [a, ring.zero()]),
                      LambdaElem(ring, [b, ring.zero()]))
    assert prod.a[0] == a * b and prod.a[1].is_zero()
    # the class of 1 + t is the multiplicative identity
    assert lambda_mul(L([2, 0]), lambda_one(Z, 2)) == L([2, 0])
    # the constant series 1 (all-zero coordinates) annihilates
    f = L([4, 7, -2])
    assert lambda_mul(f, lambda_zero(Z, 3)) == lambda_zero(Z, 3)


def test_lambda_ring_laws_on_samples():
    rng = random.Random(0)
    for _ in range(10):
        f, g, h = (L([rng.randint(-4, 4) for _ in range(5)]) for _ in range(3))
        assert lambda_add(f, g) == lambda_add(g, f)
        assert lambda_mul(f, g) == lambda_mul(g, f)
        assert lambda_add(lambda_add(f, g), h) == lambda_add(f, lambda_add(g, h))
        assert lambda_mul(lambda_mul(f, g), h) == lambda_mul(f, lambda_mul(g, h))
        assert lambda_mul(f, lambda_add(g, h)) == lambda_add(
            lambda_mul(f, g), lambda_mul(f, h)
        )
        assert lambda_mul(f, lambda_one(Z, 5)) == f


def test_lambda_op():
    f = L([3, 1, 4, 1, 5, 9])
    assert lambda_op(1, f) == f
    # P_{1,2} = a2: degree-1 coefficient of lambda^2 is a_2
    op2 = lambda_op(2, f)
    assert op2.a[0] == 1
    assert op2.trunc == 3  # 6 // 2 with the default bound 6
    # lambda^2 (1 + a t): degree-1 coefficient is 0
    assert lambda_op(2, L([5, 0])).a[0] == 0
    with pytest.raises(BoundExceededError):
        lambda_op(2, f, out_trunc=5)


def test_lambda_op_1_refuses_a_truncation_past_n():
    f = L([3, 1, 4, 1, 5, 9, 2, 6])
    assert lambda_op(1, f, out_trunc=8) == f
    assert lambda_op(1, f, out_trunc=3) == L([3, 1, 4])
    with pytest.raises(BoundExceededError, match=r"lambda\^1 computable only "
                       r"to degree 8 \(requested 20"):
        lambda_op(1, f, out_trunc=20)


def test_negative_truncations_are_input_errors():
    with pytest.raises(InputError, match="N must be an integer >= 0, got -1"):
        LambdaElem(Z, [1, 2, 3], -1)
    with pytest.raises(InputError, match="N must be an integer >= 0, got -2"):
        WittVec(Z, [1, 2, 3], -2)
    f = L([3, 1, 4, 1, 5])
    for i in (1, 2):
        with pytest.raises(InputError,
                           match="out_trunc must be an integer >= 0, got -2"):
            lambda_op(i, f, out_trunc=-2)
    assert lambda_op(2, f, out_trunc=0).trunc == 0
    # a given bound below i leaves no coefficient: a usage error, not an
    # empty answer
    for i, bound in ((2, 1), (2, -3), (3, 2)):
        with pytest.raises(InputError, match=f"bound must be an integer "
                           f">= {i}, got {bound}"):
            lambda_op(i, f, bound=bound)
    assert lambda_op(2, f, bound=2).trunc == 1


def _random_scalar(rng, dom):
    """A seeded element of one of the domains used by the agreement tests."""
    if isinstance(dom, SeriesRing):
        return dom.coerce([rng.randint(-3, 3) for _ in range(dom.trunc + 1)])
    if dom.kind == DUAL:
        return dom.coerce((rng.randint(-4, 4), rng.randint(-4, 4)))
    if dom.kind == QPOLY:
        y = dom.element(MPoly.gen(dom.variables, "y1"))
        return y * rng.randint(-3, 3) + rng.randint(-3, 3)
    if dom.inverted.inverts(2):
        return dom.coerce(Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 2)))
    return dom.from_int(rng.randint(-5, 5))


AGREEMENT_DOMAINS = [
    GroundRing.integers(),
    GroundRing.localized([2]),
    GroundRing.dual(GroundRing.integers()),
    GroundRing.rational_poly(("y1",)),
    SeriesRing(GroundRing.integers(), 4),
]


@pytest.mark.parametrize("dom", AGREEMENT_DOMAINS, ids=str)
def test_lambda_mul_agrees_with_universal_P(dom):
    rng = random.Random(f"lambda_mul:{dom}")
    for N in range(1, 10):
        f = LambdaElem(dom, [_random_scalar(rng, dom) for _ in range(N)], N)
        g = LambdaElem(dom, [_random_scalar(rng, dom) for _ in range(N)], N)
        assert lambda_mul(f, g) == lambda_mul_oracle(f, g), (N, str(f), str(g))


@pytest.mark.parametrize("dom", AGREEMENT_DOMAINS, ids=str)
def test_lambda_op_agrees_with_universal_Pcomp(dom):
    rng = random.Random(f"lambda_op:{dom}")
    f = LambdaElem(dom, [_random_scalar(rng, dom) for _ in range(12)], 12)
    for i in range(2, 13):
        got = lambda_op(i, f, bound=12)
        assert got.trunc == 12 // i
        assert got == lambda_op_oracle(i, f, 12 // i, 12), i


def test_power_sum_inversion_checks_exactness():
    # power sums (1, 0) belong to 1 + t + t^2/2: c_2 = 1/2 is not in Z
    with pytest.raises(IntegralityError):
        _from_power_sums(Z, [1, 0])
    c = _from_power_sums(Q, [1, 0])
    assert c == [1, Fraction(1, 2)]


def test_power_sum_inversion_over_series_names_the_first_failing_coefficient():
    # over Z[x]/x^4, q_1..q_5 = 0 and q_6 = 12x + 4x^3 give 6 c_6 = -q_6:
    # -12 is divisible by 6, so the first failing coefficient is -4, whose
    # division fails at 3 but not at 2
    dom = SeriesRing(Z, 3)
    q = [dom._pzero()] * 5 + [(0, 12, 0, 4)]
    with pytest.raises(IntegralityError) as info:
        _from_power_sums(dom, q)
    assert str(info.value) == (
        "power-sum inversion failed at degree 6: -4 is not divisible by 6 in Z")
    assert (info.value.degree, info.value.prime) == (6, 3)


def test_ghost_solve_reports_only_inexact_division():
    # ghost components (1, 0): w_2 = c_1^2 - 2 c_2 = 0 needs c_2 = 1/2
    with pytest.raises(IntegralityError, match="ghost solve failed at degree 2"):
        _ghost_solve(Z, [1, 0])

    class BrokenDomain(GroundRing):
        def _pdiv_int(self, x, n):
            raise ZeroDivisionError("division bug in the domain")

    # a failure that is not an inexact division is not an integrality verdict
    with pytest.raises(ZeroDivisionError):
        _ghost_solve(BrokenDomain(ZLOC, inverted=PrimeSet.none()), [1])


class _Counting:
    """The items of a list, one by one, counting how many were read."""

    def __init__(self, items):
        self._items = iter(items)
        self.read = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.read += 1
        return item


class _Unreached(Exception):
    """Raised by an iterator of power sums when its item is read."""


def _raising_at(items, j):
    """items[:j - 1], then _Unreached in place of item j."""
    yield from items[:j - 1]
    raise _Unreached(j)


def test_newton_inversion_reads_each_power_sum_only_when_it_needs_it():
    # the power sums of 1 + t are q_n = 1; raising q_k by 1 gives
    # k c_k = +-1, so over Z the division at degree k is the first to fail
    for M in range(2, _NEWTON_MAX_M + 2):
        for k in range(2, M + 1):
            q = [1] * M
            q[k - 1] += 1
            with pytest.raises(IntegralityError) as loop:
                _from_power_sums_loop(Z, q)
            sums = _Counting(q)
            with pytest.raises(IntegralityError) as info:
                _from_power_sums(Z, sums, M)
            # nothing past q_k is read, and the error is the loop's
            assert sums.read == k, (M, k)
            assert (str(info.value), info.value.degree, info.value.prime) == \
                (str(loop.value), k, loop.value.prime), (M, k)
            assert repr(info.value.__cause__) == repr(loop.value.__cause__)
            # q_j is read only once c_(j-1) is known: a failure at degree
            # k < j wins over reading q_j, and reading q_j <= k wins over it
            for j in range(1, M + 1):
                expect = IntegralityError if k < j else _Unreached
                with pytest.raises(expect):
                    _from_power_sums(Z, _raising_at(q, j), M)
                with pytest.raises(expect):
                    _from_power_sums_loop(Z, _raising_at(q, j))


def test_newton_kernel_table_is_lazy_and_bounded():
    # in a fresh interpreter: importing the library builds no form, the
    # Newton lift of lambda-eval's set-up builds the one it runs, and
    # degrees past the limit build none
    env = dict(os.environ, PYTHONPATH=str(Path(wittlam.__file__).parents[1]))
    code = (
        "import wittlam\n"
        "from wittlam import lambda_witt as lw, structures\n"
        "from wittlam.ground import GroundRing\n"
        "print(len(lw._NEWTON_KERNELS))\n"
        "Z = GroundRing.integers()\n"
        "structures.lambda_values(structures.make_binomial_structure(Z), 8,"
        " Z.from_int(5))\n"
        "print(sorted(lw._NEWTON_KERNELS))\n"
        "N = lw._NEWTON_MAX_M + 1\n"
        "f, w = lw.LambdaElem(Z, range(1, N + 1)), lw.WittVec(Z, range(N))\n"
        "lw.lambda_mul(f, f), lw.lambda_adams(1, f), lw.ghosts(w), lw.witt_mul(w, w)\n"
        "print(sorted(lw._NEWTON_KERNELS))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    lift = "[('from_power_sums', 8, True)]"
    assert (done.returncode, done.stdout) == (0, f"0\n{lift}\n{lift}\n"), done.stderr
    # in this process: the table holds only degrees 1.._NEWTON_MAX_M, at
    # most one form per routine, degree and spelling
    for N in range(2 * _NEWTON_MAX_M):
        for dom in (Z, GroundRing.dual(Z)):
            f = LambdaElem(dom, [1, -2, 3], N)
            lambda_mul(f, f), lambda_op(2, f), witt_mul(exp_iso_inv(f), exp_iso_inv(f))
    assert set(_NEWTON_KERNELS) <= {
        (routine, M, inline) for routine in _ROUTINES
        for M in range(1, _NEWTON_MAX_M + 1) for inline in (True, False)}


_small = st.integers(-4, 4)


@st.composite
def _lambda_triples(draw):
    dom = draw(st.sampled_from([Z, GroundRing.dual(Z)]))
    N = draw(st.integers(1, 8))
    scalar = _small if dom is Z else st.tuples(_small, _small)
    return tuple(
        LambdaElem(dom, draw(st.lists(scalar, min_size=N, max_size=N)), N)
        for _ in range(3)
    )


@settings(max_examples=40, deadline=None, database=None)
@given(_lambda_triples())
def test_lambda_ring_laws_property(fgh):
    f, g, h = fgh
    one = lambda_one(f.domain, f.trunc)
    assert lambda_mul(f, g) == lambda_mul(g, f)
    assert lambda_mul(lambda_mul(f, g), h) == lambda_mul(f, lambda_mul(g, h))
    assert lambda_mul(f, lambda_add(g, h)) == lambda_add(
        lambda_mul(f, g), lambda_mul(f, h)
    )
    assert lambda_mul(f, one) == f


# -- ghosts and Witt arithmetic ----------------------------------------------------


def test_ghost_formulas():
    ring = GroundRing.rational_poly(("a1", "a2", "a3", "a4", "a5", "a6"))
    gens = [ring.element(MPoly.gen(ring.variables, v)) for v in ring.variables]
    w = WittVec(ring, gens, 6)
    a1, a2, a3, a4, a5, a6 = gens
    assert ghost(1, w) == a1
    assert ghost(2, w) == a1 ** 2 - a2 * 2
    assert ghost(4, w) == a1 ** 4 + a2 ** 2 * 2 - a4 * 4
    assert ghost(6, w) == a1 ** 6 - a2 ** 3 * 2 + a3 ** 2 * 3 - a6 * 6


def test_ghost_matches_log_derivative_oracle():
    rng = random.Random(1)
    for _ in range(20):
        coords = [rng.randint(-5, 5) for _ in range(8)]
        w = W(coords)
        for n in range(1, 9):
            assert ghost(n, w).payload == ghost_oracle(coords, n), (coords, n)


def test_vectors_hold_a_domain_and_a_payload():
    for cls in (LambdaElem, WittVec):
        assert cls.__slots__ == ()
        v = cls(Z, [1, "2", Z.from_int(3)], 4)
        assert v.payload == (1, 2, 3, 0)
        assert v.a == tuple(map(Z.from_int, (1, 2, 3, 0)))
        assert v.trunc == 4
        assert cls(Z, [1, 2, 3], 2).payload == (1, 2)
        # a and trunc are read-only, and with no __dict__ nothing else is stored
        for name in ("a", "trunc", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        payload = (Fraction(1, 2), 2)
        w = cls._from_payloads(GroundRing.rationals(), payload)
        assert w.payload is payload
    assert LambdaElem.__mro__[1].__slots__ == ("domain", "payload")
    assert hash(W([1, 2])) == hash(W([Fraction(1), Fraction(2)]))


def test_witt_add_example():
    # E-transport: (1+t)^2 = 1 + 2t + t^2 pulls back to (2, 1, -2, 4)
    a = W([1, 0, 0, 0])
    c = witt_add(a, a)
    assert [x.payload for x in c.a] == [2, 1, -2, 4]
    assert witt_add(a, W([0, 0, 0, 0])) == a


def test_witt_zero_is_the_additive_identity():
    rng = random.Random(5)
    for dom in (Z, GroundRing.dual(Z), SeriesRing(Z, 2)):
        zero = witt_zero(dom, 4)
        assert zero == W([0, 0, 0, 0], ring=dom)
        w = WittVec(dom, [_random_scalar(rng, dom) for _ in range(4)], 4)
        assert witt_add(w, zero) == witt_add(zero, w) == w


def test_witt_mul_identity():
    a = W([1, 0, 0, 0])
    assert witt_mul(a, a) == a
    rng = random.Random(2)
    one = W([1, 0, 0, 0, 0])
    for _ in range(5):
        b = W([rng.randint(-4, 4) for _ in range(5)])
        assert witt_mul(b, one) == b


def test_witt_ring_laws_on_samples():
    rng = random.Random(3)
    for _ in range(6):
        a, b, c = (W([rng.randint(-3, 3) for _ in range(5)]) for _ in range(3))
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(
            witt_mul(a, b), witt_mul(a, c)
        )


def test_ghost_naturality_symbolic():
    names = tuple(f"a{i}" for i in range(1, 7)) + tuple(
        f"b{i}" for i in range(1, 7)
    )
    ring = GroundRing.rational_poly(names)
    gens = [ring.element(MPoly.gen(names, v)) for v in names]
    a = WittVec(ring, gens[:6], 6)
    b = WittVec(ring, gens[6:], 6)
    s = witt_add(a, b)
    p = witt_mul(a, b)
    for n in range(1, 7):
        assert ghost(n, s) == ghost(n, a) + ghost(n, b)
        assert ghost(n, p) == ghost(n, a) * ghost(n, b)


def test_witt_universal_polys_agree_with_ghost_solve():
    polys = witt_universal_oracle("add", 4)
    assert all(p.is_integral() for p in polys)
    rng = random.Random(4)
    for _ in range(10):
        a = W([rng.randint(-6, 6) for _ in range(4)])
        b = W([rng.randint(-6, 6) for _ in range(4)])
        assert witt_add(a, b) == witt_eval_oracle("add", a, b)
        assert witt_mul(a, b) == witt_eval_oracle("mul", a, b)


# -- exponential isomorphism ---------------------------------------------------------


def test_exp_iso_examples():
    e = exp_iso(W([1, 2], 3))
    assert [c.payload for c in e.a] == [1, 2, 2]  # 1 + t + 2t^2 + 2t^3
    assert exp_iso_inv(L([1, 0, 0])) == W([1, 0, 0])
    # against the naive product oracle
    rng = random.Random(5)
    for _ in range(10):
        coords = [rng.randint(-4, 4) for _ in range(7)]
        expect = naive_E(coords, 7)[1:]
        assert [c.payload for c in exp_iso(W(coords)).a] == expect


def test_exp_iso_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        w = W([rng.randint(-9, 9) for _ in range(8)])
        assert exp_iso_inv(exp_iso(w)) == w
        f = L([rng.randint(-9, 9) for _ in range(8)])
        assert exp_iso(exp_iso_inv(f)) == f


def test_exp_iso_is_ring_hom_numeric():
    rng = random.Random(7)
    for _ in range(10):
        a = W([rng.randint(-3, 3) for _ in range(8)])
        b = W([rng.randint(-3, 3) for _ in range(8)])
        assert exp_iso(witt_add(a, b)) == lambda_add(exp_iso(a), exp_iso(b))
        assert exp_iso(witt_mul(a, b)) == lambda_mul(exp_iso(a), exp_iso(b))


def test_exp_iso_is_ring_hom_symbolic():
    names = tuple(f"a{i}" for i in range(1, 5)) + tuple(
        f"b{i}" for i in range(1, 5)
    )
    ring = GroundRing.rational_poly(names)
    gens = [ring.element(MPoly.gen(names, v)) for v in names]
    a = WittVec(ring, gens[:4], 4)
    b = WittVec(ring, gens[4:], 4)
    assert exp_iso(witt_add(a, b)) == lambda_add(exp_iso(a), exp_iso(b))
    assert exp_iso(witt_mul(a, b)) == lambda_mul(exp_iso(a), exp_iso(b))


# -- filtration membership --------------------------------------------------------------


def test_filtration_member_prime_ideal():
    assert filtration_member(L([2, 4]), PrimeIdeal(2))
    assert not filtration_member(L([1, 2]), PrimeIdeal(2))
    w = W([2, 4])
    assert filtration_member(w, PrimeIdeal(2))
    assert filtration_member(exp_iso(w), PrimeIdeal(2))


def test_membership_equivalence_over_series_ring():
    dom = SeriesRing(Z, 4)
    rng = random.Random(8)
    seen = set()
    for _ in range(60):
        k = rng.randint(1, 4)
        coords = []
        for _ in range(4):
            if rng.random() < 0.5:
                coords.append(dom.coerce([0] * k + [rng.randint(-3, 3)
                                                    for _ in range(5 - k)]))
            else:
                coords.append(dom.coerce([rng.randint(-3, 3) for _ in range(5)]))
        w = WittVec(dom, coords, 4)
        member_w = filtration_member(w, XAdicIdeal(k))
        member_l = filtration_member(exp_iso(w), XAdicIdeal(k))
        assert member_w == member_l
        seen.add(member_w)
    assert seen == {True, False}


def test_vector_json():
    w = W([1, -2, 3])
    assert w.to_json() == {"witt": ["1", "-2", "3"]}
    f = L([0, 5])
    assert f.to_json() == {"lambda": ["0", "5"]}


def test_witt_arithmetic_over_dual_numbers():
    # the ghost solve divides by n componentwise; the universal polynomials
    # must agree route-for-route
    D = GroundRing.dual(Z)
    rng = random.Random(9)
    for _ in range(6):
        a = WittVec(D, [(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(4)], 4)
        b = WittVec(D, [(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(4)], 4)
        s = witt_add(a, b)
        assert s == witt_eval_oracle("add", a, b)
        assert witt_mul(a, b) == witt_eval_oracle("mul", a, b)
        for n in range(1, 5):
            assert ghost(n, s) == ghost(n, a) + ghost(n, b)


def test_lambda_laws_over_series_ring():
    dom = SeriesRing(Z, 2)
    rng = random.Random(10)

    def rand_elem():
        return LambdaElem(
            dom,
            [dom.coerce([rng.randint(-2, 2) for _ in range(3)])
             for _ in range(4)],
            4,
        )

    for _ in range(4):
        f, g = rand_elem(), rand_elem()
        assert lambda_mul(f, g) == lambda_mul(g, f)
        assert lambda_add(f, g) == lambda_add(g, f)
        assert lambda_mul(f, lambda_one(dom, 4)) == f


# -- Adams operations on Lambda(A) ---------------------------------------------------


ADAMS_DOMAINS = [Z, GroundRing.localized([2]), GroundRing.dual(Z), SeriesRing(Z, 4)]


@pytest.mark.parametrize("dom", ADAMS_DOMAINS, ids=str)
def test_lambda_adams_is_a_ring_endomorphism(dom):
    rng = random.Random(f"adams:{dom}")
    for N in (1, 4, 8, 12):
        f, g = (LambdaElem(dom, [_random_scalar(rng, dom) for _ in range(N)], N)
                for _ in range(2))
        assert lambda_adams(1, f) == f
        for k in (2, 3):
            psi = functools.partial(lambda_adams, k)
            assert psi(f).trunc == N // k
            assert psi(lambda_add(f, g)) == lambda_add(psi(f), psi(g))
            assert psi(lambda_mul(f, g)) == lambda_mul(psi(f), psi(g))
            assert psi(lambda_one(dom, N)) == lambda_one(dom, N // k)
        for m, n in ((2, 3), (3, 2), (2, 2), (5, 1)):
            assert lambda_adams(m, lambda_adams(n, f)) == lambda_adams(m * n, f)


def test_lambda_adams_commutes_with_the_structure_map():
    # lambda_t(psi^k r) = psi^k(lambda_t(r)) for the multiplicative
    # structure on Z[x]/x^7, whose psi^p is x -> (1 + x)^p - 1
    S = standard_structure("mult", Z, trunc=6)
    dom = S.carrier.domain
    rng = random.Random(13)
    for _ in range(4):
        r = dom.coerce([rng.randint(-3, 3) for _ in range(7)])
        f = LambdaElem(dom, lambda_values(S, 8, r)[1:], 8)
        for k in (2, 3):
            M = 8 // k
            expect = LambdaElem(dom, lambda_values(S, M, adams_apply(S, k, r))[1:], M)
            assert lambda_adams(k, f) == expect, (str(r), k)


def test_lambda_adams_rejects_k_below_one():
    with pytest.raises(ValueError):
        lambda_adams(0, L([1, 2]))


# -- the one scalar form: int or Fraction ---------------------------------------


def _scalars(value):
    """Every scalar inside an element: its int or Fraction, dual parts,
    series coefficients."""
    if isinstance(value, TruncSeries):
        return [x for c in value.coeffs for x in _scalars(c)]
    payload = value.payload
    return list(payload) if isinstance(payload, tuple) else [payload]


def _mixed_scalar(rng, dom):
    """A seeded element whose scalars mix integral and non-integral values
    wherever the ring has them."""
    if isinstance(dom, SeriesRing):
        return dom.coerce([_mixed_scalar(rng, dom.ground) for _ in range(dom.trunc + 1)])
    if dom.kind == DUAL:
        return dom.coerce((_mixed_scalar(rng, dom.base), _mixed_scalar(rng, dom.base)))
    if dom.inverted.inverts(2):
        return dom.coerce(Fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 1)))
    return dom.from_int(rng.randint(-3, 3))


PAYLOAD_DOMAINS = [Z, GroundRing.localized([2]), Q, GroundRing.dual(Z),
                   GroundRing.dual(GroundRing.localized([2])),
                   SeriesRing(GroundRing.localized([2]), 2),
                   SeriesRing(GroundRing.dual(Z), 2), SeriesRing(Z, 4)]


def _over_Z(dom):
    ground = dom.ground if isinstance(dom, SeriesRing) else dom
    ground = ground.base if ground.kind == DUAL else ground
    return ground == Z


@pytest.mark.parametrize("dom", PAYLOAD_DOMAINS, ids=str)
def test_no_kernel_int_escapes_into_results(dom):
    """Every Lambda, W and series result scalar is an int or a Fraction,
    never a float or a bool; over Z every one is an int."""
    allowed = (int,) if _over_Z(dom) else (int, Fraction)
    rng = random.Random(f"payloads:{dom}")
    N = 6
    zero = [dom.zero()] * N
    ground = dom.ground if isinstance(dom, SeriesRing) else dom
    for coords in ([_mixed_scalar(rng, dom) for _ in range(N)], zero):
        f = LambdaElem(dom, coords, N)
        w = WittVec(dom, coords, N)
        results = [lambda_add(f, f), lambda_neg(f), lambda_mul(f, f),
                   lambda_op(2, f), lambda_adams(2, f), witt_add(w, w),
                   witt_mul(w, w), exp_iso(w), exp_iso_inv(f),
                   lambda_zero(dom, N), lambda_one(dom, N)]
        scalars = [x for v in results for c in v.a for x in _scalars(c)]
        scalars += _scalars(ghost(N, w))
        sdom = SeriesRing(ground, N - 1)
        s = sdom.coerce([_mixed_scalar(rng, ground) for _ in range(N)])
        g = sdom.coerce([0, 1] + [_mixed_scalar(rng, ground) for _ in range(N - 2)])
        for h in (s + s, s - g, -s, s * g, s * 3, s ** 3, compose(s, g), revert(g)):
            scalars += _scalars(h)
        assert all(type(x) in allowed for x in scalars), (dom, scalars)


_KERNEL_LAW_DOMAINS = [GroundRing.localized([2]), GroundRing.rational_poly(("y1",)),
                       SeriesRing(Z, 4)]


@st.composite
def _kernel_triples(draw):
    dom = draw(st.sampled_from(_KERNEL_LAW_DOMAINS))
    N = draw(st.integers(1, 5))
    if isinstance(dom, SeriesRing):
        scalar = st.lists(st.integers(-3, 3), min_size=5, max_size=5).map(dom.coerce)
    elif dom.kind == QPOLY:
        y = dom.element(MPoly.gen(dom.variables, "y1"))
        scalar = st.tuples(_small, _small).map(lambda c: y * c[0] + c[1])
    else:
        scalar = st.builds(Fraction, st.integers(-9, 9),
                           st.sampled_from([1, 2, 4])).map(dom.coerce)
    return dom, N, [draw(st.lists(scalar, min_size=N, max_size=N)) for _ in range(3)]


@settings(max_examples=30, deadline=None, database=None)
@given(_kernel_triples())
def test_ring_laws_over_mixed_kernel_scalars(case):
    dom, N, coords = case
    f, g, h = (LambdaElem(dom, c, N) for c in coords)
    assert lambda_add(f, g) == lambda_add(g, f)
    assert lambda_add(lambda_add(f, g), h) == lambda_add(f, lambda_add(g, h))
    assert lambda_add(f, lambda_neg(f)) == lambda_zero(dom, N)
    assert lambda_mul(f, g) == lambda_mul(g, f)
    assert lambda_mul(lambda_mul(f, g), h) == lambda_mul(f, lambda_mul(g, h))
    assert lambda_mul(f, lambda_add(g, h)) == lambda_add(lambda_mul(f, g),
                                                         lambda_mul(f, h))
    assert lambda_mul(f, lambda_one(dom, N)) == f
    a, b, c = (WittVec(dom, x, N) for x in coords)
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    assert witt_mul(a, b) == witt_mul(b, a)
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
    assert exp_iso_inv(exp_iso(a)) == a
    assert exp_iso(exp_iso_inv(f)) == f


# -- the generated kernels, proved at a generic point --------------------------
#
# A division-free straight-line form is a polynomial map of its inputs.  With
# a distinct variable of Q[..] at each input, a form that agrees with its loop
# agrees with it as a polynomial, so on every commutative ring; the dividing
# forms (Newton inversion, ghost solve) then agree over every Q-algebra.


def _variables(names):
    """Q[names] and its variables, as MPoly payloads."""
    ring = GroundRing.rational_poly(names)
    return ring, [MPoly.gen(ring.variables, v) for v in ring.variables]


def _prove_series_kernels(N):
    """`_kernels(N)`'s mul, add, sub and scale (by a symbolic c) against
    the schoolbook loops."""
    _, xs = _variables([f"{s}{j}" for s in "ab" for j in range(N + 1)] + ["c"])
    a, b, c = tuple(xs[:N + 1]), tuple(xs[N + 1:-1]), xs[-1]
    mul, add, sub, scale, _ = _kernels(N)
    assert mul(a, b) == tuple(
        functools.reduce(operator.add, [a[i] * b[j - i] for i in range(j + 1)])
        for j in range(N + 1))
    assert add(a, b) == tuple(map(operator.add, a, b))
    assert sub(a, b) == tuple(map(operator.sub, a, b))
    assert scale(a, c) == tuple(x * c for x in a)


def _prove_compose_kernels(N):
    """`_compose_kernels(N)`'s table against `_grow_powers`, its dot on a
    table of independent variables against the dot-product loop, and its
    revert at independent c_2..c_N against `_grow_powers` with the solve
    callback of `revert`."""
    cells = [(j, k) for j in range(1, N + 1) for k in range(1, j + 1)]
    ring, xs = _variables([f"F{k}" for k in range(N + 1)]
                          + [f"g{j}" for j in range(1, N + 1)]
                          + [f"t{j}_{k}" for j, k in cells]
                          + [f"c{k}" for k in range(2, N + 1)])
    F, G = xs[:N + 1], [ring._pzero()] + xs[N + 1:2 * N + 1]
    t, c = xs[2 * N + 1:2 * N + 1 + len(cells)], xs[2 * N + 1 + len(cells):]
    table, dot, revert_kernel = _compose_kernels(N)
    total, mul = _scalar_form(ring)
    rows = _grow_powers(list(G), total, mul)
    assert table(G) == tuple(tuple(rows[k][j] for k in range(1, j + 1))
                             for j in range(1, N + 1))
    T = tuple(tuple(t[j * (j - 1) // 2:j * (j + 1) // 2])
              for j in range(1, N + 1))
    assert dot(F, T) == (F[0], *(total(map(mul, F[1:], col)) for col in T))
    s = [ring._pzero(), ring._pfrom_int(1)] + [None] * (N - 1)
    _grow_powers(s, total, mul, lambda j, rows: total(
        map(mul, c, [row[j] for row in rows[2:j + 1]])))
    assert revert_kernel(c) == tuple(s)


def _prove_newton_kernels(M):
    """The four forms of `_kernel` at M, in both spellings, against their
    loops; the ghost map also with a zero a_d at each degree d >= 2."""
    ring, a = _variables([f"a{n}" for n in range(1, M + 1)])
    calls = GroundRing.rational_poly(ring.variables)
    calls._inline_ops = False  # the op-call spelling, called with MPoly's ops
    zeros = [a[:d - 1] + [ring._pzero()] + a[d:] for d in range(2, M + 1)]
    expect = (_power_sums_loop(ring, a, M), _from_power_sums_loop(ring, a),
              _ghost_solve_loop(ring, a),
              [_ghosts_loop(ring, x, M) for x in [a] + zeros])
    for dom in (ring, calls):
        assert (_power_sums(dom, a, M), _from_power_sums(dom, a),
                _ghost_solve(dom, a),
                [_ghosts(dom, x, M) for x in [a] + zeros]) == expect
    assert {(r, M, inline) for r in _ROUTINES for inline in (True, False)} \
        <= set(_NEWTON_KERNELS)


def test_generated_kernels_equal_their_loops_at_a_generic_point():
    for N in range(_KERNEL_MAX_N + 1):
        _prove_series_kernels(N)
    for N in range(1, _COMPOSE_MAX_N + 1):
        _prove_compose_kernels(N)
    for M in range(1, _NEWTON_MAX_M + 1):
        _prove_newton_kernels(M)
