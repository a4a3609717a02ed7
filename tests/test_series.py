"""Truncated power series: arithmetic, composition, reversion, congruence.

The payload kernel in `wittlam.series` is checked against the
RingElement-level routes it replaced, kept here as oracles: sums,
differences, negation, scalar operations and exact division coefficient
by coefficient, the coefficient-by-coefficient convolution, Horner's rule
on whole series, powers by repeated multiplication, and reversion by one
composition per degree.  Products and powers over Z[S^-1] are also
checked across the straight-line kernel's size limit against a schoolbook
double loop on Python numbers, and every payload op of a series ring over
Z against loops on Python ints.
"""

import math
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
from wittlam import series
from wittlam.errors import (ExactDivisionError, InputError, MembershipError,
                            RingMismatchError)
from wittlam.ground import DUAL, QPOLY, GroundRing, PrimeIdeal
from wittlam.series import (_COMPOSE_KERNELS, _COMPOSE_MAX_N, _KERNEL_MAX_N,
                            _KERNELS, SeriesRing, TruncSeries, _power_table,
                            compose, congruent_mod, revert, xadic_valuation)
from wittlam.sympoly import MPoly

Z = GroundRing.integers()
Q = GroundRing.rationals()
Z2 = GroundRing.localized([2])
DZ = GroundRing.dual(Z)
QY = GroundRing.rational_poly(("y1",))


# ---------------------------------------------------------------------------
# oracles: the RingElement-level routes
# ---------------------------------------------------------------------------


def _coeffwise(f, coeffs):
    return f.domain.coerce(coeffs)


def add_oracle(f, g):
    return _coeffwise(f, [a + b for a, b in zip(f.coeffs, g.coeffs)])


def sub_oracle(f, g):
    return _coeffwise(f, [a - b for a, b in zip(f.coeffs, g.coeffs)])


def neg_oracle(f):
    return _coeffwise(f, [-a for a in f.coeffs])


def shift_oracle(f, c):
    """f + c for a scalar c: c added to the constant coefficient."""
    return _coeffwise(f, [f.coeffs[0] + c, *f.coeffs[1:]])


def scale_oracle(f, c):
    return _coeffwise(f, [a * c for a in f.coeffs])


def div_int_oracle(f, n):
    return _coeffwise(f, [f.ring.div_int(a, n) for a in f.coeffs])


def mul_oracle(f, g):
    """f * g by the RingElement convolution."""
    N = f.trunc
    out = [f.ring.zero()] * (N + 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs[: N + 1 - i]):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return f.domain.coerce(out)


def pow_oracle(f, k):
    """f ** k by k - 1 multiplications."""
    out = f.domain.one()
    for _ in range(k):
        out = mul_oracle(out, f)
    return out


def compose_oracle(f, g):
    """f(g) by Horner's rule on whole series, h_k = h_{k+1} * g + f_k."""
    N = f.trunc
    out = f.domain.coerce(f[N])
    for k in range(N - 1, -1, -1):
        out = mul_oracle(out, g) + f[k]
    return out


def revert_oracle(f):
    """The inverse of f by one composition per degree: g_k is read off
    f(g) with g known to degree k - 1."""
    ring, dom, N = f.ring, f.domain, f.trunc
    u = ring.try_invert(f.linear_coeff())
    if not f.constant_term().is_zero() or u is None:
        raise ValueError("no compositional inverse")
    coeffs = [ring.zero()] * (N + 1)
    coeffs[1] = u
    for k in range(2, N + 1):
        coeffs[k] = -u * compose(f, dom.coerce(coeffs))[k]
    return dom.coerce(coeffs)


def element_pow_oracle(a, k):
    """a ** k for a RingElement by k multiplications."""
    out = a.ring.one()
    for _ in range(k):
        out = out * a
    return out


def _random_payload(rng, ring, den):
    """A random payload of ring, zero about a quarter of the time; den
    sets the denominators used over Z[1/2] and Q."""
    if rng.random() < 0.25:
        return ring.zero().payload
    if ring.kind == DUAL:
        return (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
    if ring.kind == QPOLY:
        terms = {(e,): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for e in range(2)}
        return MPoly(ring.variables, terms)
    return Fraction(rng.randint(-9, 9), den(rng))


KERNEL_RINGS = [
    (Z, lambda rng: 1, lambda rng: 1),
    # the two operands get different denominators: lcm 2 vs lcm up to 8
    (Z2, lambda rng: 2, lambda rng: 2 ** rng.randint(0, 3)),
    (Q, lambda rng: rng.randint(1, 6), lambda rng: rng.randint(1, 9)),
    (DZ, None, None),
    (QY, None, None),
]
KERNEL_SIZES = [0, 1, 2, 7, 16]


def _random_series(rng, ring, N, den, constant=True):
    coeffs = [_random_payload(rng, ring, den) for _ in range(N + 1)]
    if not constant:
        coeffs[0] = ring.zero().payload
    return SeriesRing(ring, N).coerce([ring.element(c) for c in coeffs])


def _kernel_cases(seed):
    for ring, den_f, den_g in KERNEL_RINGS:
        rng = random.Random(f"{seed}:{ring}")
        for N in KERNEL_SIZES:
            f = _random_series(rng, ring, N, den_f)
            g = _random_series(rng, ring, N, den_g)
            yield ring, N, f, g


def S(coeffs, trunc, ring=Z):
    return SeriesRing(ring, trunc).coerce(coeffs)


def test_series_is_an_element_of_its_series_ring():
    f = S([1, 2, 3], 2)
    assert TruncSeries.__slots__ == ("domain", "payload")
    assert f.domain == SeriesRing(Z, 2)
    assert f.payload == (1, 2, 3)
    assert f.domain._unwrap(f) is f.payload
    assert f.domain._wrap(f.payload) == f
    assert (f.ring, f.trunc) == (Z, 2)
    assert f.coeffs == tuple(map(Z.from_int, (1, 2, 3)))
    assert f[2] == f[-1] == Z.from_int(3)
    with pytest.raises(TypeError):
        f[1:]
    with pytest.raises(AttributeError):
        f.trunc = 3


def test_series_arith_examples():
    f = S([1, 1], 3)
    g = S([1, -1], 3)
    assert f * g == S([1, 0, -1, 0], 3)
    # truncation kills x*x at N=1
    assert S([0, 1], 1) * S([0, 1], 1) == S([0, 0], 1)
    assert S([1, 2, 1], 2) * S([1, 1, 0], 2) == S([1, 3, 3], 2)
    assert f + g == S([2, 0], 3)


def test_series_mismatch():
    with pytest.raises(RingMismatchError):
        S([1], 2) + S([1], 3)
    with pytest.raises(RingMismatchError):
        S([1], 2) * SeriesRing(Q, 2).coerce([1])


def test_compose_examples():
    f = S([0, 0, 1], 4)  # x^2
    g = S([0, 2, 1], 4)  # 2x + x^2
    assert compose(f, g) == S([0, 0, 4, 4, 1], 4)
    h = S([3, 1, 4, 1, 5], 4)
    assert compose(h, SeriesRing(Z, 4).x()) == h
    assert compose(SeriesRing(Z, 4).x(), g) == g
    with pytest.raises(ValueError):
        compose(f, S([1, 1], 4))


def test_compose_associative_on_samples():
    rng = random.Random(0)
    for _ in range(15):
        f, g, h = (
            S([0] + [rng.randint(-3, 3) for _ in range(5)], 5) for _ in range(3)
        )
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_revert_examples():
    x = SeriesRing(Z, 3).x()
    assert revert(x) == x
    f = S([0, 1, 1], 3)  # x + x^2
    g = revert(f)
    assert g == S([0, 1, -1, 2], 3)
    assert compose(f, g) == SeriesRing(Z, 3).x()
    assert compose(g, f) == SeriesRing(Z, 3).x()
    with pytest.raises(ExactDivisionError):
        revert(S([0, 2], 3))  # 2 is not a unit of Z
    # but it is a unit of Z[1/2]
    Z2 = GroundRing.localized([2])
    r = revert(SeriesRing(Z2, 3).coerce([0, 2, 1]))
    assert compose(r.domain.coerce([0, 2, 1]), r) == r.domain.x()


def test_revert_roundtrip_on_samples():
    rng = random.Random(7)
    for _ in range(10):
        f = S([0, rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(6)], 7)
        g = revert(f)
        assert compose(f, g) == SeriesRing(Z, 7).x()
        assert compose(g, f) == SeriesRing(Z, 7).x()


def test_congruent_mod():
    f = S([0, 2, 1], 2)
    g = S([0, 0, 1], 2)
    assert congruent_mod(f, g, 2)
    assert not congruent_mod(S([0, 3, 1], 2), g, 2)
    # any pair over Q: p is a unit
    Q2 = SeriesRing(Q, 2)
    assert congruent_mod(Q2.coerce([0, 1, 7]), Q2.coerce([0]), 5)
    # psi^2(x) = (1+x)^2 - 1 == x^2 mod 2
    psi = (SeriesRing(Z, 8).x() + 1) ** 2 - 1
    assert congruent_mod(psi, SeriesRing(Z, 8).coerce([0, 0, 1]), 2)


def test_xadic_valuation():
    assert xadic_valuation(S([0, 0, 1], 4)) == 2
    assert xadic_valuation(S([0, 0, 0], 2)) == math.inf
    assert xadic_valuation(S([1, 1], 2)) == 0


def test_valuation_superadditive_on_samples():
    rng = random.Random(3)
    for _ in range(25):
        f = S([rng.randint(-2, 2) for _ in range(6)], 5)
        g = S([rng.randint(-2, 2) for _ in range(6)], 5)
        vf, vg = xadic_valuation(f), xadic_valuation(g)
        # truncation caps what we can observe at degree N
        assert xadic_valuation(f * g) >= min(vf + vg, 6)


def test_series_ring_domain():
    dom = SeriesRing(Z, 4)
    x = dom.x()
    assert dom.one() + x == S([1, 1], 4)
    assert dom.div_int(S([0, 2, 4], 4), 2) == S([0, 1, 2], 4)
    with pytest.raises(ExactDivisionError):
        dom.div_int(S([0, 1], 4), 2)
    assert dom.is_p_divisible(S([0, 2, 4], 4), 2)
    assert dom.parse("1,2,3") == S([1, 2, 3], 4)
    assert dom.format(S([1, 2, 3], 4)) == "1,2,3,0,0"


def test_revert_over_dual_numbers():
    D = GroundRing.dual(Z)
    # linear coefficient 1 + 2*eps is a unit of Z[eps]
    f = SeriesRing(D, 3).coerce([(0, 0), (1, 2), (3, -1), (0, 5)])
    g = revert(f)
    assert compose(f, g) == SeriesRing(D, 3).x()
    assert compose(g, f) == SeriesRing(D, 3).x()


def test_series_text_and_json():
    f = S([1, 0, -2], 4)
    assert str(f) == "1 - 2*x^2"
    assert TruncSeries.from_json(f.to_json()) == f
    dual = GroundRing.dual(Z)
    g = SeriesRing(dual, 2).coerce([(0, 1), (2, 0)])
    assert "eps" in str(g)
    assert TruncSeries.from_json(g.to_json()) == g
    data = f.to_json()
    assert data["x_filtration"] == 1
    del data["x_filtration"]
    assert TruncSeries.from_json(data) == f
    for bad in (2, 1.0, True, "1"):
        data["x_filtration"] = bad
        with pytest.raises(InputError, match="x_filtration must be 1"):
            TruncSeries.from_json(data)


def _series_data(**fields):
    data = SeriesRing(Z, 2).coerce([1, 2, 3]).to_json()
    data.update(fields)
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize("data, match", [
    pytest.param(_series_data(N=None), "malformed series: KeyError", id="N-missing"),
    pytest.param(_series_data(N="3"), "N must be an integer >= 0, got '3'",
                 id="N-string"),
    pytest.param(_series_data(N=True), "N must be an integer >= 0, got True",
                 id="N-bool"),
    pytest.param(_series_data(N=-1), "N must be an integer >= 0, got -1",
                 id="N-negative"),
    pytest.param(_series_data(coeffs="1,2,3"), "coeffs .* is not a list",
                 id="coeffs-string"),
    pytest.param(_series_data(coeffs=7), "coeffs .* is not a list", id="coeffs-int"),
    pytest.param(_series_data(coeffs=None), "malformed series: KeyError",
                 id="coeffs-missing"),
    pytest.param(_series_data(ring=None), "malformed series: KeyError",
                 id="ring-missing"),
    pytest.param([1, 2, 3], "malformed series: AttributeError", id="list"),
])
def test_malformed_series_json_is_an_input_error(data, match):
    with pytest.raises(InputError, match=match):
        TruncSeries.from_json(data)


def test_series_ring_needs_a_truncation():
    assert SeriesRing(Z, 0).x() == SeriesRing(Z, 0).zero()
    for bad in (-1, "3", True, 2.0, None):
        with pytest.raises(InputError, match="N must be an integer >= 0"):
            SeriesRing(Z, bad)


# ---------------------------------------------------------------------------
# the payload kernel against the oracles
# ---------------------------------------------------------------------------


def test_linear_operations_agree_with_oracle():
    for ring, N, f, g in _kernel_cases("linear"):
        c = g.constant_term()
        assert f + g == add_oracle(f, g), (ring, N)
        assert f - g == sub_oracle(f, g), (ring, N)
        assert -f == neg_oracle(f), (ring, N)
        assert f + c == c + f == shift_oracle(f, c), (ring, N)
        assert f - c == shift_oracle(f, -c), (ring, N)
        assert c - f == neg_oracle(shift_oracle(f, -c)), (ring, N)
        assert f * c == c * f == scale_oracle(f, c), (ring, N)
        for n in (-3, 0, 2):
            assert f + n == n + f == shift_oracle(f, ring.from_int(n)), (ring, N)
            assert f * n == n * f == scale_oracle(f, ring.from_int(n)), (ring, N)


def test_div_int_agrees_with_oracle():
    for ring, N, f, _ in _kernel_cases("div_int"):
        for n in (2, 3, -6):
            assert (f * n).div_int(n) == div_int_oracle(f * n, n) == f, (ring, N)
            try:
                expect = div_int_oracle(f, n)
            except ExactDivisionError:
                with pytest.raises(ExactDivisionError):
                    f.div_int(n)
            else:
                assert f.div_int(n) == expect, (ring, N, n)
        with pytest.raises(ZeroDivisionError):
            f.div_int(0)


def test_mul_agrees_with_oracle():
    for ring, N, f, g in _kernel_cases("mul"):
        assert f * g == mul_oracle(f, g), (ring, N)
        assert g * f == mul_oracle(f, g), (ring, N)
        assert f * f == mul_oracle(f, f), (ring, N)


def test_pow_agrees_with_oracle():
    for ring, N, f, _ in _kernel_cases("pow"):
        for k in range(6):
            assert f ** k == pow_oracle(f, k), (ring, N, k)


def test_compose_agrees_with_oracle():
    for ring, N, f, g in _kernel_cases("compose"):
        g = g - g.constant_term()
        assert compose(f, g) == compose_oracle(f, g), (ring, N)
        assert compose(g, g) == compose_oracle(g, g), (ring, N)


def test_compose_into_one_inner_series_agrees_with_oracle():
    # the power table of g is built by the first composition and read by
    # the rest
    for ring, den_f, den_g in KERNEL_RINGS:
        rng = random.Random(f"one g:{ring}")
        for N in (1, 7, 16):
            g = _random_series(rng, ring, N, den_g, constant=False)
            for _ in range(12):
                f = _random_series(rng, ring, N, den_f)
                assert compose(f, g) == compose_oracle(f, g), (ring, N)


def test_power_table_memo_stays_bounded():
    maxsize = _power_table.cache_info().maxsize
    rng = random.Random("memo")
    f = S([1, 2, 3, 4, 5, 6], 5)
    for _ in range(maxsize + 10):
        g = S([0] + [rng.randint(-50, 50) for _ in range(5)], 5)
        assert compose(f, g) == compose_oracle(f, g)
    assert _power_table.cache_info().currsize <= maxsize


def test_kernel_table_is_lazy_and_bounded():
    # importing the library builds no kernel
    env = dict(os.environ, PYTHONPATH=str(Path(wittlam.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import wittlam, wittlam.series; print(len(wittlam.series._KERNELS))"],
        capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
    # past the limit products run the row loop and build nothing
    before = set(_KERNELS)
    for N in (33, 64):
        f = S(list(range(1, N + 2)), N)
        assert f * f == mul_oracle(f, f)
        assert f ** 3 == pow_oracle(f, 3)
    assert set(_KERNELS) == before
    for N in range(65):
        f = S([1, -2, 3], N)
        assert f * f == f ** 2
    # at most 33 kernels, one per N <= 32
    assert set(_KERNELS) <= set(range(_KERNEL_MAX_N + 1))
    # importing the library builds no composition kernel either
    done = subprocess.run(
        [sys.executable, "-c",
         "import wittlam, wittlam.series; "
         "print(len(wittlam.series._COMPOSE_KERNELS))"],
        capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
    # past its limit composition runs `_grow_powers` and builds nothing
    before = set(_COMPOSE_KERNELS)
    for N in (_COMPOSE_MAX_N + 1, 24):
        f = S(list(range(1, N + 2)), N)
        g = S([0, 1, -1, 2], N)
        assert compose(f, g) == compose_oracle(f, g)
    assert set(_COMPOSE_KERNELS) == before
    for N in range(33):
        f = S([1, -2, 3], N)
        assert compose(f, S([0, 1, 1], N)) == compose_oracle(f, S([0, 1, 1], N))
    # at most one composition kernel per 1 <= N <= _COMPOSE_MAX_N
    assert set(_COMPOSE_KERNELS) <= set(range(1, _COMPOSE_MAX_N + 1))
    # over Z the scaling and the exact division come with the product
    # kernels, for N <= _KERNEL_MAX_N only
    for N in (0, 4, _KERNEL_MAX_N):
        dom = SeriesRing(Z, N)
        assert (dom._pscale, dom._pdiv_int) == _KERNELS[N][3:]
    for N in (_KERNEL_MAX_N + 1, 40):
        dom = SeriesRing(Z, N)
        assert dom._pdiv_int(tuple(range(0, 3 * N + 3, 3)), 3) == tuple(range(N + 1))
        with pytest.raises(ExactDivisionError,
                           match="^7 is not divisible by 3 in Z$"):
            dom._pdiv_int((3,) * N + (7,), 3)
        for op in (dom._pscale, dom._pdiv_int):
            assert op.__code__.co_filename == series.__file__
    assert set(_KERNELS) <= set(range(_KERNEL_MAX_N + 1))


def test_compose_of_localized_series_keeps_its_denominators():
    # f = x/2 + x^2/3 over Q, g = x/4 + x^2: d_f = 6, d_g = 4
    f = SeriesRing(Q, 3).coerce([0, Fraction(1, 2), Fraction(1, 3)])
    g = SeriesRing(Q, 3).coerce([0, Fraction(1, 4), 1])
    # f(g) = g/2 + g^2/3 = x/8 + (1/2 + 1/48) x^2 + (1/6) x^3
    assert compose(f, g) == SeriesRing(Q, 3).coerce(
        [0, Fraction(1, 8), Fraction(25, 48), Fraction(1, 6)]
    )
    assert compose(f, g) == compose_oracle(f, g)


def test_element_pow_agrees_with_oracle():
    for ring, den, _ in KERNEL_RINGS:
        rng = random.Random(f"element_pow:{ring}")
        for _ in range(8):
            a = ring.element(_random_payload(rng, ring, den))
            for k in range(7):
                got = a ** k
                assert got == element_pow_oracle(a, k), (ring, a, k)
                assert got.ring is ring
    with pytest.raises(ValueError):
        Z.from_int(2) ** -1


def test_kernel_results_stay_in_the_ring():
    f = SeriesRing(Z2, 4).coerce([1, Fraction(1, 2), Fraction(3, 4)])
    for h in (f * f, f ** 3, compose(f, f - 1)):
        assert all(c.ring is Z2 for c in h.coeffs)
        assert all(Z2.contains_payload(c.payload) for c in h.coeffs)
    # products leave Fraction(n, 1) where a coefficient is integral; such a
    # payload lifts with denominator 1 and its powers stay tuples
    dom = SeriesRing(Q, 2)
    p = (Fraction(2), Fraction(0), Fraction(-1))
    for got in (dom._pmul(p, p), dom._ppow(p, 1), dom._ppow(p, 2)):
        assert type(got) is tuple and got == dom._pmul((1, 0, 0), got)


def test_scalar_operands():
    f = SeriesRing(Z, 2).coerce([1, 2, 3])
    assert f * 2 == 2 * f == SeriesRing(Z, 2).coerce([2, 4, 6])
    assert f + 1 == 1 + f == SeriesRing(Z, 2).coerce([2, 2, 3])
    assert f - 1 == SeriesRing(Z, 2).coerce([0, 2, 3])
    assert 1 - f == SeriesRing(Z, 2).coerce([0, -2, -3])
    assert f * Z.from_int(-1) == -f
    # a value coerce cannot take is left to the other operand: TypeError
    for op in (lambda: f * object(), lambda: object() * f, lambda: f + object(),
               lambda: f - object(), lambda: f * 1.5):
        with pytest.raises(TypeError):
            op()
    # values coerce can read but that are wrong keep their typed errors
    with pytest.raises(MembershipError):
        f * Fraction(1, 2)
    with pytest.raises(RingMismatchError):
        f + Q.from_int(1)


def _unit(rng, ring):
    """A random unit of ring, one of KERNEL_RINGS: +-1 over Z, +-2^e over
    Z[1/2], +-1 + b eps over dual(Z), a nonzero constant over Q and Q[y1]."""
    if ring == Z:
        return ring.element(rng.choice([1, -1]))
    if ring == Z2:
        return ring.element(rng.choice([1, -1]) * Fraction(2) ** rng.randint(-3, 3))
    if ring == DZ:
        return ring.element((rng.choice([1, -1]), rng.randint(-5, 5)))
    q = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 9))
    return ring.coerce(q)


@pytest.mark.parametrize("N", [0, 1, 2, 7, 16, 32])
def test_revert_agrees_with_oracle(N):
    for ring, den, _ in KERNEL_RINGS:
        if ring == QY and N > 7:
            continue  # its oracle takes 1.2 s a case at N = 16 on a 2-core machine
        rng = random.Random(f"revert:{ring}:{N}")
        for _ in range(4 if N > 16 else 10):
            f = _random_series(rng, ring, N, den, constant=False)
            if N == 0:
                with pytest.raises(ExactDivisionError):
                    revert(f)
                with pytest.raises(ValueError):
                    revert_oracle(f)
                continue
            f = f.domain.coerce([0, _unit(rng, ring), *f.coeffs[2:]])
            g = revert(f)
            assert g == revert_oracle(f), (ring, N)
            assert all(ring.contains_payload(c) for c in g.payload)
            if ring == Z:
                assert all(type(c) is int for c in g.payload)
            if ring == DZ:
                assert all(type(c) is int for pair in g.payload for c in pair)
            x = f.domain.x()
            assert compose(f, g) == x and compose(g, f) == x, (ring, N)


@settings(max_examples=60, deadline=None, database=None)
@given(
    N=st.integers(1, 12),
    unit=st.sampled_from([1, -1]),
    tail=st.lists(st.integers(-5, 5), min_size=11, max_size=11),
)
def test_revert_is_a_two_sided_inverse(N, unit, tail):
    f = SeriesRing(Z, N).coerce([0, unit] + tail[: N - 1])
    g = revert(f)
    x = SeriesRing(Z, N).x()
    assert compose(f, g) == x
    assert compose(g, f) == x


# ---------------------------------------------------------------------------
# products over Z[S^-1] on both sides of the straight-line kernel's limit
# ---------------------------------------------------------------------------


def _schoolbook(a, b):
    """a * b cut at degree len(a) - 1 by the double loop over (i, j)."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def _schoolbook_pow(a, k):
    out = [1] + [0] * (len(a) - 1)
    for _ in range(k):
        out = _schoolbook(out, a)
    return out


_BIG = 2 ** 256
_INTS = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-_BIG, _BIG))


@st.composite
def _coefficients(draw, N, values):
    """N + 1 values with a run of zeros at a drawn place."""
    coeffs = draw(st.lists(values, min_size=N + 1, max_size=N + 1))
    lo = draw(st.integers(0, N + 1))
    hi = draw(st.integers(lo, N + 1))
    coeffs[lo:hi] = [0] * (hi - lo)
    return coeffs


def _fractions(dens):
    return st.builds(Fraction, _INTS, st.sampled_from(dens))


@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_products_match_schoolbook_across_the_kernel_limit(data):
    N = data.draw(st.integers(0, 40), label="N")
    k = data.draw(st.integers(0, 5), label="k")
    dom = SeriesRing(Z, N)
    a, b = (tuple(data.draw(_coefficients(N, _INTS))) for _ in range(2))
    for got, expect in [(dom._pmul(a, b), _schoolbook(a, b)),
                        (dom._ppow(a, k), _schoolbook_pow(a, k))]:
        assert type(got) is tuple and list(got) == expect
        assert all(type(c) is int for c in got)
    # over Z[1/2] and Q the operands get different denominators, and the
    # lift to integer numerators must give what Fraction arithmetic gives;
    # a holds ints where it is integral, b only Fractions, as products leave
    for ring, dens in [(Z2, [1, 2, 4, 8, 16]), (Q, [1, 2, 3, 5, 6, 7, 12])]:
        dom = SeriesRing(ring, N)
        a, b = (data.draw(_coefficients(N, _fractions(dens))) for _ in range(2))
        pa = tuple(ring.coerce(q).payload for q in a)
        pb = tuple(map(Fraction, b))
        for got, expect in [(dom._pmul(pa, pb), _schoolbook(a, b)),
                            (dom._ppow(pa, k), _schoolbook_pow(a, k)),
                            (dom._ppow(pb, k), _schoolbook_pow(b, k))]:
            assert type(got) is tuple and list(got) == expect
            assert all(ring.contains_payload(c) for c in got)


# ---------------------------------------------------------------------------
# composition over Z[S^-1] on both sides of the generated kernels' limit
# ---------------------------------------------------------------------------


_WORDS = st.one_of(st.just(0), st.sampled_from([1, -1]),
                   st.integers(-2 ** 64, 2 ** 64))


def _grown_table(gp):
    """The columns ((g^k)_j for k = 1..j) for j = 1..N of an integer
    payload gp, read off `_grow_powers` run on it directly."""
    rows = series._grow_powers(list(gp), sum, operator.mul)
    return tuple(tuple(rows[k][j] for k in range(1, j + 1))
                 for j in range(1, len(gp)))


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_compose_matches_the_oracle_across_the_kernel_limit(data):
    N = data.draw(st.integers(0, 24), label="N")
    fs = data.draw(_coefficients(N, _WORDS), label="f numerators")
    gs = [0] + data.draw(_coefficients(N, _WORDS), label="g numerators")[1:]
    # the numerators are shared; each ring draws its own denominators
    for ring, dens in [(Z, [1]), (Z2, [1, 2, 4, 8]), (Q, [1, 2, 3, 5, 6, 7])]:
        ds = data.draw(st.lists(st.sampled_from(dens), min_size=2 * N + 2,
                                max_size=2 * N + 2))
        dom = SeriesRing(ring, N)
        f = dom.coerce(list(map(Fraction, fs, ds)))
        g = dom.coerce(list(map(Fraction, gs, ds[N + 1:])))
        h = compose(f, g)
        assert h == compose_oracle(f, g), (ring, N)
        if ring == Z:
            assert all(type(c) is int for c in h.payload)
            assert _power_table(g.payload) == (_grown_table(g.payload), 1)


@pytest.mark.parametrize("N", range(1, _COMPOSE_MAX_N + 2))
def test_compose_matches_the_oracle_at_each_truncation_to_the_kernel_limit(N):
    # one fixed case per N, so that a fault at a single N cannot pass
    rng = random.Random(f"compose:{N}")
    words = [0, 0, 1, -1, 3, 2 ** 64, -(2 ** 64) + 1]
    fs = [rng.choice(words) for _ in range(N + 1)]
    gs = [0] + [rng.choice(words) for _ in range(N)]
    for ring, dens in [(Z, [1]), (Z2, [1, 2, 4, 8])]:
        dom = SeriesRing(ring, N)
        f = dom.coerce([Fraction(x, rng.choice(dens)) for x in fs])
        g = dom.coerce([Fraction(x, rng.choice(dens)) for x in gs])
        h = compose(f, g)
        assert h == compose_oracle(f, g), (ring, N)
        if ring == Z:
            assert all(type(c) is int for c in h.payload)


# ---------------------------------------------------------------------------
# the payload ops bound by SeriesRing, against loops on Python numbers
# ---------------------------------------------------------------------------


_DIVISORS = st.one_of(st.sampled_from([1, -1, 2, 3, -6, 7]),
                      st.integers(-_BIG, _BIG).filter(bool))
_QY_PAYLOADS = st.builds(
    lambda c0, c1: MPoly(("y1",), {(0,): c0, (1,): c1}),
    _fractions([1, 2, 3]), _fractions([1, 2, 3]))
_GROUND_PAYLOADS = [
    (Z2, _fractions([1, 2, 4, 8]).map(lambda q: Z2.coerce(q).payload)),
    (Q, _fractions([1, 2, 3, 5, 6, 7, 12]).map(lambda q: Q.coerce(q).payload)),
    (QY, _QY_PAYLOADS),
    (DZ, st.tuples(_INTS, _INTS)),
]


def _all_ints(payload):
    return type(payload) is tuple and all(type(c) is int for c in payload)


@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_bound_payload_ops_match_loops_on_numbers(data):
    N = data.draw(st.integers(0, 40), label="N")
    k = data.draw(st.integers(0, 5), label="k")
    c = data.draw(_INTS, label="c")
    n = data.draw(_DIVISORS, label="n")
    dom = SeriesRing(Z, N)
    a, b = (tuple(data.draw(_coefficients(N, _INTS))) for _ in range(2))
    an = tuple(x * n for x in a)
    for got, expect in [(dom._padd(a, b), [x + y for x, y in zip(a, b)]),
                        (dom._psub(a, b), [x - y for x, y in zip(a, b)]),
                        (dom._pneg(a), [-x for x in a]),
                        (dom._pscale(a, c), [x * c for x in a]),
                        (dom._pmul(a, b), _schoolbook(a, b)),
                        (dom._ppow(a, k), _schoolbook_pow(a, k)),
                        (dom._pdiv_int(an, n), list(a))]:
        assert _all_ints(got) and list(got) == expect
    assert dom._pis_zero(a) is (a == (0,) * (N + 1))
    assert dom._pis_zero(dom._pzero())
    failing = [x for x in a if x % n]
    if not failing:
        got = dom._pdiv_int(a, n)
        assert _all_ints(got) and list(got) == [x // n for x in a]
    else:
        with pytest.raises(ExactDivisionError) as info:
            dom._pdiv_int(a, n)
        with pytest.raises(ExactDivisionError) as ground:
            Z._pdiv_int(failing[0], n)
        assert str(info.value) == str(ground.value)
    # every other ground: sums and differences coefficient by coefficient
    for ring, values in _GROUND_PAYLOADS:
        dom = SeriesRing(ring, N)
        a, b = (tuple(data.draw(st.lists(values, min_size=N + 1, max_size=N + 1)))
                for _ in range(2))
        assert dom._padd(a, b) == tuple(map(ring._padd, a, b))
        assert dom._psub(a, b) == tuple(map(ring._psub, a, b))
        assert dom._pscale(a, c) == tuple(ring._pscale(x, c) for x in a)


def test_integer_series_ops_never_lift(monkeypatch):
    def lift(payloads):
        raise AssertionError("an integer payload was lifted")

    monkeypatch.setattr(series, "_lift", lift)
    for N in (0, 4, 12, 33):
        dom = SeriesRing(Z, N)
        a = tuple(range(1, N + 2))
        b = tuple(range(-N, 1))
        dom._padd(a, b), dom._psub(a, b), dom._pneg(a), dom._pscale(a, 3)
        dom._pmul(a, b), dom._pis_zero(a), dom._pdiv_int(a, 1)
        for k in range(4):
            dom._ppow(a, k)
        # a ring with denominators does lift, so the patch is in force
        with pytest.raises(AssertionError, match="lifted"):
            SeriesRing(Z2, N)._pmul(a, b)


def test_divisibility_reads_payloads_as_the_element_route():
    for ring, N, f, g in _kernel_cases("divisible"):
        dom = f.domain
        for p in (2, 3, 5):
            for h in (f, g, f * p, g * p + f * p * p):
                expect = all(ring.is_p_divisible(c, p) for c in h.coeffs)
                assert dom.is_p_divisible(h, p) is expect, (ring, N, p)
                assert dom.in_ideal(h, PrimeIdeal(p)) is expect, (ring, N, p)
        for bad in (1, 4, -2):
            with pytest.raises(ValueError, match=f"{bad} is not prime"):
                dom.is_p_divisible(f, bad)
