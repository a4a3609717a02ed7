"""Truncated power series: arithmetic, composition, reversion, congruence.

The payload kernel in `wittlam.series` is checked against the
RingElement-level routes it replaced, kept here as oracles: sums,
differences, negation, scalar operations and exact division coefficient
by coefficient, the coefficient-by-coefficient convolution, Horner's rule
on whole series, powers by repeated multiplication, and reversion by one
composition per degree.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlam.errors import (ExactDivisionError, InputError, MembershipError,
                            RingMismatchError)
from wittlam.ground import DUAL, QPOLY, GroundRing
from wittlam.series import (SeriesRing, TruncSeries, _power_table, compose,
                            congruent_mod, revert, xadic_valuation)
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
