"""Ground rings: exact scalars, membership, divisibility, binomials, and
the payload kernel against hand-written arithmetic."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlam.errors import (ExactDivisionError, InputError, MembershipError,
                            RingMismatchError, UnsupportedRingError)
from wittlam.ground import (EpsIdeal, GroundRing, PrimeIdeal, PrimeSet,
                            RingElement, binom_fraction, binomial, factorize,
                            is_p_divisible, is_prime, parse_ring)
from wittlam.series import SeriesRing
from wittlam.structures import Carrier, LambdaStructure
from wittlam.sympoly import MPoly
from wittlam.universal import HomAssignment

Z = GroundRing.integers()
Q = GroundRing.rationals()
Z2 = GroundRing.localized([2])
Zp5 = GroundRing.p_local(5)
DZ = GroundRing.dual(Z)


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_rational_arith():
    a = Q.coerce(Fraction(1, 2))
    b = Q.coerce(Fraction(1, 3))
    assert a + b == Fraction(5, 6)
    assert a - b == Fraction(1, 6)
    assert a * b == Fraction(1, 6)


def test_dual_multiplication_drops_eps_squared():
    a = DZ.coerce((2, 3))
    b = DZ.coerce((5, 7))
    # (2 + 3e)(5 + 7e) = 10 + (14 + 15)e, the e^2 term vanishes
    assert (a * b).payload == (Fraction(10), Fraction(29))
    assert str(a * b) == "10 + 29*eps"


def test_membership_errors():
    with pytest.raises(MembershipError):
        Z2.coerce(Fraction(1, 3))
    # 1/2 is fine in Z[1/2]
    assert Z2.coerce(Fraction(1, 2)).payload == Fraction(1, 2)
    with pytest.raises(MembershipError):
        Z.coerce(Fraction(1, 2))


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        Z.from_int(1) + Q.from_int(1)


def test_p_divisibility():
    assert is_p_divisible(Z.from_int(6), 2)
    assert not is_p_divisible(Z.from_int(3), 2)
    # 2 is a unit in Q, so everything is 2-divisible
    assert is_p_divisible(Q.from_int(3), 2)
    # Z_(5): 2 is inverted, 5 is not
    assert is_p_divisible(Zp5.from_int(3), 2)
    assert not is_p_divisible(Zp5.from_int(3), 5)
    assert is_p_divisible(Zp5.from_int(10), 5)
    # polynomial algebras are Q-algebras
    QY = GroundRing.rational_poly(("y",))
    assert QY.is_p_divisible(QY.coerce("y"), 7)
    # dual numbers: componentwise
    assert is_p_divisible(DZ.coerce((4, 6)), 2)
    assert not is_p_divisible(DZ.coerce((4, 3)), 2)


def test_divisibility_closed_under_addition():
    rng = random.Random(0)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        a = Z.from_int(p * rng.randint(-20, 20))
        b = Z.from_int(p * rng.randint(-20, 20))
        assert is_p_divisible(a + b, p)


def test_binomial_values():
    v, in_ring = binomial(Z.from_int(5), 2)
    assert v == 10 and in_ring
    # (-1)(-2)(-3)/6 = -1
    v, in_ring = binomial(Z.from_int(-1), 3)
    assert v == -1 and in_ring
    # (1/2)(-1/2)/2 = -1/8
    v, in_ring = binomial(Q.coerce(Fraction(1, 2)), 2)
    assert v == Fraction(-1, 8) and in_ring
    # 1/2 not in Z: C(1/2-ish) n/a; instead: C(3,2)=3 in Z[1/2] stays in ring
    v, in_ring = binomial(Z2.coerce(Fraction(1, 2)), 2)
    assert v == Fraction(-1, 8) and in_ring  # 8 is a power of 2


def test_binomial_domain_property_of_Z():
    # against the independent reflection C(m, n) = (-1)^n C(n-m-1, n) for m < 0
    for m in range(-20, 21):
        for n in range(11):
            v, in_ring = binomial(Z.from_int(m), n)
            assert in_ring, (m, n)
            if m >= 0:
                assert v == math.comb(m, n)
            else:
                assert v == (-1) ** n * math.comb(n - m - 1, n)


def test_binom_fraction_matches_binomial():
    assert binom_fraction(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_fraction(-3, 3) == -10


def test_binomial_over_dual_numbers():
    # C(2 + 3e, 2) = (2+3e)(1+3e)/2 = (2 + 9e)/2 = 1 + 9/2 e: not in Z[eps]
    v, in_ring = binomial(DZ.coerce((2, 3)), 2)
    assert v.payload == (Fraction(1), Fraction(9, 2))
    assert not in_ring
    # but C(3 + 2e, 2) = (3+2e)(2+2e)/2 = (6 + 10e)/2 = 3 + 5e: in-ring
    v, in_ring = binomial(DZ.coerce((3, 2)), 2)
    assert v == GroundRing.dual(GroundRing.rationals()).coerce((3, 5))
    assert in_ring


def test_ring_axioms_on_samples():
    rng = random.Random(1)
    QY = GroundRing.rational_poly(("y1", "y2"))
    DQ = GroundRing.dual(Q)

    def rand_elem(ring):
        if ring.kind == "localized_integers":
            den = 1
            if ring.inverted.inverts(2):
                den = rng.choice([1, 2, 4])
            return ring.coerce(Fraction(rng.randint(-9, 9), den))
        if ring.kind == "rational_poly":
            from wittlam.sympoly import MPoly

            terms = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 2) for _ in ring.variables)
                terms[e] = rng.randint(-4, 4)
            return ring.coerce(MPoly(ring.variables, terms))
        a = rand_elem(ring.base)
        b = rand_elem(ring.base)
        return ring.coerce((a.payload, b.payload))

    for ring in (Z, Q, Z2, Zp5, QY, DZ, DQ):
        for _ in range(12):
            a, b, c = (rand_elem(ring) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_div_int():
    assert Z.div_int(Z.from_int(6), 3) == 2
    with pytest.raises(ExactDivisionError):
        Z.div_int(Z.from_int(5), 3)
    assert Q.div_int(Q.from_int(5), 3) == Fraction(5, 3)
    assert DZ.div_int(DZ.coerce((4, 6)), 2) == DZ.coerce((2, 3))


def test_div_int_kernel_scalars():
    # ints divide by divmod and stay ints; anything else becomes a Fraction
    # that must lie in the ring
    assert Z._pdiv_int(6, 3) == 2 and type(Z._pdiv_int(6, 3)) is int
    assert Z._pdiv_int(-6, -3) == 2
    assert Z._pdiv_int(Fraction(6), 3) == 2
    assert Z2._pdiv_int(3, 2) == Fraction(3, 2)
    assert Z2._pdiv_int(Fraction(3, 2), 3) == Fraction(1, 2)
    assert Zp5._pdiv_int(1, 3) == Fraction(1, 3)
    assert Q._pdiv_int(Fraction(1, 7), 11) == Fraction(1, 77)
    assert DZ._pdiv_int((4, 6), 2) == (2, 3)
    for ring, x, n in [(Z, 5, 3), (Z2, 1, 3), (Z2, Fraction(1, 2), 3), (Zp5, 1, 5),
                       (Zp5, Fraction(1, 3), 10), (DZ, (4, 5), 2)]:
        with pytest.raises(ExactDivisionError):
            ring._pdiv_int(x, n)


def test_div_int_keeps_element_payloads_and_message():
    # an integral quotient is an int, from an int or a Fraction numerator
    assert Z.div_int(Z.from_int(6), 3).payload == 2
    assert type(Z.div_int(Z.from_int(6), 3).payload) is int
    three = Z2.coerce(Fraction(3, 2)) * 2  # its payload is the Fraction 3/1
    assert type(Z2.div_int(three, 3).payload) is int
    assert Z2.div_int(three, 3).payload == 1
    assert Z2.div_int(Z2.from_int(3), 2).payload == Fraction(3, 2)
    assert DZ.div_int(DZ.coerce((4, 6)), 2).payload == (2, 3)
    assert all(type(x) is int for x in DZ.div_int(DZ.coerce((4, 6)), 2).payload)
    cases = [
        (Z, Z.from_int(5), 3, "5 is not divisible by 3 in Z"),
        (Z2, Z2.coerce(Fraction(1, 2)), 3, "1/2 is not divisible by 3 in Z[1/2]"),
        (Zp5, Zp5.from_int(-7), 5, "-7 is not divisible by 5 in Z_(5)"),
        (DZ, DZ.coerce((4, 5)), 2, "4 + 5*eps is not divisible by 2 in dual(Z)"),
        (DZ, DZ.coerce((3, -6)), 2, "3 - 6*eps is not divisible by 2 in dual(Z)"),
    ]
    for ring, elem, n, text in cases:
        with pytest.raises(ExactDivisionError) as info:
            ring.div_int(elem, n)
        assert str(info.value) == text
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        Z.div_int(Z.one(), 0)


def test_membership_without_factorization_matches_factorization():
    rings = [Z, Q, Z2, Zp5, GroundRing.localized([2, 3]),
             GroundRing.localized(PrimeSet.cofinite([2, 7]))]
    for ring in rings:
        for den in range(1, 300):
            expect = all(ring.inverted.inverts(p) for p in factorize(den))
            assert ring.contains_payload(Fraction(1, den)) == expect, (ring, den)


def test_dual_power_closed_form():
    rng = random.Random(12)
    for base in (Z, Z2, GroundRing.rational_poly(("y1",))):
        D = GroundRing.dual(base)
        for _ in range(5):
            x = D.coerce((rng.randint(-3, 3), rng.randint(-3, 3)))
            prod = D.one()
            for k in range(6):
                assert x ** k == prod, (x, k)
                prod = prod * x
    # k = 0 keeps the payload type: an int 1 from the int payloads elements over Z hold
    assert DZ._ppow((3, 4), 0) == (1, 0) and type(DZ._ppow((3, 4), 0)[0]) is int
    assert all(type(c) is int for c in (DZ.coerce((3, 4)) ** 0).payload)


def _scalars(payload):
    return list(payload) if isinstance(payload, tuple) else [payload]


def test_kernel_wrap_unwrap():
    # the payload protocol reads and builds elements without converting
    assert Z._unwrap(Z.from_int(4)) == 4 and type(Z._unwrap(Z.from_int(4))) is int
    assert Z2._unwrap(Z2.coerce(Fraction(1, 2))) == Fraction(1, 2)
    assert DZ._unwrap(DZ.coerce((1, 2))) == (1, 2)
    assert all(type(c) is int for c in DZ._unwrap(DZ.coerce((1, 2))))
    for ring, payload in [(Z, 3), (Z2, Fraction(3, 2)), (DZ, (0, -1))]:
        elem = ring._wrap(payload)
        assert elem == ring.coerce(payload) and ring._unwrap(elem) is payload
    # integral input is stored as an int, non-integral input as a Fraction
    assert type(Z.zero().payload) is int and type(Z.one().payload) is int
    assert all(type(c) is int for c in DZ.from_int(3).payload)
    for ring, value in [(Z, Fraction(6, 2)), (Z, "4"), (Z, "8/2"), (Q, Fraction(5)),
                        (Z2, "-6/3"), (DZ, (Fraction(2), "3")), (DZ, "2 + 3*eps"),
                        (DZ, Fraction(4)), (DZ, "1/1*eps")]:
        elem = ring.coerce(value)
        assert all(type(c) is int for c in _scalars(elem.payload)), (ring, value)
    assert type(Z.element(Fraction(7)).payload) is int
    assert type(Z.coerce(True).payload) is int
    assert all(type(c) is int for c in DZ.coerce((True, 1)).payload)
    assert all(type(c) is int for c in DZ.element((Fraction(2), Fraction(0))).payload)
    assert type(Z2.coerce("3/2").payload) is Fraction
    half = GroundRing.dual(Z2).coerce("1/2 - 1*eps").payload
    assert half == (Fraction(1, 2), -1) and [type(c) for c in half] == [Fraction, int]
    # a scalar is an int or a Fraction, never a float or a bool
    for bad in (2.0, True, (2.0, 0), (1, False)):
        ring = DZ if isinstance(bad, tuple) else Z
        with pytest.raises(UnsupportedRingError):
            ring.element(bad)
    inv = Z2.try_invert(Z2.from_int(2))
    assert inv.payload == Fraction(1, 2) and type(inv.payload) is Fraction
    assert type(Z.try_invert(Z.from_int(-1)).payload) is int
    assert type(Q.try_invert(Q.coerce(Fraction(1, 3))).payload) is int
    # an int payload and an equal Fraction payload give equal, equally hashed values
    a, b = RingElement(Z, Fraction(3)), Z.from_int(3)
    assert a == b and hash(a) == hash(b)
    da, db = RingElement(DZ, (Fraction(2), Fraction(-1))), DZ.coerce((2, -1))
    assert da == db and hash(da) == hash(db)
    Z2x = SeriesRing(Z, 2)
    fa, fb = Z2x.coerce([0, a, 1]), Z2x.coerce([0, 3, 1])
    assert fa == fb and hash(fa) == hash(fb)
    dual = Carrier.dual_numbers(Z)
    assert LambdaStructure(dual, (2,), {2: RingElement(Z, Fraction(2))}) == \
        LambdaStructure(dual, (2,), {2: 2})
    series = Carrier.power_series(Z, 2)
    assert LambdaStructure(series, (3,), {3: fa}) == \
        LambdaStructure(series, (3,), {3: fb})
    ha = HomAssignment.from_depth0(Z, {(2, 1): a}, primes=(2,), trunc=2, depth=1)
    hb = HomAssignment.from_depth0(Z, {(2, 1): b}, primes=(2,), trunc=2, depth=1)
    assert ha == hb and ha.get(2, 1, (2,)) == hb.get(2, 1, (2,)) == 3


def test_try_invert():
    assert Z.try_invert(Z.from_int(-1)) == -1
    assert Z.try_invert(Z.from_int(2)) is None
    assert Z2.try_invert(Z2.from_int(2)) == Fraction(1, 2)
    assert Q.try_invert(Q.from_int(0)) is None
    inv = DZ.try_invert(DZ.coerce((1, 5)))
    assert inv * DZ.coerce((1, 5)) == DZ.one()


def test_ideals():
    assert Z.in_ideal(Z.from_int(6), PrimeIdeal(3))
    assert not Z.in_ideal(Z.from_int(5), PrimeIdeal(3))
    assert DZ.in_ideal(DZ.coerce((0, 7)), EpsIdeal())
    assert not DZ.in_ideal(DZ.coerce((1, 0)), EpsIdeal())


def test_format_parse_roundtrip():
    for ring, text in [
        (Z, "-7"),
        (Q, "5/6"),
        (DZ, "2 + 3*eps"),
        (DZ, "2 - 3*eps"),
        (DZ, "eps"),
        (DZ, "-4"),
    ]:
        elem = ring.coerce(text)
        again = ring.coerce(ring.format_payload(elem.payload))
        assert elem == again


@pytest.mark.parametrize("unspaced, spaced", [
    ("1+eps", "1 + eps"),
    ("2-3*eps", "2 - 3*eps"),
    ("1/2+eps", "1/2 + eps"),
    ("-eps", "0 - eps"),
    ("-1-eps", "-1 - eps"),
    ("1e-3+eps", "1/1000 + eps"),
])
def test_dual_scalars_parse_without_spaces(unspaced, spaced):
    D = GroundRing.dual(Q)
    assert D.coerce(unspaced) == D.coerce(spaced)


def test_dual_scalar_rejects_text_after_eps():
    for text in ("1 + eps + 5", "2*eps3"):
        with pytest.raises(InputError, match="bad scalar"):
            DZ.coerce(text)


def test_repeated_polynomial_variables_rejected():
    with pytest.raises(InputError, match="repeated variable"):
        parse_ring("Q[y1,y1]")
    with pytest.raises(InputError):
        GroundRing.from_json({"kind": "rational_poly", "variables": ["a", "b", "a"]})


def test_parse_ring_names():
    assert parse_ring("Z") == Z
    assert parse_ring("Q") == Q
    assert parse_ring("Z[1/2]") == Z2
    assert parse_ring("Z_(5)") == Zp5
    assert parse_ring("Q[y1,y2]") == GroundRing.rational_poly(("y1", "y2"))
    assert parse_ring("dual(Z)") == DZ


def test_parse_ring_truncated_polynomials():
    from wittlam.series import SeriesRing

    assert parse_ring("Z[x]/x^5") == SeriesRing(Z, 4)
    assert parse_ring("Z[1/2][x]/x^3") == SeriesRing(Z2, 2)
    assert parse_ring("dual(Z)[x]/x^1") == SeriesRing(DZ, 0)
    for ring in (SeriesRing(Q, 3), SeriesRing(Zp5, 6)):
        assert parse_ring(str(ring)) == ring
    for text in ("Z[x]/x^0", "Z[x]/y^3", "Z[x]/x^", "Z[x]/x^-2",
                 "Z[x]/x^3[x]/x^2", "dual(Z[x]/x^3)"):
        with pytest.raises(InputError, match="cannot parse ring"):
            parse_ring(text)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n)] == \
        [n for n in range(-3, 20000) if _trial_division(n)]
    rng = random.Random(5)
    for n in rng.sample(range(10 ** 6, 10 ** 9), 300):
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_strong_pseudoprimes_and_limit():
    # Carmichael numbers, and the least strong pseudoprimes to the prime
    # bases 2, 2..3, 2..5, 2..7, 2..11, 2..13, 2..19, 2..31 and 2..37
    # (OEIS A014233)
    composites = (561, 1105, 1729, 41041, 825265, 2047, 1373653, 25326001,
                  3215031751, 2152302898747, 3474749660383, 341550071728321,
                  3825123056546413051, 318665857834031151167461)
    assert not any(is_prime(n) for n in composites)
    primes = (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 18 + 9,
              3317044064679887385961813)
    assert all(is_prime(p) for p in primes)
    # Miller-Rabin on the bases up to 41 is only proven below 3.3*10^24
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(InputError, match="too large"):
            is_prime(n)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(10 ** 9, 3 * 10 ** 24) | 1
        assert is_prime(n) == bool(sympy.isprime(n)), n


def test_ring_json_roundtrip():
    for ring in (Z, Q, Z2, Zp5, DZ, GroundRing.rational_poly(("y",))):
        assert GroundRing.from_json(ring.to_json()) == ring


def test_prime_set():
    s = PrimeSet.cofinite([5])
    assert s.inverts(2) and not s.inverts(5)
    assert PrimeSet.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        PrimeSet.finite([4])


# -- the payload kernel against hand-written arithmetic ------------------------
#
# Each oracle keeps a value in its own form (a Fraction, a {degree: Fraction}
# dict for Q[y1], a pair, a coefficient list) and does the arithmetic itself.
# RingElement and the Lambda/W oracles call the very `_p*` ops checked here,
# so only an independent route can catch a fault in them.


class _Oracle:
    def values(self):
        return st.one_of(st.just(self.zero), self._values())

    def scale(self, x, c):
        return self.mul(x, self.const(c))

    def power(self, x, k):
        out = self.one
        for _ in range(k):
            out = self.mul(out, x)
        return out


class _ScalarOracle(_Oracle):
    """Z[S^-1] as Fractions, with denominators drawn from dens."""

    zero, one = Fraction(0), Fraction(1)

    def __init__(self, ring, dens):
        self.ring, self.dens = ring, dens
        self.integral = dens == (1,)

    def _values(self):
        return st.builds(Fraction, st.integers(-40, 40), st.sampled_from(self.dens))

    def const(self, c):
        return Fraction(c)

    def to_payload(self, q):
        return q.numerator if q.denominator == 1 else q

    def from_payload(self, p):
        assert type(p) in (int, Fraction), p
        return Fraction(p)

    def scalars(self, p):
        return [p]

    add, sub, neg, mul = operator.add, operator.sub, operator.neg, operator.mul

    def is_zero(self, x):
        return x == 0


class _PolyOracle(_Oracle):
    """Q[y1] as {degree: nonzero Fraction} dicts."""

    ring = GroundRing.rational_poly(("y1",))
    zero, one, integral = {}, {0: Fraction(1)}, False

    def _values(self):
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
        return st.dictionaries(st.integers(0, 3), coeffs, max_size=3).map(self._clean)

    @staticmethod
    def _clean(d):
        return {k: c for k, c in d.items() if c}

    def const(self, c):
        return self._clean({0: Fraction(c)})

    def to_payload(self, d):
        return MPoly(("y1",), {(k,): c for k, c in d.items()})

    def from_payload(self, p):
        assert isinstance(p, MPoly) and p.vars == ("y1",), p
        return {e[0]: Fraction(c) for e, c in p.terms.items()}

    def scalars(self, p):
        return list(p.terms.values())

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            out[k] = out.get(k, 0) + c
        return self._clean(out)

    def neg(self, x):
        return {k: -c for k, c in x.items()}

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return self._clean(out)

    def is_zero(self, x):
        return not x


class _DualOracle(_Oracle):
    """base[eps] as pairs (a, b) = a + b*eps, eps^2 = 0."""

    def __init__(self, base):
        self.base, self.integral = base, base.integral
        self.ring = GroundRing.dual(base.ring)
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def _values(self):
        return st.tuples(self.base._values(), self.base._values())

    def const(self, c):
        return (self.base.const(c), self.base.zero)

    def to_payload(self, x):
        return tuple(map(self.base.to_payload, x))

    def from_payload(self, p):
        assert type(p) is tuple and len(p) == 2, p
        return tuple(map(self.base.from_payload, p))

    def scalars(self, p):
        return [s for c in p for s in self.base.scalars(c)]

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        b = self.base
        return (b.mul(x[0], y[0]), b.add(b.mul(x[0], y[1]), b.mul(x[1], y[0])))

    def is_zero(self, x):
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])


class _SeriesOracle(_Oracle):
    """ground[x]/x^(N+1) as coefficient lists of length N + 1."""

    def __init__(self, ground, N):
        self.g, self.N, self.integral = ground, N, ground.integral
        self.ring = SeriesRing(ground.ring, N)
        self.zero = [ground.zero] * (N + 1)
        self.one = [ground.one] + [ground.zero] * N

    def _values(self):
        return st.lists(self.g.values(), min_size=self.N + 1, max_size=self.N + 1)

    def const(self, c):
        return [self.g.const(c)] + [self.g.zero] * self.N

    def to_payload(self, x):
        return tuple(map(self.g.to_payload, x))

    def from_payload(self, p):
        assert type(p) is tuple and len(p) == self.N + 1, p
        return list(map(self.g.from_payload, p))

    def scalars(self, p):
        return [s for c in p for s in self.g.scalars(c)]

    def add(self, x, y):
        return list(map(self.g.add, x, y))

    def sub(self, x, y):
        return list(map(self.g.sub, x, y))

    def neg(self, x):
        return list(map(self.g.neg, x))

    def mul(self, x, y):
        out = list(self.zero)
        for i in range(self.N + 1):
            for j in range(self.N + 1 - i):
                out[i + j] = self.g.add(out[i + j], self.g.mul(x[i], y[j]))
        return out

    def is_zero(self, x):
        return all(map(self.g.is_zero, x))


_Z_ORACLE = _ScalarOracle(Z, (1,))
_Z2_ORACLE = _ScalarOracle(Z2, (1, 2, 4, 8))
_Q_ORACLE = _ScalarOracle(Q, (1, 2, 3, 5, 6, 7, 12))
KERNEL_ORACLES = [
    _Z_ORACLE, _Z2_ORACLE, _ScalarOracle(GroundRing.p_local(3), (1, 2, 4, 5, 7)),
    _Q_ORACLE, _PolyOracle(), _DualOracle(_Z_ORACLE), _DualOracle(_Q_ORACLE),
    _DualOracle(_Z2_ORACLE), _DualOracle(_PolyOracle()),
    _SeriesOracle(_Z_ORACLE, 4), _SeriesOracle(_Z2_ORACLE, 3),
    _SeriesOracle(_Q_ORACLE, 3), _SeriesOracle(_DualOracle(_Z_ORACLE), 2),
]


@pytest.mark.parametrize("oracle", KERNEL_ORACLES, ids=lambda o: str(o.ring))
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_payload_kernel_matches_hand_arithmetic(oracle, data):
    ring = oracle.ring
    x, y = data.draw(oracle.values()), data.draw(oracle.values())
    scalars = st.integers(-6, 6)
    if getattr(ring, "ground", ring).is_q_algebra():
        scalars |= st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    c, k = data.draw(scalars), data.draw(st.integers(0, 3))
    px, py = oracle.to_payload(x), oracle.to_payload(y)
    for got, expect in [(ring._padd(px, py), oracle.add(x, y)),
                        (ring._psub(px, py), oracle.sub(x, y)),
                        (ring._pneg(px), oracle.neg(x)),
                        (ring._pmul(px, py), oracle.mul(x, y)),
                        (ring._pscale(px, c), oracle.scale(x, c)),
                        (ring._ppow(px, k), oracle.power(x, k))]:
        assert oracle.from_payload(got) == expect
        if oracle.integral:
            # over Z every scalar of a result is an int
            assert all(type(s) is int for s in oracle.scalars(got)), got
    assert bool(ring._pis_zero(px)) == oracle.is_zero(x)
    assert ring._pis_zero(oracle.to_payload(oracle.zero))
