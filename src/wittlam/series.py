"""Truncated univariate power series with the x-adic filtration.

A TruncSeries is an element of its domain SeriesRing(A, N), the
truncation A[x]/x^{N+1} of a GroundRing A, and is exact modulo x^{N+1};
x has filtration degree 1.  Like a RingElement it holds a domain and a
payload: the tuple of its N + 1 coefficient payloads (see `ground`: over
Z[S^-1] an int when integral, else a Fraction).  `TruncSeries(domain,
payload)` trusts its payload and converts nothing; outside values (a
coefficient list, the text form, a scalar) become a series only through
`SeriesRing.coerce`, which `from_int`, `x` and `parse` call.  `ring`,
`trunc`, `coeffs` and `f[k]` are read-only views that wrap coefficients
into RingElements when they are read.  SeriesRing is also a coefficient
domain in its own right, so that Witt vectors and lambda-elements can be
formed over truncated polynomial rings.

Series arithmetic is written once, as the SeriesRing payload operations
(`_padd`, `_pmul`, ...), and the TruncSeries operators call them; a
scalar operand becomes a constant payload.  Products and powers run on
payload lists: over Z[S^-1] (Z, Z[1/p], Q) each operand is lifted to
integer numerators over the lcm of its denominators, the convolution runs
in Python ints, and a Fraction is built per output coefficient only when
the common denominator is not 1; an operand of ints only skips the lift,
and `_lift` returns it as it is, so no caller may mutate a lifted list.
Over Q[y..] and dual numbers the same loops run on the ring's own payload
operations (_pmul, _padd, _pis_zero).

Composition, reversion and the commuting-series solver (`lubin`) share
one algorithm, `_grow_powers`: the power table (s^k)_j of a series s with
s(0) = 0, grown one degree j at a time.  For k >= 2, (s^k)_j reads only
s_1..s_(j-1), so an equation whose degree-j term is pivot * s_j plus
terms in the table determines s_j there, and the whole solve is O(N^3)
ring operations.  `compose` reads f(g)_j as the dot product of f with
column j of g's table, which `_power_table` builds once per inner series
and memoises in a bounded LRU table, so composing many f into the same g
(both orders of a pair of Adams series, phi and its inverse in a
conjugation, psi^p applied repeatedly) builds the powers once.  `revert`
solves f_1 g_j = -sum_{k >= 2} f_k (g^k)_j.  The dot products run on
`_scalar_form(ring)`: Python's sum and product over Z[S^-1], whose
operands are first lifted to integer numerators (`revert` also rescales
to linear coefficient 1), since the same loops on Fractions are 10-25x
slower; the ring's own _padd and _pmul on Q[y..] and dual numbers.

Over Z every coefficient payload of a result is an int.  The JSON form
keeps the field "x_filtration": 1; reading accepts that or no field, and
a missing or mistyped field is an InputError.
"""

import functools
import math
import operator
from fractions import Fraction

from .errors import (ExactDivisionError, InputError, RingMismatchError,
                     UnsupportedRingError)
from .ground import ZLOC, GroundRing, XAdicIdeal, check_int


def _lift(payloads):
    """Integer numerators over the lcm d of the denominators, and d.
    Takes ints and Fractions alike.  When every payload is an int they are
    the numerators, with d = 1, and the argument itself is returned:
    callers must not mutate the result."""
    for q in payloads:
        if type(q) is not int:
            break
    else:
        return payloads, 1
    d = math.lcm(*[q.denominator for q in payloads])
    return [q.numerator * (d // q.denominator) for q in payloads], d


def _unlift(nums, d):
    """The payloads c/d for c in nums: the ints themselves if d = 1, else
    one reduced Fraction each."""
    if d == 1:
        return nums
    return [Fraction(c, d) for c in nums]


def _conv_int(a, b, n):
    """Product of integer lists a and b, cut at degree n; b must have at
    least n + 1 entries."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(i, n + 1):
                out[j] += x * b[j - i]
    return out


def _mul_payloads(ring, a, b, n):
    """Product of payload lists a and b over ring, cut at degree n."""
    if ring.kind == ZLOC:
        na, da = _lift(a)
        nb, db = _lift(b)
        return _unlift(_conv_int(na, nb, n), da * db)
    mul, add, is_zero = ring._pmul, ring._padd, ring._pis_zero
    out = [ring._pzero()] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if is_zero(x):
            continue
        for j, y in enumerate(b[: n + 1 - i], i):
            if not is_zero(y):
                out[j] = add(out[j], mul(x, y))
    return out


def _pow_payloads(ring, base, k, n):
    """base**k for payload list base, cut at degree n."""
    out = [ring._pfrom_int(1)] + [ring._pzero()] * n
    while k:
        if k & 1:
            out = _mul_payloads(ring, out, base, n)
        k >>= 1
        if k:
            base = _mul_payloads(ring, base, base, n)
    return out


def _scalar_form(ring):
    """(total, mul) with total(map(mul, a, b)) = sum_i a_i b_i for payload
    lists a and b over ring: Python's sum and product on the numbers of
    Z[S^-1] (and on ints, for ring None), the ring's own _padd and _pmul
    elsewhere."""
    if ring is None or ring.kind == ZLOC:
        return sum, operator.mul
    return functools.partial(functools.reduce, ring._padd), ring._pmul


def _grow_powers(s, total, mul, solve=None):
    """The power table rows[k][j] = (s^k)_j for 1 <= k <= j <= N of a
    payload list s with s_0 = 0 (rows[1] is s; rows[0] and the entries
    below degree k are None), grown one degree j at a time.  For k >= 2,
    (s^k)_j = sum_i s_i (s^(k-1))_(j-i) reads only s_1..s_(j-1), so when
    solve is given, s_j is unknown until then: solve(j, rows) returns it
    from column j for k >= 2, and it is stored in s."""
    rows = [None, s] + [[None] * len(s) for _ in s[2:]]
    for j in range(2, len(s)):
        for k in range(2, j + 1):
            rows[k][j] = total(map(mul, s[1 : j - k + 2],
                                   rows[k - 1][j - 1 : k - 2 : -1]))
        if solve:
            s[j] = solve(j, rows)
    return rows


@functools.lru_cache(maxsize=32)
def _power_table(gp, ring=None):
    """The powers of g (g(0) = 0, payloads gp) by column: (T, d) with
    G = d g and T[j - 1] = ((G^k)_j for k = 1..j), the terms of degree j
    of G, ..., G^j (G^k starts at x^k), for j = 1..N.  Without a ring gp
    is over Z[S^-1] and G holds its integer numerators; over the given
    ring G = g and d = 1.  Memoised by gp (and the ring); the bound keeps
    the memory flat however many series pass."""
    G, d = _lift(gp) if ring is None else (gp, 1)
    rows = _grow_powers(list(G), *_scalar_form(ring))
    return tuple(col[:j] for j, col in enumerate(zip(*rows[1:])))[1:], d


class TruncSeries:
    """Power series over a GroundRing, truncated at degree N: an element of
    its domain SeriesRing(ring, N), held as the tuple of its N + 1
    coefficient payloads."""

    __slots__ = ("domain", "payload")

    def __init__(self, domain, payload):
        self.domain = domain
        self.payload = payload

    # -- views and queries: coefficients are wrapped when read ----------------

    @property
    def ring(self):
        return self.domain.ground

    @property
    def trunc(self):
        return self.domain.trunc

    @property
    def coeffs(self):
        return tuple(map(self.domain.ground._wrap, self.payload))

    def __getitem__(self, k):
        # one coefficient; a slice is a TypeError (slice f.coeffs instead)
        return self.domain.ground._wrap(self.payload[operator.index(k)])

    def is_zero(self):
        return self.domain._pis_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def constant_term(self):
        return self[0]

    def linear_coeff(self):
        return self[1] if self.trunc >= 1 else self.ring.zero()

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.domain == other.domain and self.payload == other.payload

    def __hash__(self):
        return hash((self.domain, self.payload))

    # -- arithmetic: the SeriesRing payload operations ---------------------------

    def _operand(self, other):
        """The payload of other in this series' domain: a series must lie in
        it, a scalar of the ground ring becomes a constant; None when coerce
        cannot take other."""
        dom = self.domain
        if isinstance(other, TruncSeries):
            return dom.coerce(other).payload
        try:
            c = dom.ground.coerce(other)
        except UnsupportedRingError:
            return None
        return (c.payload,) + dom._pzero()[1:]

    def __add__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return self.domain._wrap(self.domain._padd(self.payload, y))

    __radd__ = __add__

    def __sub__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return self.domain._wrap(self.domain._psub(self.payload, y))

    def __rsub__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return self.domain._wrap(self.domain._psub(y, self.payload))

    def __neg__(self):
        return self.domain._wrap(self.domain._pneg(self.payload))

    def __mul__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        # the operand goes first: a constant's one nonzero coefficient is
        # then the convolution's only outer step
        return self.domain._wrap(self.domain._pmul(y, self.payload))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return self.domain._wrap(self.domain._ppow(self.payload, k))

    def div_int(self, n):
        return self.domain._wrap(self.domain._pdiv_int(self.payload, n))

    # -- text and JSON forms -------------------------------------------------------

    def coeff_strings(self):
        return list(map(self.ring.format_payload, self.payload))

    def __str__(self):
        ring = self.ring
        bits = []
        for k, c in enumerate(self.payload):
            if ring._pis_zero(c):
                continue
            cs = ring.format_payload(c)
            neg = False
            if cs.startswith("-") and " " not in cs:
                neg, cs = True, cs[1:]
            elif any(ch in cs for ch in " +-") and not cs.lstrip("-").isdigit():
                cs = f"({cs})"
            if k == 0:
                term = cs
            elif k == 1:
                term = f"{cs}*x"
            else:
                term = f"{cs}*x^{k}"
            if not bits:
                bits.append(f"-{term}" if neg else term)
            else:
                bits.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(bits) if bits else "0"

    def __repr__(self):
        return f"TruncSeries({self}, N={self.trunc})"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "N": self.trunc,
            "x_filtration": 1,
            "coeffs": self.coeff_strings(),
        }

    @staticmethod
    def from_json(data):
        """Parse a series; a missing field or a value of the wrong type is
        an InputError naming the series as malformed."""
        try:
            check_x_filtration(data)
            dom = SeriesRing(GroundRing.from_json(data["ring"]), data["N"])
            coeffs = data["coeffs"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed series: {exc!r}") from exc
        if not isinstance(coeffs, list):
            raise InputError(f"malformed series: coeffs {coeffs!r} is not a list")
        return dom.coerce(coeffs)


def check_x_filtration(data):
    """A JSON series or carrier states the degree of x in the x-adic
    filtration as "x_filtration": 1, the only one the library has; a
    missing field reads as 1, any other value is an InputError."""
    d = data.get("x_filtration", 1)
    if type(d) is not int or d != 1:
        raise InputError(f"x_filtration must be 1, got {d!r}")


def compose(f, g):
    """f(g(x)) mod x^{N+1}; requires g(0) = 0.

    Coefficient j is the dot product of f with column j of the power table
    of g (`_power_table`, memoised by g): f(g)_j = sum_k f_k (g^k)_j.
    Over Z[S^-1] both are lifted to integers: with f = F/d_f and
    g = G/d_g, f(g) = sum_k F_k d_g^(N-k) G^k / (d_f d_g^N).
    """
    dom = f.domain
    fp, gp = f.payload, dom.coerce(g).payload
    ring, N = dom.ground, dom.trunc
    if not ring._pis_zero(gp[0]):
        raise ValueError("composition requires g(0) = 0")
    if N == 0:
        return f  # g = 0 mod x, so f(g) = f(0) = f
    if ring.kind == ZLOC:
        F, df = _lift(fp)
        T, dg = _power_table(gp)
        if dg != 1:
            F = [c * dg ** (N - k) for k, c in enumerate(F)]
        mul, F1 = operator.mul, F[1:]
        out = _unlift([F[0]] + [sum(map(mul, F1, col)) for col in T],
                      df * dg ** N)
    else:
        (total, mul), F1 = _scalar_form(ring), fp[1:]
        out = [fp[0]] + [total(map(mul, F1, col))
                         for col in _power_table(gp, ring)[0]]
    return dom._wrap(tuple(out))


def revert(f):
    """Compositional inverse g with f(g) = x = g(f) mod x^{N+1}.

    Requires f(0) = 0 and the linear coefficient f_1 a unit of the ring.
    The power table of g grows with g (`_grow_powers`), and g_j is solved
    from f(g)_j = f_1 g_j + sum_{k >= 2} f_k (g^k)_j = 0: O(N^3) ring
    operations.

    Over Z[S^-1] the series is first made integral with linear
    coefficient 1: with f = F/d and a = F_1, f(x) = (a^2/d) t(x/a) for
    t = x + sum_{k >= 2} F_k a^(k-2) x^k, so g_k = s_k d^k / a^(2k-1) for
    the inverse s of t, which is integral and solved in ints.
    """
    if not f.constant_term().is_zero():
        raise ValueError("reversion requires f(0) = 0")
    ring, dom, N = f.ring, f.domain, f.trunc
    u = ring.try_invert(f.linear_coeff())
    if u is None:
        raise ExactDivisionError(
            f"linear coefficient {f.linear_coeff()} is not a unit in {ring}"
        )
    # N >= 1 here: at N = 0 the linear coefficient is 0
    total, mul = _scalar_form(ring)
    if ring.kind == ZLOC:
        F, d = _lift(f.payload)
        a = F[1]
        c = [-F[k] * a ** (k - 2) for k in range(2, N + 1)]
        s = [0, 1] + [None] * (N - 1)
    else:
        c = [ring._pneg(mul(u.payload, x)) for x in f.payload[2:]]
        s = [ring._pzero(), u.payload] + [None] * (N - 1)
    # s_j = sum_{k >= 2} c_k (s^k)_j with c_k = -f_k / f_1
    _grow_powers(s, total, mul, lambda j, rows: total(
        map(mul, c, [row[j] for row in rows[2 : j + 1]])))
    if ring.kind == ZLOC:
        s = [0, u.payload] + [ring._pdiv_int(s[j] * d ** j, a ** (2 * j - 1))
                              for j in range(2, N + 1)]
    return dom._wrap(tuple(s))


def congruent_mod(f, g, p):
    """True iff every coefficient of f - g is p-divisible."""
    return f.domain.is_p_divisible(f - g, p)


def xadic_valuation(f):
    """Smallest k with c_k != 0 (x has degree 1), or inf for f = 0."""
    for k, c in enumerate(f.payload):
        if not f.ring._pis_zero(c):
            return k
    return math.inf


class SeriesRing:
    """A truncation A[x]/x^{N+1} viewed as a coefficient domain.

    Its elements are TruncSeries, and its payload (the protocol of
    `ground.GroundRing`) is a series' own `payload`, the tuple of its
    N + 1 ground payloads, so `_unwrap` and `_wrap` convert nothing.
    `_pmul` and `_ppow` are the convolution `_mul_payloads` (`_conv_int`
    over Z[S^-1]); the other `_p*` methods act coefficientwise.
    """

    __slots__ = ("ground", "trunc")

    def __init__(self, ground, trunc):
        check_int("N", trunc, 0)
        self.ground = ground
        self.trunc = trunc

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, SeriesRing)
            and self.ground == other.ground
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.ground, self.trunc))

    def __str__(self):
        return f"{self.ground}[x]/x^{self.trunc + 1}"

    __repr__ = __str__

    def zero(self):
        return self._wrap(self._pzero())

    def one(self):
        return self._wrap(self._pfrom_int(1))

    def from_int(self, n):
        return self.coerce([self.ground.from_int(n)])

    def x(self):
        return self.coerce([0, 1])

    def coerce(self, value):
        """The series of a value: a series of this ring; a list or tuple of
        coefficients, padded with zeros and cut at degree N; the text form
        (see `parse`); or a scalar of the ground ring, as a constant.  The
        one place where outside values become a series payload."""
        if isinstance(value, TruncSeries):
            if value.domain != self:
                raise RingMismatchError(
                    f"series in {value.domain} used in {self}"
                )
            return value
        if isinstance(value, str):
            return self.parse(value)
        if not isinstance(value, (list, tuple)):
            value = [value]
        coeffs = [self.ground.coerce(c).payload for c in value]
        coeffs += self._pzero()[len(coeffs):]
        return TruncSeries(self, tuple(coeffs[: self.trunc + 1]))

    def div_int(self, f, n):
        return f.div_int(n)

    # -- payload kernel -------------------------------------------------------

    def _unwrap(self, f):
        return f.payload

    def _wrap(self, payload):
        return TruncSeries(self, payload)

    def _pzero(self):
        return (self.ground._pzero(),) * (self.trunc + 1)

    def _pfrom_int(self, n):
        return (self.ground._pfrom_int(n),) + (self.ground._pzero(),) * self.trunc

    def _padd(self, x, y):
        return tuple(map(self.ground._padd, x, y))

    def _psub(self, x, y):
        return tuple(map(self.ground._psub, x, y))

    def _pneg(self, x):
        return tuple(map(self.ground._pneg, x))

    def _pmul(self, x, y):
        return tuple(_mul_payloads(self.ground, x, y, self.trunc))

    def _ppow(self, x, k):
        return tuple(_pow_payloads(self.ground, x, k, self.trunc))

    def _pscale(self, x, c):
        scale = self.ground._pscale
        return tuple([scale(a, c) for a in x])

    def _pis_zero(self, x):
        return all(map(self.ground._pis_zero, x))

    def _pdiv_int(self, x, n):
        div = self.ground._pdiv_int
        return tuple([div(a, n) for a in x])

    def is_p_divisible(self, f, p):
        return all(self.ground.is_p_divisible(c, p) for c in f.coeffs)

    def in_ideal(self, f, ideal):
        if isinstance(ideal, XAdicIdeal):
            return all(map(self.ground._pis_zero, f.payload[: ideal.k]))
        return all(self.ground.in_ideal(c, ideal) for c in f.coeffs)

    def format(self, f):
        return ",".join(f.coeff_strings())

    def parse(self, text):
        return self.coerce([p.strip() for p in text.split(",")])
