"""Truncated univariate power series with the x-adic filtration.

A TruncSeries holds coefficients c_0..c_N (RingElements over a common
GroundRing) and is exact modulo x^{N+1}.  The declared filtration degree
d of x only scales valuations.  SeriesRing packages a truncation as a
coefficient domain in its own right (A[x]/x^{N+1}), so that Witt vectors
and lambda-elements can be formed over truncated polynomial rings.

The arithmetic kernel works on the ground ring's payloads (see `ground`:
over Z[S^-1] an int when integral, else a Fraction), not on RingElements.
Products, powers and compositions read the coefficients' payloads, compute
on payload lists, and wrap each result coefficient once:

  * over Z[S^-1] (Z, Z[1/p], Q) each operand is lifted to integer
    numerators over the lcm of its denominators, the convolution runs in
    Python ints, and a Fraction is built per output coefficient only
    when the common denominator is not 1;
    compose runs the whole Horner loop in integers,
    f(g) = sum_k F_k G^k d_g^(N-k) / (d_f d_g^N), where f = F/d_f and
    g = G/d_g, cutting the k-th Horner value at degree N - k because it
    is later multiplied by g^k, which starts at x^k;
  * over Q[y..] and dual numbers the same loops run on the ring's own
    payload operations (_pmul, _padd, _pis_zero).

`coeffs` stays a tuple of RingElements: indexing, equality, hashing and
text forms are the public face of a series and keep their ring, and the
wrapping costs one object per coefficient of a result, not one per
coefficient product.  Over Z every coefficient payload of a result is an
int.
"""

import math
from fractions import Fraction

from .errors import ExactDivisionError, RingMismatchError, UnsupportedRingError
from .ground import ZLOC, GroundRing, XAdicIdeal


def _lift(payloads):
    """Integer numerators over the lcm d of the denominators, and d.
    Takes ints and Fractions alike."""
    d = 1
    for q in payloads:
        if q.denominator != 1:
            d = math.lcm(d, q.denominator)
    if d == 1:
        return [q.numerator for q in payloads], 1
    return [q.numerator * (d // q.denominator) for q in payloads], d


def _unlift(nums, d):
    """The payloads c/d for c in nums: the ints themselves if d = 1, else
    one reduced Fraction each."""
    if d == 1:
        return nums
    return [Fraction(c, d) for c in nums]


def _conv_int(a, b, n):
    """Product of integer lists a and b, cut at degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                if y:
                    out[j] += x * y
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


class TruncSeries:
    """Power series over a GroundRing, truncated at degree N."""

    __slots__ = ("ring", "coeffs", "trunc", "xfilt")

    def __init__(self, ring, coeffs, trunc=None, xfilt=1):
        coeffs = [ring.coerce(c) for c in coeffs]
        if trunc is None:
            trunc = len(coeffs) - 1
        if trunc < 0:
            raise ValueError("truncation must be >= 0")
        if len(coeffs) < trunc + 1:
            coeffs += [ring.zero()] * (trunc + 1 - len(coeffs))
        elif len(coeffs) > trunc + 1:
            coeffs = coeffs[: trunc + 1]
        if xfilt < 1:
            raise ValueError("x_filtration must be positive")
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.trunc = trunc
        self.xfilt = xfilt

    @classmethod
    def _wrap(cls, ring, payloads, trunc, xfilt):
        """A series from trunc + 1 payloads that already lie in ring."""
        out = object.__new__(cls)
        out.ring = ring
        out.coeffs = tuple(map(ring._wrap, payloads))
        out.trunc = trunc
        out.xfilt = xfilt
        return out

    def _payloads(self):
        return [c.payload for c in self.coeffs]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, trunc, xfilt=1):
        return cls(ring, [], trunc, xfilt)

    @classmethod
    def const(cls, ring, c, trunc, xfilt=1):
        return cls(ring, [c], trunc, xfilt)

    @classmethod
    def x(cls, ring, trunc, xfilt=1):
        return cls(ring, [0, 1], trunc, xfilt)

    @classmethod
    def monomial(cls, ring, c, k, trunc, xfilt=1):
        coeffs = [0] * (trunc + 1)
        if k <= trunc:
            coeffs[k] = c
        return cls(ring, coeffs, trunc, xfilt)

    # -- queries -------------------------------------------------------------

    def __getitem__(self, k):
        return self.coeffs[k]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def constant_term(self):
        return self.coeffs[0]

    def linear_coeff(self):
        return self.coeffs[1] if self.trunc >= 1 else self.ring.zero()

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.trunc, self.coeffs))

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if other.ring != self.ring or other.trunc != self.trunc:
            raise RingMismatchError(
                "series mismatch: "
                f"{self.ring} mod x^{self.trunc + 1} vs "
                f"{other.ring} mod x^{other.trunc + 1}"
            )
        return other

    def _scalar(self, other):
        """other as an element of the ring, or None if coerce cannot take it."""
        try:
            return self.ring.coerce(other)
        except UnsupportedRingError:
            return None

    def __add__(self, other):
        ring = self.ring
        if isinstance(other, TruncSeries):
            self._check(other)
            add = ring._padd
            out = [add(a.payload, b.payload) for a, b in zip(self.coeffs, other.coeffs)]
            return TruncSeries._wrap(ring, out, self.trunc, self.xfilt)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        payloads = self._payloads()
        payloads[0] = ring._padd(payloads[0], c.payload)
        return TruncSeries._wrap(ring, payloads, self.trunc, self.xfilt)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            return self + (-other)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self + (-c)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        neg = self.ring._pneg
        return TruncSeries._wrap(
            self.ring, [neg(c.payload) for c in self.coeffs], self.trunc, self.xfilt
        )

    def __mul__(self, other):
        ring, N = self.ring, self.trunc
        if isinstance(other, TruncSeries):
            self._check(other)
            out = _mul_payloads(ring, self._payloads(), other._payloads(), N)
            return TruncSeries._wrap(ring, out, N, self.xfilt)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        mul, c = ring._pmul, c.payload
        return TruncSeries._wrap(
            ring, [mul(a.payload, c) for a in self.coeffs], N, self.xfilt
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ring, N = self.ring, self.trunc
        out = _pow_payloads(ring, self._payloads(), k, N)
        return TruncSeries._wrap(ring, out, N, self.xfilt)

    def div_int(self, n):
        div = self.ring.div_int
        return TruncSeries._wrap(
            self.ring, [div(c, n).payload for c in self.coeffs], self.trunc, self.xfilt
        )

    # -- text and JSON forms -------------------------------------------------------

    def coeff_strings(self):
        return [self.ring.format_payload(c.payload) for c in self.coeffs]

    def __str__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = self.ring.format_payload(c.payload)
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
            "x_filtration": self.xfilt,
            "coeffs": self.coeff_strings(),
        }

    @classmethod
    def from_json(cls, data):
        ring = GroundRing.from_json(data["ring"])
        return cls(ring, data["coeffs"], data["N"], data.get("x_filtration", 1))


def compose(f, g):
    """f(g(x)) mod x^{N+1}; requires g(0) = 0.

    Horner's rule from the top coefficient down, h_N = f_N and
    h_k = h_{k+1} g + f_k, with h_k cut at degree N - k: it is multiplied
    by g^k, which starts at x^k, on its way into h_0 = f(g).
    """
    f._check(g)
    if not g.constant_term().is_zero():
        raise ValueError("composition requires g(0) = 0")
    ring, N = f.ring, f.trunc
    fp, gp = f._payloads(), g._payloads()
    if ring.kind == ZLOC:
        # all in integers: h_k = h_{k+1} G + F_k d_g^(N-k), f(g) = h_0/(d_f d_g^N)
        F, df = _lift(fp)
        G, dg = _lift(gp)
        h, dpow = [F[N]], 1
        for k in range(N - 1, -1, -1):
            dpow *= dg
            h = _conv_int(h, G, N - k)
            h[0] = F[k] * dpow
        out = _unlift(h, df * dpow)
    else:
        out = fp[N:]
        for k in range(N - 1, -1, -1):
            out = _mul_payloads(ring, out, gp, N - k)
            out[0] = fp[k]
    return TruncSeries._wrap(ring, out, N, f.xfilt)


def revert(f):
    """Compositional inverse g with f(g) = x = g(f) mod x^{N+1}.

    Requires f(0) = 0 and the linear coefficient a unit of the ring; the
    coefficients of g are found degree by degree.
    """
    if not f.constant_term().is_zero():
        raise ValueError("reversion requires f(0) = 0")
    u = f.ring.try_invert(f.linear_coeff())
    if u is None:
        raise ExactDivisionError(
            f"linear coefficient {f.linear_coeff()} is not a unit in {f.ring}"
        )
    N = f.trunc
    coeffs = [f.ring.zero()] * (N + 1)
    if N >= 1:
        coeffs[1] = u
    g = TruncSeries(f.ring, coeffs, N, f.xfilt)
    for k in range(2, N + 1):
        defect = compose(f, g).coeffs[k]
        coeffs[k] = -(u * defect)
        g = TruncSeries(f.ring, coeffs, N, f.xfilt)
    return g


def congruent_mod(f, g, p):
    """True iff every coefficient of f - g is p-divisible."""
    f._check(g)
    diff = f - g
    return all(f.ring.is_p_divisible(c, p) for c in diff.coeffs)


def xadic_valuation(f):
    """Smallest k with c_k != 0, scaled by the filtration degree of x."""
    for k, c in enumerate(f.coeffs):
        if not c.is_zero():
            return k * f.xfilt
    return math.inf


class SeriesRing:
    """A truncation A[x]/x^{N+1} viewed as a coefficient domain.

    Its payload (the protocol of `ground.GroundRing`) is the tuple of the
    N + 1 ground payloads of a TruncSeries' coefficients.
    `_pmul` and `_ppow` are the convolution `_mul_payloads` (`_conv_int`
    over Z[S^-1]); the other `_p*` methods act coefficientwise, and
    `_wrap` builds one TruncSeries per result value.
    """

    __slots__ = ("ground", "trunc", "xfilt")

    def __init__(self, ground, trunc, xfilt=1):
        self.ground = ground
        self.trunc = trunc
        self.xfilt = xfilt

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, SeriesRing)
            and self.ground == other.ground
            and self.trunc == other.trunc
            and self.xfilt == other.xfilt
        )

    def __hash__(self):
        return hash((self.ground, self.trunc, self.xfilt))

    def __str__(self):
        return f"{self.ground}[x]/x^{self.trunc + 1}"

    __repr__ = __str__

    def zero(self):
        return TruncSeries.zero(self.ground, self.trunc, self.xfilt)

    def one(self):
        return TruncSeries.const(self.ground, 1, self.trunc, self.xfilt)

    def from_int(self, n):
        return TruncSeries.const(self.ground, n, self.trunc, self.xfilt)

    def x(self):
        return TruncSeries.x(self.ground, self.trunc, self.xfilt)

    def coerce(self, value):
        if isinstance(value, TruncSeries):
            if value.ring != self.ground or value.trunc != self.trunc:
                raise RingMismatchError(f"series does not live in {self}")
            return value
        if isinstance(value, (list, tuple)):
            return TruncSeries(self.ground, list(value), self.trunc, self.xfilt)
        if isinstance(value, str):
            return self.parse(value)
        return TruncSeries.const(self.ground, value, self.trunc, self.xfilt)

    def div_int(self, f, n):
        return f.div_int(n)

    # -- payload kernel -------------------------------------------------------

    def _unwrap(self, f):
        return tuple([c.payload for c in f.coeffs])

    def _wrap(self, payload):
        return TruncSeries._wrap(self.ground, payload, self.trunc, self.xfilt)

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
            k = min(ideal.k, self.trunc + 1)
            return all(c.is_zero() for c in f.coeffs[:k])
        return all(self.ground.in_ideal(c, ideal) for c in f.coeffs)

    def format(self, f):
        return ",".join(f.coeff_strings())

    def parse(self, text):
        parts = [p.strip() for p in text.split(",")]
        return TruncSeries(self.ground, parts, self.trunc, self.xfilt)
