"""Truncated univariate power series with the x-adic filtration.

A TruncSeries holds coefficients c_0..c_N (RingElements over a common
GroundRing) and is exact modulo x^{N+1}.  The declared filtration degree
d of x only scales valuations.  SeriesRing packages a truncation as a
coefficient domain in its own right (A[x]/x^{N+1}), so that Witt vectors
and lambda-elements can be formed over truncated polynomial rings.
"""

import math

from .errors import ExactDivisionError, RingMismatchError
from .ground import GroundRing, XAdicIdeal


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

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(
                self.ring,
                [a + b for a, b in zip(self.coeffs, other.coeffs)],
                self.trunc,
                self.xfilt,
            )
        try:
            c = self.ring.coerce(other)
        except Exception:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return TruncSeries(self.ring, coeffs, self.trunc, self.xfilt)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncSeries(self.ring, [-c for c in self.coeffs], self.trunc, self.xfilt)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            N = self.trunc
            zero = self.ring.zero()
            out = [zero] * (N + 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j in range(N + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return TruncSeries(self.ring, out, N, self.xfilt)
        try:
            c = self.ring.coerce(other)
        except Exception:
            return NotImplemented
        return TruncSeries(
            self.ring, [a * c for a in self.coeffs], self.trunc, self.xfilt
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = TruncSeries.const(self.ring, 1, self.trunc, self.xfilt)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def map_coeffs(self, fn, ring=None):
        """Apply fn to every coefficient (pushforward along a ring map)."""
        ring = ring or self.ring
        return TruncSeries(ring, [fn(c) for c in self.coeffs], self.trunc, self.xfilt)

    def div_int(self, n):
        return self.map_coeffs(lambda c: self.ring.div_int(c, n))

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


def series_arith(op, f, g):
    """Exact add/mul of matched truncated series."""
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown op {op!r}")


def compose(f, g):
    """f(g(x)) mod x^{N+1}; requires g(0) = 0."""
    f._check(g)
    if not g.constant_term().is_zero():
        raise ValueError("composition requires g(0) = 0")
    N = f.trunc
    # Horner from the top coefficient down
    out = TruncSeries.const(f.ring, f.coeffs[N], N, f.xfilt)
    for k in range(N - 1, -1, -1):
        out = out * g + f.coeffs[k]
    return out


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
    """A truncation A[x]/x^{N+1} viewed as a coefficient domain."""

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
