"""Exact scalars, ground-ring descriptors, ideal membership, divisibility.

Three ring kinds cover every coefficient domain in the library:

  * localizations Z[S^-1] of the integers, given by the set S of inverted
    primes (finite, cofinite, or all); this captures Z, Z_(p) and Q,
  * polynomial algebras Q[y_1..y_k] over the rationals,
  * dual numbers B[eps] (eps^2 = 0) over one of the above.

Over Z[S^-1] a scalar is a Python int when it is integral and a
Fraction otherwise (never a float or a bool), the convention MPoly
coefficients follow too: integral input (`element`, `coerce`, parsing,
`from_int`) is stored as an int, int arithmetic stays in ints, so over Z
every scalar is an int, and Python's numeric tower keeps mixed
int/Fraction arithmetic exact.  A computed integral value over a ring
with denominators may also come out as a Fraction with denominator 1,
which compares and hashes equal to the int.  Polynomial payloads are
MPoly; dual payloads are (a, b) pairs of base payloads standing for
a + b*eps.  Elements are immutable and freely shareable.

Payload kernel.  The `_p*` operations of a GroundRing compute on
element payloads directly, and `__init__` binds them per kind into
instance slots.  On Z[S^-1] and Q[y..], whose payloads are scalars (the
flag `_inline_ops`, so generated code may write `+ - *`), `_padd`,
`_psub`, `_pneg`, `_pmul`, `_pscale` (by an int or a Fraction),
`_pis_zero` and `_ppow` are `operator.add`, `sub`, `neg`, `mul`, `mul`,
`not_` and `pow`.  dual(B) holds `SeriesRing(B, 1)`, whose series
a + b*x are its a + b*eps, and takes all seven from it; so `_ppow(x, 0)`
is that ring's one, over Z[S^-1] (1, 0) in ints even for a Fraction x,
equal in value and hash to the Fraction pair.  `_pdiv_int` divides by a
nonzero int, through the pair ring on dual numbers, and raises
ExactDivisionError when the quotient leaves the ring; `int / n` would be
a float, so code divides only through it, and an integral quotient is
an int.  `_pzero` and `_pfrom_int` stay
methods; `_unwrap` reads an element's payload and `_wrap` builds one
around a payload.  SeriesRing (`series`) implements the same protocol,
so `lambda_witt` and `structures` run one routine over every domain.
"""

import math
import operator
from fractions import Fraction

from .errors import (ExactDivisionError, InputError, MembershipError,
                     RingMismatchError, UnsupportedIdealError,
                     UnsupportedRingError)
from .sympoly import MPoly, parse_fraction, parse_poly


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASE_SET = frozenset(_MR_BASES)
# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality: small divisors, then Miller-Rabin with the
    prime bases 2..41, which is exact below 3.3*10^24.  Larger n raise
    InputError instead of running unbounded."""
    if n in _MR_BASE_SET:
        return True
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return False
    if n < 43 * 43:
        return True
    if n >= _MR_LIMIT:
        raise InputError(f"{n} is too large to test for primality "
                         f"(limit {_MR_LIMIT})")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_int(name, n, least):
    """n must be an int (not a bool) >= least; InputError otherwise."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise InputError(f"{name} must be an integer >= {least}, got {n!r}")


def factorize(n):
    """Prime factorization of a positive integer as {p: e}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeSet:
    """A set of primes: finite, cofinite, or all."""

    __slots__ = ("kind", "primes")

    def __init__(self, kind, primes=()):
        if kind not in ("finite", "cofinite", "all"):
            raise ValueError(f"bad prime-set kind {kind!r}")
        primes = frozenset(primes)
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.kind = kind
        self.primes = primes

    @classmethod
    def none(cls):
        return cls("finite", ())

    @classmethod
    def finite(cls, primes):
        return cls("finite", primes)

    @classmethod
    def cofinite(cls, excluded):
        return cls("cofinite", excluded)

    @classmethod
    def all_primes(cls):
        return cls("all")

    def inverts(self, p):
        if self.kind == "all":
            return True
        if self.kind == "finite":
            return p in self.primes
        return p not in self.primes

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PrimeSet)
            and self.kind == other.kind
            and self.primes == other.primes
        )

    def __hash__(self):
        return hash((self.kind, self.primes))

    def __str__(self):
        ps = ",".join(str(p) for p in sorted(self.primes))
        if self.kind == "all":
            return "all"
        if self.kind == "finite":
            return "{%s}" % ps
        return "all\\{%s}" % ps

    def to_json(self):
        if self.kind == "all":
            return "all"
        if self.kind == "finite":
            return {"finite": sorted(self.primes)}
        return {"cofinite": sorted(self.primes)}

    @classmethod
    def from_json(cls, data):
        if data == "all":
            return cls.all_primes()
        if "finite" in data:
            return cls.finite(data["finite"])
        return cls.cofinite(data["cofinite"])


ZLOC, QPOLY, DUAL = "localized_integers", "rational_poly", "dual_numbers"


# (_padd, _psub, _pneg, _pmul, _pscale, _pis_zero, _ppow) of Z[S^-1] and
# Q[y..]; dual numbers take theirs from SeriesRing(base, 1)
_SCALAR_KERNEL = (operator.add, operator.sub, operator.neg, operator.mul,
                  operator.mul, operator.not_, operator.pow)


def _div_poly(x, n):
    """x / n on Q[y..], where every nonzero int is a unit."""
    return x * Fraction(1, n)


class GroundRing:
    """Descriptor of a coefficient ring; also its element factory."""

    __slots__ = ("kind", "inverted", "variables", "base", "_pairs",
                 "_padd", "_psub", "_pneg", "_pmul", "_pscale", "_pis_zero",
                 "_ppow", "_pdiv_int", "_inline_ops")

    def __init__(self, kind, inverted=None, variables=None, base=None):
        self.kind = kind
        self.inverted = inverted
        self.variables = tuple(variables) if variables is not None else None
        self.base = base
        if kind == DUAL:
            if base is None or base.kind == DUAL:
                raise ValueError("dual numbers need a non-dual base ring")
            from .series import SeriesRing  # series imports this module
            pairs = self._pairs = SeriesRing(base, 1)
            ops = (pairs._padd, pairs._psub, pairs._pneg, pairs._pmul,
                   pairs._pscale, pairs._pis_zero, pairs._ppow)
            _bind_pdiv_int(self, self._div_dual)
        else:
            self._pairs, ops = None, _SCALAR_KERNEL
            _bind_pdiv_int(self, self._div_zloc if kind == ZLOC else _div_poly)
        (self._padd, self._psub, self._pneg, self._pmul, self._pscale,
         self._pis_zero, self._ppow) = ops
        self._inline_ops = ops is _SCALAR_KERNEL
        if kind == QPOLY and len(set(self.variables)) != len(self.variables):
            raise InputError(f"repeated variable in {self}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def integers(cls):
        return cls(ZLOC, inverted=PrimeSet.none())

    @classmethod
    def rationals(cls):
        return cls(ZLOC, inverted=PrimeSet.all_primes())

    @classmethod
    def localized(cls, inverted):
        if not isinstance(inverted, PrimeSet):
            inverted = PrimeSet.finite(inverted)
        return cls(ZLOC, inverted=inverted)

    @classmethod
    def p_local(cls, p):
        """Z_(p): every prime except p is inverted."""
        return cls(ZLOC, inverted=PrimeSet.cofinite([p]))

    @classmethod
    def rational_poly(cls, variables):
        return cls(QPOLY, variables=variables)

    @classmethod
    def dual(cls, base):
        return cls(DUAL, base=base)

    # -- predicates ---------------------------------------------------------

    def is_q_algebra(self):
        if self.kind == ZLOC:
            return self.inverted.kind == "all"
        if self.kind == QPOLY:
            return True
        return self.base.is_q_algebra()

    def between_Z_and_Q(self):
        return self.kind == ZLOC

    def fraction_field(self):
        """Smallest supported ring in which division by integers works."""
        if self.kind == ZLOC:
            return GroundRing.rationals()
        if self.kind == QPOLY:
            return self
        return GroundRing.dual(self.base.fraction_field())

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, GroundRing)
            and self.kind == other.kind
            and self.inverted == other.inverted
            and self.variables == other.variables
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.kind, self.inverted, self.variables, self.base))

    def __str__(self):
        if self.kind == ZLOC:
            if self.inverted.kind == "all":
                return "Q"
            if self.inverted.kind == "finite":
                if not self.inverted.primes:
                    return "Z"
                inv = ",".join(f"1/{p}" for p in sorted(self.inverted.primes))
                return f"Z[{inv}]"
            ex = sorted(self.inverted.primes)
            if len(ex) == 1:
                return f"Z_({ex[0]})"
            return f"Z[inv {self.inverted}]"
        if self.kind == QPOLY:
            return "Q[%s]" % ",".join(self.variables)
        return f"dual({self.base})"

    __repr__ = __str__

    # -- payload validity and membership -------------------------------------

    def _payload_ok(self, payload):
        if self.kind == ZLOC:
            return (isinstance(payload, (int, Fraction))
                    and not isinstance(payload, bool))
        if self.kind == QPOLY:
            return isinstance(payload, MPoly) and payload.vars == self.variables
        return (isinstance(payload, tuple) and len(payload) == 2
                and all(map(self.base._payload_ok, payload)))

    def _den_ok(self, den):
        """True iff 1/den lies in Z[S^-1]: every prime factor of den is in S."""
        inv = self.inverted
        if den == 1 or inv.kind == "all":
            return True
        if inv.kind == "cofinite":
            return all(den % p for p in inv.primes)
        for p in inv.primes:
            while den % p == 0:
                den //= p
        return den == 1

    def contains_payload(self, payload):
        """Membership of a fraction-field value in this ring."""
        if self.kind == ZLOC:
            return self._den_ok(payload.denominator)
        if self.kind == QPOLY:
            return True
        return all(map(self.base.contains_payload, payload))

    # -- element factory ------------------------------------------------------

    def element(self, payload, check=True):
        if not self._payload_ok(payload):
            raise UnsupportedRingError(
                f"payload {payload!r} has the wrong shape for {self}"
            )
        if check and not self.contains_payload(payload):
            raise MembershipError(f"{self.format_payload(payload)} is not in {self}")
        return RingElement(self, self._int_if_integral(payload))

    def _int_if_integral(self, payload):
        """The payload with each integral Z[S^-1] scalar as an int."""
        if self.kind == ZLOC:
            return payload.numerator if payload.denominator == 1 else payload
        if self.kind == QPOLY:
            return payload
        return tuple(map(self.base._int_if_integral, payload))

    def zero(self):
        return self._wrap(self._pzero())

    def one(self):
        return self._wrap(self._pfrom_int(1))

    def from_int(self, n):
        # operator.index turns a bool into an int and rejects a float
        return self._wrap(self._pfrom_int(operator.index(n)))

    def coerce(self, value):
        """Build an element from an int, Fraction, str, pair, or MPoly."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"element of {value.ring} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.element(self.parse_payload(value))
        if self.kind == ZLOC and isinstance(value, Fraction):
            return self.element(value)
        if self.kind == QPOLY:
            if isinstance(value, Fraction):
                return self.element(MPoly.const(self.variables, value))
            if isinstance(value, MPoly):
                return self.element(value)
        if self.kind == DUAL:
            if isinstance(value, tuple) and len(value) == 2:
                return self.element(tuple(self.base.coerce(v).payload
                                          for v in value))
            if isinstance(value, Fraction):
                return self.element((self.base.coerce(value).payload,
                                     self.base.zero().payload))
        raise UnsupportedRingError(f"cannot coerce {value!r} into {self}")

    # -- payload kernel (see the module docstring) -----------------------------

    def _unwrap(self, elem):
        return elem.payload

    def _wrap(self, payload):
        return RingElement(self, payload)

    def _pzero(self):
        if self.kind == ZLOC:
            return 0
        if self.kind == QPOLY:
            return MPoly.zero(self.variables)
        return (self.base._pzero(), self.base._pzero())

    def _pfrom_int(self, n):
        if self.kind == ZLOC:
            return n
        if self.kind == QPOLY:
            return MPoly.const(self.variables, n)
        return (self.base._pfrom_int(n), self.base._pzero())

    def _div_zloc(self, x, n):
        """`_pdiv_int` on Z[S^-1]: divmod on an int, else a Fraction."""
        if type(x) is int:
            q, r = divmod(x, n)
            if not r:
                return q
        q = Fraction(x, n)
        if q.denominator == 1:
            return q.numerator
        if self._den_ok(q.denominator):
            return q
        raise self._not_divisible(x, n)

    def _div_dual(self, x, n):
        """`_pdiv_int` on dual numbers: the pair ring's, naming this ring."""
        try:
            return self._pairs._pdiv_int(x, n)
        except ExactDivisionError:
            raise self._not_divisible(x, n) from None

    def _not_divisible(self, x, n):
        return ExactDivisionError(
            f"{self.format_payload(x)} is not divisible by {n} in {self}"
        )

    # -- ring-level operations ---------------------------------------------------

    def div_int(self, elem, n):
        """elem / n when the quotient stays in the ring."""
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self._wrap(self._pdiv_int(self._unwrap(elem), n))

    def try_invert(self, elem):
        """Multiplicative inverse inside the ring, or None."""
        if self.kind == ZLOC:
            q = elem.payload
            if not q:
                return None
            inv = Fraction(1) / q
            if not self.contains_payload(inv):
                return None
            return self.element(inv, check=False)
        if self.kind == QPOLY:
            c = elem.payload.constant()
            if elem.payload.terms and list(elem.payload.terms) == [
                (0,) * len(self.variables)
            ] and c:
                return RingElement(self, MPoly.const(self.variables, Fraction(1, 1) / c))
            return None
        a, b = elem.payload
        ia = self.base.try_invert(RingElement(self.base, a))
        if ia is None:
            return None
        ia = ia.payload
        nb = self.base._pneg(self.base._pmul(self.base._pmul(b, ia), ia))
        return RingElement(self, (ia, nb))

    def is_p_divisible(self, elem, p):
        """True iff elem = p*b for some b in the ring."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if self.kind == ZLOC:
            if self.inverted.inverts(p):
                return True
            return elem.payload.numerator % p == 0
        if self.kind == QPOLY:
            # p is a unit in a Q-algebra, so divisibility is automatic
            return True
        return self._pairs.is_p_divisible(self._pairs._wrap(elem.payload), p)

    def in_ideal(self, elem, ideal):
        if isinstance(ideal, PrimeIdeal):
            return self.is_p_divisible(elem, ideal.p)
        if isinstance(ideal, EpsIdeal):
            if self.kind != DUAL:
                raise UnsupportedIdealError(f"(eps) is not an ideal of {self}")
            return self.base._pis_zero(elem.payload[0])
        raise UnsupportedIdealError(f"{ideal} unsupported on {self}")

    # -- text and JSON forms --------------------------------------------------------

    def format(self, elem):
        """The text form of an element, as `SeriesRing.format` gives it."""
        return self.format_payload(elem.payload)

    def format_payload(self, payload):
        if self.kind == ZLOC:
            return format_fraction(payload)
        if self.kind == QPOLY:
            return str(payload)
        a = self.base.format_payload(payload[0])
        b = payload[1]
        if self.base._pis_zero(b):
            return a
        neg = False
        if self.base.kind == ZLOC and b < 0:
            neg, b = True, -b
        bs = self.base.format_payload(b)
        return f"{a} {'-' if neg else '+'} {bs}*eps"

    def parse_payload(self, text):
        text = text.strip()
        if self.kind == ZLOC:
            return parse_fraction(text)
        if self.kind == QPOLY:
            return parse_poly(text, self.variables)
        if "eps" in text:
            head, _, tail = text.rpartition("eps")
            if tail.strip():
                raise InputError(f"bad scalar {text!r}")
            head = head.strip()
            if head.endswith("*"):
                head = head[:-1].rstrip()
            return self._parse_dual_head(head)
        return (self.base.parse_payload(text), self.base.zero().payload)

    def _parse_dual_head(self, head):
        """The pair (a, b) from the text of "a + b*eps" before "*eps": such
        as "1 + 2", "1+2", "1/2-", "-3", "-" or "".  It splits at the last
        sign that follows an operand and leaves two parsable parts, so
        spacing does not matter and "1e-3" stays one scalar."""
        base = self.base
        for i in range(len(head) - 1, 0, -1):
            if head[i] in "+-" and head[:i].rstrip()[-1:].isalnum():
                try:
                    a = base.parse_payload(head[:i])
                    b = base.parse_payload(head[i + 1:].strip() or "1")
                except ValueError:
                    continue
                return (a, b if head[i] == "+" else base._pneg(b))
        b_text = {"": "1", "+": "1", "-": "-1"}.get(head, head)
        return (base.zero().payload, base.parse_payload(b_text))

    def to_json(self):
        if self.kind == ZLOC:
            return {"kind": ZLOC, "inverted": self.inverted.to_json()}
        if self.kind == QPOLY:
            return {"kind": QPOLY, "variables": list(self.variables)}
        return {"kind": DUAL, "base": self.base.to_json()}

    @classmethod
    def from_json(cls, data):
        kind = data["kind"]
        if kind == ZLOC:
            return cls(ZLOC, inverted=PrimeSet.from_json(data["inverted"]))
        if kind == QPOLY:
            names = data["variables"]
            if not isinstance(names, list) or not all(
                isinstance(v, str) for v in names
            ):
                raise InputError(f"variables must be a list of names, got {names!r}")
            return cls(QPOLY, variables=names)
        if kind == DUAL:
            return cls(DUAL, base=cls.from_json(data["base"]))
        raise ValueError(f"unknown ring kind {kind!r}")


# Writes the `_pdiv_int` slot past a subclass method or a patched class
# attribute of that name, which then still takes precedence.
_bind_pdiv_int = GroundRing._pdiv_int.__set__


def format_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_ring(text):
    """Parse a ring name: Z, Q, Z[1/2,1/3], Z_(5), Q[y1,y2], dual(<ring>),
    or <ring>[x]/x^k (k >= 1), the truncation `series.SeriesRing(<ring>, k - 1)`."""
    text = text.strip()
    if text.startswith("dual(") and text.endswith(")"):
        base = parse_ring(text[5:-1])
        if not isinstance(base, GroundRing):
            raise InputError(f"cannot parse ring {text!r}: dual numbers need a "
                             f"ground ring, not {base}")
        return GroundRing.dual(base)
    head, sep, tail = text.rpartition("[x]/")
    if sep:
        from .series import SeriesRing  # series imports this module
        k = tail[2:]
        if not (tail.startswith("x^") and k.isdecimal() and int(k) >= 1):
            raise InputError(
                f"cannot parse ring {text!r}: the ideal must be x^k with k >= 1"
            )
        ground = parse_ring(head)
        if not isinstance(ground, GroundRing):
            raise InputError(f"cannot parse ring {text!r}: {head} is not a ground ring")
        return SeriesRing(ground, int(k) - 1)
    if text == "Z":
        return GroundRing.integers()
    if text == "Q":
        return GroundRing.rationals()
    if text.startswith("Z_(") and text.endswith(")"):
        return GroundRing.p_local(int(text[3:-1]))
    if text.startswith("Z[") and text.endswith("]"):
        primes = []
        for part in text[2:-1].split(","):
            part = part.strip()
            if not part.startswith("1/"):
                raise ValueError(f"bad localization entry {part!r}")
            primes.append(int(part[2:]))
        return GroundRing.localized(primes)
    if text.startswith("Q[") and text.endswith("]"):
        names = tuple(v.strip() for v in text[2:-1].split(",") if v.strip())
        return GroundRing.rational_poly(names)
    raise ValueError(f"cannot parse ring {text!r}")


class RingElement:
    """An immutable element of a GroundRing."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def is_zero(self):
        return self.ring._pis_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def _other(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine elements of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._padd(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._psub(self.payload, other.payload))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RingElement(self.ring, self.ring._pneg(self.payload))

    def __mul__(self, other):
        other = self._other(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._pmul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return RingElement(self.ring, self.ring._ppow(self.payload, k))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.ring.coerce(other)
            except (UnsupportedRingError, MembershipError):
                return False
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.payload == other.payload

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __str__(self):
        return self.ring.format_payload(self.payload)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def is_p_divisible(a, p):
    """True iff a = p*b for some b in a's ring."""
    return a.ring.is_p_divisible(a, p)


class BinomialResult(tuple):
    """Value of a binomial symbol plus an in-ring flag."""

    __slots__ = ()

    def __new__(cls, value, in_ring):
        return super().__new__(cls, (value, in_ring))

    @property
    def value(self):
        return self[0]

    @property
    def in_ring(self):
        return self[1]


def binomial(a, n):
    """The binomial symbol a(a-1)...(a-n+1)/n!, computed in the fraction
    field, with a flag telling whether it lies in a's ring."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ring = a.ring
    ff = ring.fraction_field()
    x = ff.element(a.payload, check=False)
    prod = ff.one()
    for k in range(n):
        prod = prod * (x - ff.from_int(k))
    value = RingElement(ff, ff._pscale(prod.payload, Fraction(1, math.factorial(n))))
    return BinomialResult(value, ring.contains_payload(value.payload))


def binom_fraction(q, n):
    """Generalized binomial symbol C(q, n) for a Fraction or int."""
    q = Fraction(q)
    num = Fraction(1)
    for k in range(n):
        num *= q - k
    return num / math.factorial(n)


# ---------------------------------------------------------------------------
# ideal descriptors
# ---------------------------------------------------------------------------


class PrimeIdeal:
    """The ideal pR of a localization (or dual numbers over one)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __repr__(self):
        return f"({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeIdeal) and self.p == other.p


class XAdicIdeal:
    """The ideal (x^k) of a truncated polynomial or power series carrier."""

    __slots__ = ("k",)

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def __repr__(self):
        return f"(x^{self.k})"

    def __eq__(self, other):
        return isinstance(other, XAdicIdeal) and self.k == other.k


class EpsIdeal:
    """The ideal (eps) of a dual-number ring."""

    __slots__ = ()

    def __repr__(self):
        return "(eps)"

    def __eq__(self, other):
        return isinstance(other, EpsIdeal)
