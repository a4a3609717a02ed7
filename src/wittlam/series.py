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
scalar operand becomes a constant payload.  `SeriesRing.__init__` binds
them into instance slots once per ring (`_payload_ops`), as
`GroundRing.__init__` does.  For each truncation N <= 32, one generated
source, compiled from the int N on first use and kept in `_KERNELS[N]`,
gives a product, a sum, a difference, a scaling and an exact division
by an int as straight-line functions on tuples: c_j = a0*bj + ... +
aj*b0, aj + bj, aj - bj, aj*c and aj // n (after checking every
aj % n) written out in full.  Its size and compile time grow as N^2
(measured: about 0.2 ms at N = 4 and 2-3 ms at N = 32), so above N = 32
nothing is generated: products run a row loop that skips zero
coefficients and the other ops map the ground's op.  Which ring gets
which ops:

  * Over Z every payload is a tuple of ints, and every op is an int
    kernel: the generated product, sum, difference, scaling and exact
    division (whose failure maps Z's `_pdiv_int`, which names the first
    coefficient n does not divide), a power that squares under that
    product, `not any(x)` for the zero test, and the ground's `operator`
    function mapped over the coefficients for negation.
  * Over Z[S^-1] with S nonempty (Z[1/p], Q) a product lifts each
    operand to integer numerators over the lcm of its denominators,
    multiplies them by the same int product, and builds a Fraction per
    output coefficient only when the common denominator is not 1; an
    operand of ints only skips the lift, and `_lift` returns it as it is,
    so no caller may mutate a lifted operand.  A power lifts its base
    once.  Sums, differences, negation, scaling and the zero test are
    those of Z; division maps the ground's `_pdiv_int`.
  * Over Q[y..] products and powers run the row loop on the ground's own
    payload operations (_pmul, _padd, _pis_zero); the other ops are those
    of Z[S^-1].  A ground whose payloads are tuples (dual numbers, the
    `GroundRing` without `_inline_ops`) gets the row loop too, and maps
    the ground's own op over the coefficients for every other op.

Powers start from the base at the lowest set bit of the exponent, so no
product multiplies by 1.

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

Composition and reversion over Z[S^-1] with 1 <= N <= 16
(`_COMPOSE_MAX_N`) run the same algorithm as three more generated
functions, compiled from the int N on first use and kept in
`_COMPOSE_KERNELS[N]`: `table` writes the recurrence of `_grow_powers`
out as one assignment per entry (G^k)_j of the lifted inner series, `dot`
writes out F_0 and the dot product of F with each column, and `revert`
writes the same recurrence with the entries of G read as the unknowns
s, each column followed by the line that solves for s_j.  Their source
grows as N^3 (measured: about 1 ms to compile at N = 8 and 5 ms at
N = 16); at N = 12 a table takes about 12 us in place of 85-90, the dot
products 3-5 us in place of 6-10, and the reversion solve 8 us in place
of 50.  Above the limit, and over Q[y..] and dual numbers, composition
and reversion run `_grow_powers` and the loops above; the Lubin solver
always does, since each of its solves divides in the fraction field.

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
from .ground import (QPOLY, ZLOC, GroundRing, PrimeIdeal, XAdicIdeal,
                     check_int, is_prime)


def _lift(payloads):
    """The tuple of integer numerators over the lcm d of the denominators,
    and d.  Takes ints and Fractions alike.  When every payload is an int
    they are the numerators, with d = 1, and the argument itself is
    returned: callers must not mutate the result."""
    for q in payloads:
        if type(q) is not int:
            break
    else:
        return payloads, 1
    d = math.lcm(*[q.denominator for q in payloads])
    return tuple([q.numerator * (d // q.denominator) for q in payloads]), d


def _unlift(nums, d):
    """The payloads c/d for c in nums: nums itself if d = 1, else a tuple
    of one reduced Fraction each."""
    if d == 1:
        return nums
    return tuple([Fraction(c, d) for c in nums])


# Truncations up to this one get generated kernels; the product's source
# grows as N^2, and so does the time to compile it.
_KERNEL_MAX_N = 32
_KERNELS = {}  # N -> the straight-line (mul, add, sub, scale, div) of N, built on first use


def _straight_line(n):
    """The product, sum and difference of two sequences of n + 1 entries,
    the product cut at degree n, and the scaling of one by a number c and
    its exact division by an int n', as functions returning tuples: their
    bodies are c_j = a0*bj + a1*b(j-1) + ... + aj*b0, aj + bj, aj - bj,
    aj*c and aj // n' written out in full for j = 0..n.  The division
    first checks every aj % n'; if one is nonzero it maps Z's own
    `_pdiv_int`, which raises for the first such aj."""
    degrees = range(n + 1)
    a = ", ".join(f"a{i}" for i in degrees)
    b = ", ".join(f"b{i}" for i in degrees)
    bodies = {
        "mul": ", ".join(" + ".join(f"a{i}*b{j - i}" for i in range(j + 1))
                         for j in degrees),
        "add": ", ".join(f"a{j} + b{j}" for j in degrees),
        "sub": ", ".join(f"a{j} - b{j}" for j in degrees),
    }
    source = "".join(f"def {name}(a, b):\n"
                     f"    {a}, = a\n"
                     f"    {b}, = b\n"
                     f"    return ({c},)\n" for name, c in bodies.items())
    source += (f"def scale(a, c):\n"
               f"    {a}, = a\n"
               f"    return ({', '.join(f'a{j}*c' for j in degrees)},)\n"
               f"def div(a, n):\n"
               f"    {a}, = a\n"
               f"    if {' or '.join(f'a{j} % n' for j in degrees)}:\n"
               f"        return tuple([_pdiv_int(c, n) for c in a])\n"
               f"    return ({', '.join(f'a{j} // n' for j in degrees)},)\n")
    namespace = {"_pdiv_int": _Z._pdiv_int}
    exec(compile(source, f"<series kernels N={n}>", "exec"), namespace)
    return tuple(namespace[name] for name in ("mul", "add", "sub", "scale", "div"))


# Truncations up to this one compose through generated kernels.  Their source
# grows as N^3 (the table has about N^3/6 products), and so does the time to
# compile it: at N = 32 one compile costs what 70-100 power tables save, and
# the generated dot products are no faster than the loop.
_COMPOSE_MAX_N = 16
_COMPOSE_KERNELS = {}  # N -> the straight-line (table, dot, revert) of N, built on first use


def _straight_line_compose(n):
    """The power table, the dot products and the reversion of a composition
    at truncation n, as functions on integer sequences.  table(G), for
    G_0 = 0 and n + 1 entries, returns the columns ((G^k)_j for k = 1..j)
    for j = 1..n, with (G^k)_j = G_1 (G^(k-1))_(j-1) + ... +
    G_(j-k+1) (G^(k-1))_(k-1) written out in full; dot(F, T) returns F_0
    followed by the dot product of F_1.. with each column of such a table.
    revert(c), for c = (c_2, .., c_n), returns the s with s_0 = 0, s_1 = 1
    and s_j = c_2 (s^2)_j + ... + c_j (s^j)_j: the same recurrence lines
    with the names of G read as the unknowns s, and after column j one line
    that solves for s_j."""
    def power(k, j):  # the name of (G^k)_j
        return f"g{j}" if k == 1 else f"p{k}_{j}"

    def nested(rows):  # "(a,), (b, c,), " for [["a"], ["b", "c"]]
        return "".join("(" + ", ".join(row) + ",), " for row in rows)

    degrees = range(1, n + 1)
    columns = [[power(k, j) for k in range(1, j + 1)] for j in degrees]
    cells = [[f"t{j}_{k}" for k in range(1, j + 1)] for j in degrees]
    steps = [[f"{power(k, j)} = "
              + " + ".join(f"g{i}*{power(k - 1, j - i)}" for i in range(1, j - k + 2))
              for k in range(2, j + 1)] for j in range(2, n + 1)]
    solves = [f"g{j} = "
              + " + ".join(f"c{k}*{power(k, j)}" for k in range(2, j + 1))
              for j in range(2, n + 1)]
    dots = [" + ".join(f"F{k}*{t}" for k, t in enumerate(col, 1))
            for col in cells]
    g = ", ".join(f"g{j}" for j in degrees)
    lines = [
        "def table(g):",
        "    _, " + g + ", = g",
        *("    " + step for column in steps for step in column),
        "    return (" + nested(columns) + ")",
        "def dot(F, T):",
        "    " + ", ".join(f"F{k}" for k in range(n + 1)) + ", = F",
        "    " + nested(cells) + "= T",
        "    return (F0, " + ", ".join(dots) + ",)",
        "def revert(c):",
        "    (" + "".join(f"c{k}, " for k in range(2, n + 1)) + ") = c",
        "    g1 = 1",
        *("    " + line for column, solve in zip(steps, solves)
          for line in column + [solve]),
        "    return (0, " + g + ",)",
    ]
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<compose kernels N={n}>", "exec"),
         namespace)
    return namespace["table"], namespace["dot"], namespace["revert"]


def _compose_kernels(n):
    """(table, dot, revert), the straight-line composition kernels of n,
    built on first use, for 1 <= n <= _COMPOSE_MAX_N; None for other n."""
    if not 1 <= n <= _COMPOSE_MAX_N:
        return None
    kernels = _COMPOSE_KERNELS.get(n)
    if kernels is None:
        kernels = _COMPOSE_KERNELS[n] = _straight_line_compose(n)
    return kernels


def _kernels(n):
    """(mul, add, sub, scale, div), the straight-line kernels of n, built
    on first use, for n <= _KERNEL_MAX_N; None for larger n."""
    if n > _KERNEL_MAX_N:
        return None
    kernels = _KERNELS.get(n)
    if kernels is None:
        kernels = _KERNELS[n] = _straight_line(n)
    return kernels


def _conv_int(a, b, n):
    """Product of integer lists a and b, cut at degree n, as a tuple; b must
    have at least n + 1 entries.  The row loop skips the zeros of a."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j in range(i, n + 1):
                out[j] += x * b[j - i]
    return tuple(out)


def _mul_payloads(ring, a, b, n):
    """Product of payload lists a and b over ring, cut at degree n, as a
    tuple, by the row loop on the ring's own payload operations; the zeros
    of a are skipped."""
    mul, add, is_zero = ring._pmul, ring._padd, ring._pis_zero
    out = [ring._pzero()] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if is_zero(x):
            continue
        for j, y in enumerate(b[: n + 1 - i], i):
            if not is_zero(y):
                out[j] = add(out[j], mul(x, y))
    return tuple(out)


def _pow_payloads(mul, base, k):
    """base**k for k >= 1 by repeated squaring under the product mul.  The
    result starts as base^(2^t) for the lowest set bit 2^t of k, so no
    product multiplies by 1."""
    while not k & 1:
        base = mul(base, base)
        k >>= 1
    out = base
    k >>= 1
    while k:
        base = mul(base, base)
        if k & 1:
            out = mul(out, base)
        k >>= 1
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
    is over Z[S^-1] and G holds its integer numerators, and for
    N <= _COMPOSE_MAX_N the generated table of N builds T; otherwise, and
    over the given ring with G = g and d = 1, `_grow_powers` does.
    Memoised by gp (and the ring); the bound keeps the memory flat however
    many series pass."""
    G, d = _lift(gp) if ring is None else (gp, 1)
    kernels = _compose_kernels(len(gp) - 1) if ring is None else None
    if kernels:
        return kernels[0](G), d
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
        # the operand goes first: in the row loops (Q[y..], dual numbers,
        # and N > 32 over Z[S^-1]) a constant's one nonzero coefficient is
        # then the only outer step; the straight-line kernel takes any order
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
    g = G/d_g, f(g) = sum_k F_k d_g^(N-k) G^k / (d_f d_g^N), and for
    N <= _COMPOSE_MAX_N the generated dot of N reads every coefficient.
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
        kernels = _compose_kernels(N)
        if kernels:
            out = kernels[1](F, T)
        else:
            mul, F1 = operator.mul, F[1:]
            out = [F[0]] + [sum(map(mul, F1, col)) for col in T]
        out = _unlift(out, df * dg ** N)
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
    the inverse s of t, which is integral and solved in ints; for
    N <= _COMPOSE_MAX_N by the generated revert of N, and with a = d = 1
    (f integral with f_1 = 1) g is s.
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
    kernels = _compose_kernels(N) if ring.kind == ZLOC else None
    # s_j = sum_{k >= 2} c_k (s^k)_j with c_k = -f_k / f_1
    if kernels:
        s = kernels[2](c)
    else:
        _grow_powers(s, total, mul, lambda j, rows: total(
            map(mul, c, [row[j] for row in rows[2 : j + 1]])))
    if ring.kind == ZLOC and (a, d) != (1, 1):
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


_Z = GroundRing.integers()


def _all_zero(x):
    return not any(x)


def _lifted(int_mul, one):
    """The product and power of payloads over Z[S^-1] run in the integer
    numerators by int_mul (see `_lift`), a power lifting its base once."""
    def mul(x, y):
        x, dx = _lift(x)
        y, dy = _lift(y)
        return _unlift(int_mul(x, y), dx * dy)

    def power(x, k):
        if not k:
            return one
        x, d = _lift(x)
        return _unlift(_pow_payloads(int_mul, x, k), d ** k)

    return mul, power


def _payload_ops(ground, N):
    """(_padd, _psub, _pneg, _pmul, _ppow, _pscale, _pis_zero, _pdiv_int)
    of SeriesRing(ground, N), which binds them once: generated kernels on
    scalar payloads (`_inline_ops`), the ground's ops mapped and the row
    loop on tuple payloads (see the module docstring)."""
    padd, psub, pneg = ground._padd, ground._psub, ground._pneg
    pscale, pis_zero, pdiv_int = ground._pscale, ground._pis_zero, ground._pdiv_int

    def add(x, y):
        return tuple(map(padd, x, y))

    def sub(x, y):
        return tuple(map(psub, x, y))

    def neg(x):
        return tuple(map(pneg, x))

    def scale(x, c):
        return tuple([pscale(a, c) for a in x])

    def is_zero(x):
        return all(map(pis_zero, x))

    def div_int(x, n):
        return tuple([pdiv_int(a, n) for a in x])

    if ground._inline_ops:
        kernels = _kernels(N)
        if kernels:
            add, sub, scale = kernels[1:4]
        is_zero = _all_zero
    one = (ground._pfrom_int(1),) + (ground._pzero(),) * N
    if ground.kind == ZLOC:
        int_mul = kernels[0] if kernels else functools.partial(_conv_int, n=N)
        if ground != _Z:
            return (add, sub, neg, *_lifted(int_mul, one), scale, is_zero,
                    div_int)
        mul, div_int = int_mul, kernels[4] if kernels else div_int
    else:
        mul = functools.partial(_mul_payloads, ground, n=N)

    def power(x, k):
        return _pow_payloads(mul, x, k) if k else one

    return add, sub, neg, mul, power, scale, is_zero, div_int


class SeriesRing:
    """A truncation A[x]/x^{N+1} viewed as a coefficient domain.

    Its elements are TruncSeries, and its payload (the protocol of
    `ground.GroundRing`) is a series' own `payload`, the tuple of its
    N + 1 ground payloads, so `_unwrap` and `_wrap` convert nothing.
    `__init__` binds `_padd`, `_psub`, `_pneg`, `_pmul`, `_ppow`,
    `_pscale`, `_pis_zero` and `_pdiv_int` into slots once, by
    `_payload_ops`: int kernels over Z, the lifted product over Z[S^-1]
    with S nonempty, the row loop `_mul_payloads` over Q[y..] and over a
    ground with tuple payloads, which also gets the ground's ops mapped
    over the coefficients (see the module docstring).  `_pzero` and
    `_pfrom_int` stay methods.  None of the ops is an `operator`
    function, so `_inline_ops` is False.
    """

    __slots__ = ("ground", "trunc", "_padd", "_psub", "_pneg", "_pmul", "_ppow",
                 "_pscale", "_pis_zero", "_pdiv_int")
    _inline_ops = False

    def __init__(self, ground, trunc):
        check_int("N", trunc, 0)
        self.ground = ground
        self.trunc = trunc
        (self._padd, self._psub, self._pneg, self._pmul, self._ppow,
         self._pscale, self._pis_zero, self._pdiv_int) = _payload_ops(ground, trunc)

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

    def is_p_divisible(self, f, p):
        """True iff every coefficient of f is p-divisible in the ground
        ring: read off scalar payloads as `GroundRing.is_p_divisible` reads
        one, or asked of a ground with tuple payloads per coefficient."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        ring = self.ground
        if not ring._inline_ops:
            return all(ring.is_p_divisible(c, p) for c in f.coeffs)
        if ring.kind == QPOLY or ring.inverted.inverts(p):
            return True
        return all(c.numerator % p == 0 for c in f.payload)

    def in_ideal(self, f, ideal):
        if isinstance(ideal, XAdicIdeal):
            return self._pis_zero(f.payload[: ideal.k])
        if isinstance(ideal, PrimeIdeal):
            return self.is_p_divisible(f, ideal.p)
        return all(self.ground.in_ideal(c, ideal) for c in f.coeffs)

    def format(self, f):
        return ",".join(f.coeff_strings())

    def parse(self, text):
        return self.coerce([p.strip() for p in text.split(",")])
