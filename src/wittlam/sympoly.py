"""Multivariate polynomials and the universal polynomials of lambda-rings.

The centrepiece is the computation of the universal polynomials P_n and
P_{m,n} that govern products and compositions of lambda-operations.
Both come from recursions indexed by partitions or by degree, never from
expanding in explicit variables (Macdonald, *Symmetric Functions and Hall
Polynomials*, ch. I):

  * P_n(a_1..a_n; b_1..b_n) = e_n[x*y] is, by the dual Cauchy identity
    (4.3'), sum_{lambda |- n} s_lambda(x) s_lambda'(y), and each Schur
    function is a dual Jacobi-Trudi determinant (3.5) in the a's or b's.
    Each determinant is expanded once per partition along its first
    column, whose minors are again determinants of partitions.
  * P_{m,n}(a_1..a_{mn}) = e_m[e_n] comes from Newton's identities (§2)
    at two plethysm levels: p_i[e_n] = e_n[p_i] (§8) is e_n of an
    alphabet whose power sums are p_{ri}, and P_{m,n} is e_m of the
    alphabet whose power sums are the p_i[e_n].

Both constructions run in integer term dicts, and each result is checked
integral where it is built, before it enters the memo `GLOBAL_CACHE`.
Polynomials are sparse dicts from exponent tuples to int/Fraction
coefficients ("term dicts"); zero coefficients are never stored.
`MPoly.evaluate` runs one algorithm for ints, Fractions and ring elements
on a sparse form of the terms, built on a polynomial's first evaluation
(not at construction) into a slot that == and hash ignore.  It is set by
one assignment, so threads racing on a `GLOBAL_CACHE` entry at worst
build it twice.

Inside the builders a monomial is one packed int (Monagan and Pearce,
CASC 2007): over e_1..e_K the exponent of e_k sits in bits
[B(k-1), Bk) with B = K.bit_length().  Every dict a builder makes is
isobaric of weight at most K (e_k has weight k): P_n has n variables a
side and weight n, and P_{m,n} has K = mn variables and weight K.  So
no exponent reaches 2^B, and adding two keys is the monomial product,
with no carry into the next field.  Each builder unpacks its keys to
exponent tuples once, just before `MPoly._integral`.  `MPoly`'s own
product stays on tuples, because its operands are not isobaric and its
terms do not collapse, so packing and unpacking them costs more than
the packed product saves.

A packed key depends only on the field width B, not on K, so every
builder at one width shares three module tables of intermediate
results, each a dict keyed by B whose value maps an index to a packed
term dict:

  * `_DETS[B][lam]`, the Jacobi-Trudi determinant D(lam) (`universal_P`);
  * `_PSUMS[B][k]`, the power sum p_k in the e's (`universal_Pcomp`);
  * `_PLETHYSMS[B][(i, j)]`, e_j[p_i], e_j of the alphabet {x^i}
    (`universal_Pcomp`).

So P_9 reads every D(lam) that P_8 built, and P_(1,9), P_(3,3) and
P_(9,1) share p_1..p_9.  Each entry is built once from lower entries,
with the same checks as a cold build (each Newton division is tested
for a remainder), and inserted with dict.setdefault.  It is never
changed after that, and no entry is aliased into a returned MPoly, so
the argument of `GLOBAL_CACHE` below covers the tables too.  Nothing is
built at import.  Every entry at width B has weight below 2^B, so
`_DETS[B]` holds at most the partitions of such weights, `_PSUMS[B]` at
most 2^B - 1 power sums and `_PLETHYSMS[B]` the pairs with ij < 2^B,
and each table grows only as far as the largest polynomial built at B.
"""

from fractions import Fraction
from operator import add as _add
from types import SimpleNamespace

from .errors import BoundExceededError, InputError, IntegralityError

DEFAULT_PCOMP_BOUND = 6


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# ---------------------------------------------------------------------------
# term-dict helpers
# ---------------------------------------------------------------------------


def _mul(a, b):
    """Product of two term dicts over the same variable list."""
    out = {}
    if not a or not b:
        return out
    if len(b) > len(a):
        a, b = b, a
    for eb, cb in b.items():
        for ea, ca in a.items():
            ec = tuple(map(_add, ea, eb))
            c = out.get(ec)
            if c is None:
                out[ec] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[ec] = c
                else:
                    del out[ec]
    return out


def _add_into(dst, src, scale=1, shift=0):
    """In-place dst += scale * x^shift * src; returns dst with zeros dropped.

    A nonzero shift needs packed keys, where adding it to a key multiplies
    the monomial by x^shift.  dst and src must be distinct dicts.
    """
    if not src or scale == 0:
        return dst
    if scale == 1 and not shift:
        for e, c0 in src.items():
            c = dst.get(e)
            if c is None:
                dst[e] = c0
            else:
                c = c + c0
                if c:
                    dst[e] = c
                else:
                    del dst[e]
    else:
        for e, c0 in src.items():
            if shift:
                e += shift
            c = dst.get(e)
            if c is None:
                dst[e] = scale * c0
            else:
                c = c + scale * c0
                if c:
                    dst[e] = c
                else:
                    del dst[e]
    return dst


def _scaled(a, scale):
    """scale*a as a fresh dict."""
    if not scale:
        return {}
    return {e: scale * c for e, c in a.items()}


def _power(a, k, nvars):
    """a**k by binary powering; k >= 0."""
    result = {(0,) * nvars: 1}
    if k == 0:
        return result
    base = a
    while True:
        if k & 1:
            result = _mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _mul(base, base)


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms", "_sparse")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            n = len(self.vars)
            for e, c in terms.items():
                if len(e) != n:
                    raise ValueError(
                        f"exponent {e} does not match {n} variables"
                    )
                c = _norm_coeff(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _integral(cls, variables, terms, what):
        """An MPoly that takes ownership of a term dict built in this module,
        whose exponents fit `variables` and whose zeros are already dropped,
        so no term is re-checked.  A coefficient that is not an int raises
        IntegralityError naming `what`."""
        if not all(isinstance(c, int) for c in terms.values()):
            raise IntegralityError(f"{what} has a non-integer coefficient")
        p = cls.__new__(cls)
        p.vars = tuple(variables)
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, c):
        variables = tuple(variables)
        p = cls(variables)
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c:
            p.terms[(0,) * len(variables)] = c
        return p

    @classmethod
    def one(cls, variables):
        return cls.const(variables, 1)

    @classmethod
    def gen(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def coeff(self, expo):
        return self.terms.get(tuple(expo), 0)

    def constant(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(
                    f"variable mismatch: {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms)
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return MPoly(self.vars, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly(self.vars, _scaled(self.terms, -1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.vars, _scaled(self.terms, other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly(self.vars, _mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return MPoly(self.vars, _power(self.terms, k, len(self.vars)))

    # -- evaluation ------------------------------------------------------

    def _sparse_form(self):
        """(tops, rows): tops[i] is the top exponent of variable i, and a
        row (c, first, rest) places a term's nonzero x_i^k in the table 1,
        x_0..x_0^tops[0], x_1.. that `evaluate` builds (the constant at 0)."""
        tops = [max(col) for col in zip(*self.terms)]
        starts = [sum(tops[:i]) for i in range(len(tops))]
        rows = []
        for e, c in self.terms.items():
            row = [s + k for s, k in zip(starts, e) if k] or [0]
            rows.append((c, row[0], row[1:]))
        return tops, rows

    def evaluate(self, values, one):
        """Evaluate in any commutative ring, by one algorithm for every value
        type: `values` maps each variable to an int, a Fraction or a ring
        element, and `one` is the ring's identity.  An integral Fraction is
        taken as its int, powers come from repeated multiplication, and the
        terms are summed from the int 0; the result is `one * <sum>`, so
        its type follows `one`."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"no values for variables {missing}")
        try:
            tops, rows = self._sparse
        except AttributeError:
            tops, rows = self._sparse = self._sparse_form()
        powers = [1]
        for v, top in zip(self.vars, tops):
            if top:
                x = _norm_coeff(values[v])
                powers.append(x)
                for _ in range(1, top):
                    powers.append(powers[-1] * x)
        total = 0
        for c, first, rest in rows:
            term = powers[first]
            for j in rest:
                term = term * powers[j]
            total = total + (term if c == 1 else term * c)
        return one * total

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return format_terms(self.terms, self.vars)

    def __repr__(self):
        return f"MPoly({self.vars}, {self})"


def format_terms(terms, variables):
    """Canonical text form: terms sorted lexicographically, leading first."""
    if not terms:
        return "0"
    bits = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        factors = []
        for v, k in zip(variables, e):
            if k == 1:
                factors.append(v)
            elif k:
                factors.append(f"{v}^{k}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


def parse_fraction(text):
    """A rational scalar such as ``-3`` or ``5/6``; malformed text and a zero
    denominator raise InputError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {text!r}") from exc


def parse_poly(text, variables):
    """Parse the canonical text form back into an MPoly.

    Accepts sums of terms like ``3*a1^2*b2``, ``-a1``, ``5/6``.  A name
    outside `variables` or an exponent that is not a nonnegative integer
    raises InputError naming it and the variables.
    """
    variables = tuple(variables)
    text = text.strip()
    if text in ("0", ""):
        return MPoly.zero(variables)
    where = f"in {text!r} (variables: {', '.join(variables) or 'none'})"
    text = text.replace("- ", "+-").replace("+ ", "+")
    if text.startswith("-"):
        text = "-" + text[1:].lstrip()
    chunks = [t for t in text.split("+") if t.strip()]
    total = MPoly.zero(variables)
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        expo = [0] * len(variables)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0].isdigit():
                coeff *= parse_fraction(factor)
                continue
            name, caret, k = factor.partition("^")
            if name not in variables:
                raise InputError(f"unknown variable {name!r} {where}")
            if caret and not k.isdecimal():
                raise InputError(f"bad exponent {k!r} {where}")
            expo[variables.index(name)] += int(k) if caret else 1
        total = total + MPoly(variables, {tuple(expo): sign * coeff})
    return total


# ---------------------------------------------------------------------------
# universal polynomials
# ---------------------------------------------------------------------------


# The memo of built universal polynomials, P[n] and Pcomp[(m, n)].  Each
# insert is a dict.setdefault, atomic under the GIL, so when threads race to
# build one polynomial the first insert wins and every caller gets that object.
GLOBAL_CACHE = SimpleNamespace(P={}, Pcomp={})

# The builders' shared intermediate results, each keyed by packing width
# (see the module docstring): D(lam), p_k and e_j[p_i].
_DETS = {}
_PSUMS = {}
_PLETHYSMS = {}


def _avars(n):
    return tuple(f"a{i}" for i in range(1, n + 1))


def _bvars(n):
    return tuple(f"b{i}" for i in range(1, n + 1))


def _partitions(n, largest=None):
    """The partitions of n with parts <= largest, as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else min(n, largest)
    for k in range(largest, 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _conjugate(lam):
    """The conjugate partition lam', whose parts are the column lengths.

    One pass from the last row up: the columns j with lam_{l+1} <= j < lam_l
    (0-based, lam_{len+1} = 0) have length l."""
    columns = []
    for length in range(len(lam), 0, -1):
        columns += [length] * (lam[length - 1] - len(columns))
    return tuple(columns)


# -- packed monomials (the builders only; see the module docstring) ----------


def _width(nvars):
    """Bits per exponent field in a packed key over e_1..e_nvars: every
    builder dict is isobaric of weight <= nvars, so no exponent exceeds
    nvars < 2**nvars.bit_length()."""
    return nvars.bit_length()


def _units(nvars):
    """Packed keys of 1, e_1, ..., e_nvars over e_1..e_nvars."""
    width = _width(nvars)
    return [0] + [1 << width * k for k in range(nvars)]


def _unpacker(nvars):
    """The map from a packed key over e_1..e_nvars to its exponent tuple."""
    width = _width(nvars)
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)
    return lambda key: tuple(key >> s & mask for s in shifts)


def _mul_packed(a, b):
    """Product of two packed term dicts: a key sum is the monomial product."""
    out = {}
    if not a or not b:
        return out
    if len(b) > len(a):
        a, b = b, a
    for eb, cb in b.items():
        for ea, ca in a.items():
            ec = ea + eb
            c = out.get(ec)
            if c is None:
                out[ec] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[ec] = c
                else:
                    del out[ec]
    return out


def _jacobi_trudi(nvars):
    """The map lam -> D(lam) = det(e_{lam_i - i + j}) over e_1..e_nvars, as
    packed term dicts, for partitions of weight <= nvars, memoised in
    `_DETS` at the packing width of nvars.

    By dual Jacobi-Trudi D(lam) is the Schur function of the partition
    conjugate to lam.  Deleting row i and column 1 of the matrix of lam
    leaves the matrix of (lam_1+1, ..., lam_{i-1}+1, lam_{i+1}, ...), so
    the first-column Laplace expansion is

        D(lam) = sum_i (-1)^(i-1) e_{lam_i-i+1} D(lam_1+1, ..., lam_{i-1}+1, lam_{i+1}, ...),

    where a term with lam_i - i + 1 < 0 vanishes and e_0 = 1.  Every minor
    is again a partition of weight at most |lam|, so partitions of
    weight <= nvars need no e_k beyond e_nvars.
    """
    units = _units(nvars)
    memo = _DETS.setdefault(_width(nvars), {})

    def det(lam):
        got = memo.get(lam)
        if got is not None:
            return got
        out = {} if lam else {units[0]: 1}
        raised = ()
        for i, part in enumerate(lam):
            k = part - i
            if k < 0:
                break
            minor = det(raised + lam[i + 1:])
            sign = -1 if i % 2 else 1
            _add_into(out, minor, sign, units[k])
            raised += (part + 1,)
        return memo.setdefault(lam, out)

    return det


def universal_P(n):
    """P_n(a_1..a_n; b_1..b_n), the lambda-ring product polynomial.

    P_n is e_n of the n^2 products x_i*y_j rewritten in a_k = e_k(x) and
    b_k = e_k(y).  The dual Cauchy identity (Macdonald I (4.3'))
    prod (1 + x_i y_j) = sum_lambda s_lambda(x) s_lambda'(y) and dual
    Jacobi-Trudi s_lambda' = D(lambda) = det(e_{lambda_i-i+j}) (I (3.5)) give

        P_n = sum_{lambda |- n} D(lambda')(a) * D(lambda)(b).

    Each D is expanded once per partition along its first column (see
    `_jacobi_trudi`).  lambda, lambda' and all their minors are read from
    and added to `_DETS[B]`, the table of determinants at this packing
    width B = n.bit_length(), which every P_k with k.bit_length() = B
    shares: it holds only partitions of weight below 2^B, and P_n adds
    at most those of weight <= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    got = GLOBAL_CACHE.P.get(n)
    if got is not None:
        return got

    det = _jacobi_trudi(n)
    rows = {}  # packed a-side key -> the b-side term dict it multiplies
    for lam in _partitions(n):
        b_side = det(lam)
        for ea, ca in det(_conjugate(lam)).items():
            _add_into(rows.setdefault(ea, {}), b_side, ca)
    # both sides pack alike over n variables: unpack each distinct key once
    unpack = _unpacker(n)
    expo = {key: unpack(key) for key in set(rows).union(*rows.values())}
    out = {expo[ea] + expo[eb]: c
           for ea, row in rows.items() for eb, c in row.items()}
    poly = MPoly._integral(_avars(n) + _bvars(n), out, f"P_{n}")
    return GLOBAL_CACHE.P.setdefault(n, poly)


def _power_sums(K):
    """p_1..p_K in a_k = e_k (k <= K) as packed term dicts, index 0 unused,
    each read from or added to `_PSUMS` at the packing width of K.

    Newton's identities (Macdonald I (2.11')):
    p_k = sum_{r<k} (-1)^{r-1} e_r p_{k-r} + (-1)^{k-1} k e_k.
    """
    units = _units(K)
    memo = _PSUMS.setdefault(_width(K), {})
    p = [None]
    for k in range(1, K + 1):
        pk = memo.get(k)
        if pk is None:
            pk = {units[k]: k if k % 2 else -k}
            for r in range(1, k):
                _add_into(pk, p[k - r], 1 if r % 2 else -1, units[r])
            pk = memo.setdefault(k, pk)
        p.append(pk)
    return p


def _newton_step(e, p, j):
    """e_j from e_0..e_{j-1} and the power sums p_1..p_j (packed term
    dicts, p[0] unused) by Newton's identity (Macdonald I (2.11'))
    j*e_j = sum_{r=1}^{j} (-1)^(r-1) e_{j-r} p_r, divided exactly by j in
    integers.  A nonzero remainder means e_j is not integral and raises
    IntegralityError with `degree` j and the `prime` p whose power p^e
    exactly dividing j fails to divide it."""
    acc = {}
    for r in range(1, j + 1):
        _add_into(acc, _mul_packed(e[j - r], p[r]), 1 if r % 2 else -1)
    ej = {}
    for expo, c in acc.items():
        q, rem = divmod(c, j)
        if rem:
            from .ground import factorize  # ground imports this module

            err = IntegralityError(
                f"e_{j} from power sums has a non-integer coefficient"
            )
            err.degree = j
            err.prime = next(prime for prime, k in factorize(j).items()
                             if c % prime ** k)
            raise err
        ej[expo] = q
    return ej


def _newton_e(p, top):
    """e_0..e_top of an alphabet from its power sums p_1..p_top, packed
    term dicts with p[0] unused, one `_newton_step` per degree."""
    e = [{0: 1}]
    for j in range(1, top + 1):
        e.append(_newton_step(e, p, j))
    return e


def _plethysm_e(K, p, i, n):
    """e_n[p_i], e_n of the alphabet {x^i}, in a_k = e_k(x) (k <= K, with
    ni <= K), as a packed term dict; p is `_power_sums(K)`.  The power sums
    of {x^i} are p_i, p_2i, ..., and e_1[p_i]..e_n[p_i] are each read from
    or added to `_PLETHYSMS` at the packing width of K, keyed by (i, j)."""
    p = [None] + p[i::i]
    memo = _PLETHYSMS.setdefault(_width(K), {})
    e = [{0: 1}]
    for j in range(1, n + 1):
        ej = memo.get((i, j))
        if ej is None:
            ej = memo.setdefault((i, j), _newton_step(e, p, j))
        e.append(ej)
    return e[n]


def universal_Pcomp(m, n, bound=DEFAULT_PCOMP_BOUND):
    """P_{m,n}(a_1..a_{mn}), the lambda-ring composition polynomial.

    This is e_m of the C(mn, n) products x_S over n-element subsets S of
    x_1..x_K (K = mn), expressed in a_k = e_k(x).  Newton's identities
    (`_newton_e`) run at both plethysm levels:

      * the i-th power sum of the x_S is p_i[e_n] = e_n[p_i] (Macdonald
        I §8), e_n of the alphabet {x^i}, whose power sums are p_{ri}(x)
        (themselves Newton's identities in the a's, `_power_sums`);
      * P_{m,n} is e_m of the alphabet whose power sums are those p_i[e_n].

    Every step stays in packed integer term dicts over Z[a_1..a_K].  The
    power sums and the e_j[p_i] of the first level are shared with every
    build at this packing width (`_PSUMS`, `_PLETHYSMS`); the second
    level is built for this call only.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    K = m * n
    if K > bound:
        raise BoundExceededError(
            f"P_({m},{n}) needs m*n = {K} > configured bound {bound}"
        )
    got = GLOBAL_CACHE.Pcomp.get((m, n))
    if got is not None:
        return got

    p = _power_sums(K)
    psums = [None] + [_plethysm_e(K, p, i, n) for i in range(1, m + 1)]
    unpack = _unpacker(K)
    terms = {unpack(e): c for e, c in _newton_e(psums, m)[m].items()}
    av = _avars(K)
    poly = MPoly._integral(av, terms, f"P_({m},{n})")
    # sanity anchors: lambda^1 lambda^n = lambda^n and lambda^m lambda^1 = lambda^m
    if m == 1 or n == 1:
        expect = MPoly.gen(av, f"a{max(m, n)}")
        if poly != expect:
            raise IntegralityError(f"P_({m},{n}) failed its identity anchor")
    return GLOBAL_CACHE.Pcomp.setdefault((m, n), poly)
