"""Filtered lambda-ring structures presented by Adams-operation data.

A carrier is a truncation R[x]/x^{N+1} of R[[x]] with the x-adic
filtration, under a tag: `ground` is R (N = 0), `dual_numbers` is R[eps]
(N = 1, x = eps), `trunc_poly` is R[x]/x^deg (N = deg - 1) and
`power_series` is R[[x]] mod x^{N+1}.  Elements live in the carrier's
`domain`: R, GroundRing.dual(R) or SeriesRing(R, N).

A structure is a carrier plus, for each prime p in a finite window, the
Adams datum psi^p: a series of SeriesRing(R, N) with zero constant term,
given as a multiplier a_p of a_p*x on dual numbers and not at all on a
ground carrier, where it is x = 0 (psi^n = id: the binomial structure).
Validation, Adams application and the lift run one computation on every
carrier; the tag decides only printing, written forms, report labels,
default samples, and which carriers `lubin` and `universal` accept.
Lambda-operations are recovered through the Newton formula

    psi^n(r) - lambda^1(r) psi^{n-1}(r) + ... + (-1)^n n lambda^n(r) = 0,

whose division by n is the Wilkerson integrality condition: if it fails
in the carrier, the Adams data do not come from a lambda-ring.
"""

from .errors import (InputError, IntegralityError, PrimeWindowError,
                     RingMismatchError, UnsupportedRingError, WilkersonError)
from .ground import DUAL, GroundRing, check_int, factorize, is_prime
from .lambda_witt import _from_power_sums
from .report import Report
from .series import (SeriesRing, check_x_filtration, compose, congruent_mod,
                     xadic_valuation)
from .sympoly import DEFAULT_PCOMP_BOUND, universal_P, universal_Pcomp

DEFAULT_PRIMES = (2, 3, 5, 7)

GROUND, DUAL_NUMBERS, TRUNC_POLY, POWER_SERIES = (
    "ground",
    "dual_numbers",
    "trunc_poly",
    "power_series",
)

#: the JSON key of each tag's Adams data (a ground carrier has none)
_ADAMS_KEYS = {GROUND: None, DUAL_NUMBERS: "adams_dual", TRUNC_POLY: "adams",
              POWER_SERIES: "adams"}


class Carrier:
    """R[x]/x^{N+1} under a tag: `kind`, `ring` (R), `trunc` (N, fixed
    by the kind at 0 on a ground carrier and 1 on dual numbers), the
    element `domain`, and `series` = SeriesRing(R, N) for Adams data."""

    __slots__ = ("kind", "ring", "trunc", "domain", "series")

    def __init__(self, kind, ring, trunc=None):
        if kind == DUAL_NUMBERS and ring.kind == DUAL:
            raise InputError("dual-number carrier base must not be dual")
        self.kind = kind
        self.ring = ring
        self.trunc = {GROUND: 0, DUAL_NUMBERS: 1}.get(kind, trunc)
        self.series = SeriesRing(ring, self.trunc)
        if kind == GROUND:
            self.domain = ring
        elif kind == DUAL_NUMBERS:
            self.domain = GroundRing.dual(ring)
        else:
            self.domain = self.series

    @classmethod
    def ground(cls, ring):
        return cls(GROUND, ring)

    @classmethod
    def dual_numbers(cls, base):
        return cls(DUAL_NUMBERS, base)

    @classmethod
    def trunc_poly(cls, ring, deg):
        check_int("deg", deg, 2)
        return cls(TRUNC_POLY, ring, deg - 1)

    @classmethod
    def power_series(cls, ring, trunc):
        check_int("N", trunc, 1)
        return cls(POWER_SERIES, ring, trunc)

    @property
    def is_series(self):
        return self.kind in (TRUNC_POLY, POWER_SERIES)

    def to_series(self, r):
        """A carrier element as a series, sharing its payload."""
        return self.series._wrap(r.payload if self.trunc else (r.payload,))

    def from_series(self, f):
        return self.domain._wrap(f.payload if self.trunc else f.payload[0])

    def x(self):
        """The generator of the filtration ideal: x, or eps on dual numbers."""
        if not self.trunc:
            raise UnsupportedRingError(f"{self} has no indeterminate x")
        return self.from_series(self.series.x())

    def valuation(self, r):
        """x-adic valuation of a carrier element; None on a ground carrier,
        whose filtration ideal xR[x]/x is zero."""
        return xadic_valuation(self.to_series(r)) if self.trunc else None

    def __eq__(self, other):
        return (
            isinstance(other, Carrier)
            and (self.kind, self.ring, self.trunc)
            == (other.kind, other.ring, other.trunc)
        )

    def __hash__(self):
        return hash((self.kind, self.ring, self.trunc))

    def __str__(self):
        if self.kind == GROUND:
            return str(self.ring)
        if self.kind == DUAL_NUMBERS:
            return f"{self.ring}[eps]"
        if self.kind == TRUNC_POLY:
            return f"{self.ring}[x]/x^{self.trunc + 1}"
        return f"{self.ring}[[x]] mod x^{self.trunc + 1}"

    __repr__ = __str__

    # -- written forms: JSON, and the Adams data a structure is given ------

    def read_datum(self, p, value, check):
        """psi^p from its written form, the multiplier a_p of a_p*x on dual
        numbers and the series elsewhere.  A checked a_p must be
        p-divisible: lambda^p(eps) = +-a_p*eps/p (Wilkerson)."""
        if self.kind != DUAL_NUMBERS:
            return self.series.coerce(value)
        a = self.ring.coerce(value)
        if check and not self.ring.is_p_divisible(a, p):
            raise WilkersonError(
                f"a_{p} = {a} is not {p}-divisible in {self.ring}",
                prime=p, degree=p, element=self.x(),
            )
        return self.series.coerce((0, a))

    def datum_json(self, psi):
        if self.kind == DUAL_NUMBERS:
            return self.ring.format_payload(psi.payload[1])
        return psi.coeff_strings()

    def to_json(self):
        data = {"kind": self.kind, "ring": self.ring.to_json()}
        if self.kind == TRUNC_POLY:
            data["deg"] = self.trunc + 1
        if self.kind == POWER_SERIES:
            data["N"] = self.trunc
            data["x_filtration"] = 1
        return data

    @classmethod
    def from_json(cls, data):
        ring = GroundRing.from_json(data["ring"])
        kind = data["kind"]
        if kind == GROUND:
            return cls.ground(ring)
        if kind == DUAL_NUMBERS:
            return cls.dual_numbers(ring)
        if kind == TRUNC_POLY:
            return cls.trunc_poly(ring, data["deg"])
        if kind == POWER_SERIES:
            check_x_filtration(data)
            return cls.power_series(ring, data["N"])
        raise InputError(f"unknown carrier kind {kind!r}")


def check_window_primes(primes):
    """Every entry of a prime window must be an int (not a bool) and a
    prime, and no prime may repeat; InputError otherwise.  Structures and
    universal-ring assignments both check their windows here."""
    for p in primes:
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise InputError(f"window entry {p!r} is not a prime")
    if len(set(primes)) != len(primes):
        raise InputError(f"window primes {list(primes)} repeat")


class LambdaStructure:
    """Adams data for a filtered lambda-ring structure on a carrier.

    `adams` maps each window prime p to the series psi^p.  It is given in
    the carrier's written form (`Carrier.read_datum`), and not at all on
    a ground carrier.  The window must not be empty or repeat a prime,
    and no datum may lie outside it.  check=True enforces psi^p(0) = 0
    and, on dual carriers, p-divisibility of a_p; check=False builds a
    candidate for `validate` to diagnose.
    """

    __slots__ = ("carrier", "primes", "adams")

    def __init__(self, carrier, primes=DEFAULT_PRIMES, adams=None, check=True):
        check_window_primes(primes)
        primes = tuple(sorted(primes))
        if not primes:
            # validate would have no condition to check: no vacuous pass
            raise InputError("the prime window is empty")
        self.carrier = carrier
        self.primes = primes
        adams = dict(adams or {})
        if not carrier.trunc:
            # on R[x]/x, x = 0 is the only series without constant term
            if adams:
                raise InputError("ground carriers carry no Adams data (psi = id)")
            adams = dict.fromkeys(primes, carrier.series.x())
        missing = [p for p in primes if p not in adams]
        outside = sorted(set(adams) - set(primes))
        if missing:
            raise InputError(f"missing Adams data for window primes {missing}")
        if outside:
            raise InputError(f"Adams data for primes {outside} outside window "
                             f"{list(primes)}")
        self.adams = {p: carrier.read_datum(p, adams[p], check) for p in primes}
        for p in primes if check else ():
            if not self.adams[p].constant_term().is_zero():
                raise InputError(f"psi^{p}(0) != 0")

    def adams_series(self, p):
        if not self.carrier.is_series:
            raise UnsupportedRingError("no Adams series on this carrier")
        if p not in self.adams:
            raise PrimeWindowError(f"prime {p} outside window {self.primes}")
        return self.adams[p]

    def reaches(self, n):
        """True when psi^n is known: every prime factor of n is in the
        window, or N = 0, where psi^n = id for every n."""
        return not self.carrier.trunc or all(p in self.adams for p in factorize(n))

    def lambda_values(self, n, r):
        return lambda_values(self, n, r)

    def __eq__(self, other):
        if not isinstance(other, LambdaStructure):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.primes == other.primes
            and self.adams == other.adams
        )

    def __repr__(self):
        return f"LambdaStructure on {self.carrier}, window {self.primes}"

    def to_json(self):
        carrier = self.carrier
        data = {"carrier": carrier.to_json(), "primes": list(self.primes)}
        key = _ADAMS_KEYS[carrier.kind]
        if key:
            data[key] = {str(p): carrier.datum_json(self.adams[p])
                         for p in self.primes}
        return data

    @classmethod
    def from_json(cls, data, check=True):
        """Parse a structure; a missing field, a value of the wrong type or
        an Adams key that the carrier's kind does not name is an
        InputError naming the structure as malformed."""
        try:
            carrier = Carrier.from_json(data["carrier"])
            primes = tuple(data["primes"])
            key = _ADAMS_KEYS[carrier.kind]
            stray = [k for k in ("adams", "adams_dual") if k in data and k != key]
            if stray:
                takes = f"reads Adams data only from {key!r}" if key else \
                    "takes no Adams data"
                raise InputError(f"malformed structure: a {carrier.kind} carrier "
                                 f"{takes}, but the structure has {stray[0]!r}")
            adams = {int(p): v for p, v in data[key].items()} if key else {}
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed structure: {exc!r}") from exc
        return cls(carrier, primes, adams, check=check)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _ground_frobenius_failure(ring, p):
    """The Adams operations of every carrier fix the ground ring R, so
    they lift Frobenius at p only if r^p == r mod p on R.  That holds on
    every ring between Z and Q (Fermat) and wherever p is a unit; on dual
    numbers it is the condition on the generator eps, whose
    eps^p - eps = -eps is p-divisible only when p is a unit.  Returns the
    failure as text, or "" when R passes."""
    if ring.kind != DUAL:
        return ""
    eps = ring.coerce((0, 1))
    if ring.is_p_divisible(eps ** p - eps, p):
        return ""
    return f"eps^{p} - eps is not {p}-divisible in {ring}"


def validate(S):
    """Check the psi-ring conditions for all window primes.

    For each p: psi^p(0) = 0, and psi^p(x) == x^p (mod p) on x and on the
    ground ring, which psi^p fixes (`_ground_frobenius_failure`); on dual
    numbers x^p = 0, so this says a_p is p-divisible, and on a ground
    carrier x = 0.  Commutation composes the Adams series both ways.  The
    carrier's kind only names the lines.
    """
    carrier, report = S.carrier, Report()
    kind, ring = carrier.kind, carrier.ring
    for p in S.primes:
        psi, failure = S.adams[p], _ground_frobenius_failure(ring, p)
        ok = congruent_mod(psi, carrier.series.coerce([0] * p + [1]), p)
        ok = ok and not failure
        if kind == GROUND:
            report.add(f"frobenius psi^{p}(r) == r^{p} mod {p} (psi = id)",
                       ok, failure)
        elif kind == DUAL_NUMBERS:
            report.add(f"a_{p} is {p}-divisible (frobenius for psi^{p})",
                       ok, f"a_{p} = {psi.linear_coeff()}")
        else:
            report.add(f"psi^{p}(0) = 0", psi.constant_term().is_zero())
            unit = f"{p} is a unit in {ring}" if ring.is_q_algebra() else failure
            report.add(f"frobenius psi^{p} == x^{p} mod {p}", ok, unit)
    commute = _commutation(S)
    if kind == GROUND:
        report.add("commutation (identity maps)", all(commute.values()))
    elif kind == DUAL_NUMBERS:
        report.add("commutation (multipliers commute)", all(commute.values()))
    else:
        for name, ok in commute.items():
            report.add(name, ok)
    return report


def _commutation(S):
    """{"psi^p and psi^q commute": verdict} for each pair p < q of window
    primes, composing the Adams series both ways."""
    commute = {}
    for i, p in enumerate(S.primes):
        for q in S.primes[i + 1 :]:
            pq = compose(S.adams[p], S.adams[q])
            commute[f"psi^{p} and psi^{q} commute"] = (
                pq == compose(S.adams[q], S.adams[p]))
    return commute


# ---------------------------------------------------------------------------
# Adams application and the Newton lift
# ---------------------------------------------------------------------------


def adams_apply(S, n, r):
    """psi^n(r), where n factors into window primes; psi^1 = id.

    r, as a series, is composed into each psi^p of the factorisation of
    n.  At N = 0 every psi^p is x = 0 = id, in the window or not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    carrier = S.carrier
    r = carrier.domain.coerce(r)
    if n == 1:
        return r
    factors = factorize(n)
    if not S.reaches(n):
        outside = [p for p in factors if p not in S.primes]
        raise PrimeWindowError(
            f"psi^{n} needs primes {outside} outside window {list(S.primes)}"
        )
    f = carrier.to_series(r)
    for p, e in sorted(factors.items()):
        if p not in S.adams:
            continue  # N = 0, where psi^p = x = 0 fixes every constant
        for _ in range(e):
            f = compose(f, S.adams[p])
    return carrier.from_series(f)


def lambda_values(S, n, r):
    """[lambda^0(r), ..., lambda^n(r)] via the Newton recursion.

    n lambda^n(r) = sum_{i=1}^{n} (-1)^{i-1} lambda^{n-i}(r) psi^i(r): the
    Adams operations are the power sums of lambda_t(r), so the lift is
    `lambda_witt._from_power_sums` on the payloads of psi^1(r)..psi^n(r),
    each computed only when the recursion reaches it.  The division by n
    must be exact in the carrier (Wilkerson); a WilkersonError names the
    failing prime, degree and element as fields.
    """
    dom = S.carrier.domain
    r = dom.coerce(r)
    psi = (dom._unwrap(adams_apply(S, k, r)) for k in range(1, n + 1))
    try:
        lam = _from_power_sums(dom, psi)
    except IntegralityError as exc:
        k = exc.degree
        raise WilkersonError(
            f"not a lambda-ring under these Adams data: "
            f"lambda^{k}({dom.format(r)}) needs division by {k}: {exc.__cause__}",
            prime=exc.prime, degree=k, element=r,
        ) from exc
    return [dom.one()] + list(map(dom._wrap, lam))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

#: Documented deterministic sample sets for axiom and filtration checks.
def default_samples(carrier):
    if carrier.kind == GROUND:
        ring = carrier.ring
        samples = [ring.from_int(v) for v in (-2, 2, 3)]
        if ring.kind == DUAL:
            # the integers never reach eps, where psi^p = id can fail to lift
            # Frobenius (see `_ground_frobenius_failure`)
            samples += [ring.coerce((0, 1)), ring.coerce((2, 1))]
        return samples
    if carrier.kind == DUAL_NUMBERS:
        dom = carrier.domain
        return [dom.coerce((0, 1)), dom.coerce((2, 3)), dom.coerce((-1, 2))]
    dom = carrier.domain
    x = dom.x()
    return [x, x + x * x, dom.from_int(2) * x]


def window_depth(S):
    """The largest d <= DEFAULT_PCOMP_BOUND with psi^n known for every
    n <= d: 4 on the window (2, 3), 6 on (2, 3, 5) and on a ground carrier."""
    d = 1
    while d < DEFAULT_PCOMP_BOUND and S.reaches(d + 1):
        d += 1
    return d


def axiom_check(S, samples=None, nmax=None, bound=None):
    """Evaluate the lambda-ring axiom list on sampled elements.

    Covers: lambda^0 = 1, lambda^1 = id, lambda^n(1) = 0 for n > 1,
    additivity and products via P_n for n <= nmax (by default
    `window_depth(S)` clamped to 2..3), compositions via P_{m,n} for
    mn <= bound (by default `window_depth(S)`), plus filtration closure
    val(lambda^i(r)) >= val(r) on samples inside the filtration ideal,
    and one commutation line per pair of window primes, as in `validate`:
    two orders of psi^p psi^q can differ first in a degree no sampled
    axiom reaches.
    The default nmax is at least 2, so a window without 2, where no
    check would reach past lambda^1 = id, raises PrimeWindowError.
    """
    if nmax is None:
        nmax = max(2, min(3, window_depth(S)))
    if bound is None:
        bound = window_depth(S)
    report = Report()
    dom = S.carrier.domain
    samples = [dom.coerce(s) for s in (samples or default_samples(S.carrier))]
    one = dom.one()
    zero = dom.zero()

    lam = {}
    need = max(nmax, bound)
    for r in samples:
        lam[id(r)] = (r, S.lambda_values(need, r))

    report.add("lambda^0(r) = 1", all(v[1][0] == one for v in lam.values()))
    report.add("lambda^1(r) = r", all(v[1][1] == v[0] for v in lam.values()))
    lam_one = S.lambda_values(nmax, one)
    report.add(
        f"lambda^n(1) = 0 for 1 < n <= {nmax}",
        all(lam_one[k] == zero for k in range(2, nmax + 1)),
    )

    pairs = [(samples[i], samples[j]) for i in range(len(samples))
             for j in range(i, len(samples))]
    for r, s in pairs:
        lr, ls = lam[id(r)][1], lam[id(s)][1]
        lsum = S.lambda_values(nmax, r + s)
        for n in range(1, nmax + 1):
            acc = None
            for i in range(n + 1):
                term = lr[i] * ls[n - i]
                acc = term if acc is None else acc + term
            report.add(
                f"additivity lambda^{n}(r+s) at ({dom.format(r)}; {dom.format(s)})",
                lsum[n] == acc,
            )
        lprod = S.lambda_values(nmax, r * s)
        for n in range(1, nmax + 1):
            P = universal_P(n)
            values = {}
            for k in range(1, n + 1):
                values[f"a{k}"] = lr[k]
                values[f"b{k}"] = ls[k]
            report.add(
                f"product lambda^{n}(rs) at ({dom.format(r)}; {dom.format(s)})",
                lprod[n] == P.evaluate(values, one),
            )

    for r in samples:
        lr = lam[id(r)][1]
        for m in range(1, bound + 1):
            for n in range(1, bound // m + 1):
                if m == 1 and n == 1:
                    continue
                P = universal_Pcomp(m, n, bound=bound)
                values = {f"a{k}": lr[k] for k in range(1, m * n + 1)}
                lhs = lambda_values(S, m, lr[n])[m]
                report.add(
                    f"composition lambda^{m}(lambda^{n}(r)) at {dom.format(r)}",
                    lhs == P.evaluate(values, one),
                )

    for r in samples:
        val = S.carrier.valuation(r)
        if val is None or val < 1:
            continue
        lr = lam[id(r)][1]
        ok = all(
            S.carrier.valuation(lr[i]) >= val for i in range(1, nmax + 1)
        )
        report.add(f"filtration closure at {dom.format(r)}", ok)

    for name, ok in _commutation(S).items():
        report.add(name, ok)
    return report


# ---------------------------------------------------------------------------
# structure factories and classification
# ---------------------------------------------------------------------------


def make_binomial_structure(ring=None, primes=DEFAULT_PRIMES):
    """psi^n = id on a localization of Z (or Q): the binomial structure."""
    ring = ring or GroundRing.integers()
    if not ring.between_Z_and_Q():
        raise UnsupportedRingError(
            "the identity-Adams structure needs a ring between Z and Q"
        )
    return LambdaStructure(Carrier.ground(ring), primes)


def make_dual_structure(base, multipliers, primes=None):
    """The structure psi^p(a + b*eps) = a + b*a_p*eps on base[eps].

    Every a_p must be p-divisible in the base; violations are rejected
    here, at construction.
    """
    primes = tuple(sorted(multipliers)) if primes is None else tuple(primes)
    carrier = Carrier.dual_numbers(base)
    return LambdaStructure(carrier, primes, dict(multipliers), check=True)


def dual_iso_test(S1, S2):
    """Isomorphism decision over a common carrier R[x]/x^2 (N = 1): dual
    numbers, or truncated polynomials of degree 2.

    Two such structures are isomorphic iff their multiplier sequences,
    the linear coefficients a_p of psi^p = a_p*x, agree: any filtered
    lambda-iso sends x to u*x and forces a_p = b_p; conversely equal data
    give the identity isomorphism.
    """
    if S1.carrier.trunc != 1 or S1.carrier != S2.carrier:
        raise RingMismatchError("dual_iso_test needs one common carrier with N = 1")
    if S1.primes != S2.primes:
        raise RingMismatchError("prime windows differ")
    return all(S1.adams[p].linear_coeff() == S2.adams[p].linear_coeff()
               for p in S1.primes)


def make_family_structure(carrier, multipliers, primes=None):
    """Linear Adams data psi^p(x) = a_p * x over a Q-algebra carrier.

    Each a_p must be a unit scalar; the Frobenius congruence is trivial
    (p is invertible) and linear maps commute, so validation passes.
    """
    if not carrier.is_series:
        raise UnsupportedRingError("family structures live on series carriers")
    if not carrier.ring.is_q_algebra():
        raise UnsupportedRingError(
            f"{carrier.ring} is not a Q-algebra; the family needs one"
        )
    primes = tuple(sorted(multipliers)) if primes is None else tuple(primes)
    dom = carrier.domain
    adams = {}
    for p, ap in multipliers.items():
        ap = carrier.ring.coerce(ap)
        if carrier.ring.try_invert(ap) is None:
            raise ValueError(f"a_{p} = {ap} is not a unit in {carrier.ring}")
        adams[p] = dom.x() * ap
    return LambdaStructure(carrier, primes, adams)


def make_series_structure(carrier, series_by_prime, primes=None):
    """Structure from explicit psi^p(x) series (coefficient lists allowed)."""
    primes = (
        tuple(sorted(series_by_prime)) if primes is None else tuple(primes)
    )
    return LambdaStructure(carrier, primes, dict(series_by_prime))


def standard_structure(kind, ring=None, trunc=8, primes=DEFAULT_PRIMES):
    """Well-known structures on R[[x]]:

    kind="mult":  psi^p(x) = (1+x)^p - 1   (multiplicative formal group)
    kind="power": psi^p(x) = x^p           (pure Frobenius powers)
    """
    ring = ring or GroundRing.integers()
    carrier = Carrier.power_series(ring, trunc)
    dom = carrier.domain
    adams = {}
    for p in primes:
        if kind == "mult":
            one = dom.one()
            adams[p] = (dom.x() + one) ** p - one
        elif kind == "power":
            adams[p] = dom.coerce([0] * p + [1])
        else:
            raise ValueError(f"unknown standard structure {kind!r}")
    return LambdaStructure(carrier, primes, adams)
