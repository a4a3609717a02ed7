"""Filtered lambda-ring structures presented by Adams-operation data.

A carrier is a ground ring R, the dual numbers R[eps], or a truncation of
R[[x]] with the x-adic filtration: R[x]/x^deg or R[[x]] mod x^{N+1}.
Both series kinds hold their top degree N (= deg - 1) as `trunc`, and
their elements are TruncSeries of the domain SeriesRing(R, N).

A structure is a carrier plus, for each prime p in a finite window, the
Adams datum psi^p: a power series psi^p(x) with zero constant term on
series carriers, a multiplier a_p on dual-number carriers, and nothing at
all on plain ground carriers (where every ring endomorphism fixing the
ring is the identity, so psi^n = id and the lift is the binomial
structure).  Lambda-operations are recovered through the Newton formula

    psi^n(r) - lambda^1(r) psi^{n-1}(r) + ... + (-1)^n n lambda^n(r) = 0,

whose division by n is the Wilkerson integrality condition: if it fails
in the carrier, the Adams data do not come from a lambda-ring.
"""

import math

from .errors import (InputError, IntegralityError, PrimeWindowError,
                     RingMismatchError, UnsupportedRingError, WilkersonError)
from .ground import (DUAL, GroundRing, RingElement, check_int, factorize,
                     is_prime)
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


class Carrier:
    """One of the filtered rings a structure can live on."""

    __slots__ = ("kind", "ring", "trunc")

    def __init__(self, kind, ring, trunc=None):
        self.kind = kind
        self.ring = ring
        self.trunc = trunc
        if kind == DUAL_NUMBERS and ring.kind == "dual_numbers":
            raise ValueError("dual-number carrier base must not be dual")

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

    @property
    def domain(self):
        """The coefficient domain carrier elements live in."""
        if self.kind == GROUND:
            return self.ring
        if self.kind == DUAL_NUMBERS:
            return GroundRing.dual(self.ring)
        return SeriesRing(self.ring, self.trunc)

    def x(self):
        if not self.is_series:
            raise UnsupportedRingError(f"{self} has no indeterminate x")
        return self.domain.x()

    def eps(self):
        if self.kind != DUAL_NUMBERS:
            raise UnsupportedRingError(f"{self} has no eps")
        return self.domain.coerce((0, 1))

    def valuation(self, r):
        """Filtration valuation of a carrier element (None if trivial)."""
        if self.is_series:
            return xadic_valuation(r)
        if self.kind == DUAL_NUMBERS:
            a, b = r.payload
            if not self.ring._pis_zero(a):
                return 0
            return math.inf if self.ring._pis_zero(b) else 1
        return None

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
        raise ValueError(f"unknown carrier kind {kind!r}")


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

    `adams` maps each window prime p to its datum: a TruncSeries psi^p(x)
    on series carriers, an element a_p of the base on dual carriers, and
    is empty on ground carriers.  The window must not be empty, no prime
    may repeat in it, and no datum may be given for a prime outside it.
    Constructing with check=True enforces
    psi^p(0) = 0 and, on dual carriers, p-divisibility of a_p; pass
    check=False to build a candidate for `validate` to diagnose.
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
        missing = [p for p in primes if p not in adams]
        outside = sorted(set(adams) - set(primes))
        if carrier.kind == GROUND:
            if adams:
                raise ValueError("ground carriers carry no Adams data (psi = id)")
            self.adams = {}
        elif missing:
            raise ValueError(f"missing Adams data for window primes {missing}")
        elif outside:
            raise InputError(f"Adams data for primes {outside} outside window "
                             f"{list(primes)}")
        elif carrier.kind == DUAL_NUMBERS:
            self.adams = {p: carrier.ring.coerce(adams[p]) for p in primes}
            if check:
                for p in primes:
                    if not carrier.ring.is_p_divisible(self.adams[p], p):
                        raise WilkersonError(
                            f"a_{p} = {self.adams[p]} is not {p}-divisible in "
                            f"{carrier.ring}"
                        )
        else:
            dom = carrier.domain
            self.adams = {p: dom.coerce(adams[p]) for p in primes}
            if check:
                for p in primes:
                    if not self.adams[p].constant_term().is_zero():
                        raise ValueError(f"psi^{p}(0) != 0")

    def adams_series(self, p):
        if not self.carrier.is_series:
            raise UnsupportedRingError("no Adams series on this carrier")
        if p not in self.adams:
            raise PrimeWindowError(f"prime {p} outside window {self.primes}")
        return self.adams[p]

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
        data = {"carrier": self.carrier.to_json(), "primes": list(self.primes)}
        if self.carrier.kind == DUAL_NUMBERS:
            data["adams_dual"] = {
                str(p): self.carrier.ring.format_payload(self.adams[p].payload)
                for p in self.primes
            }
        elif self.carrier.kind != GROUND:
            data["adams"] = {
                str(p): self.adams[p].coeff_strings() for p in self.primes
            }
        return data

    @classmethod
    def from_json(cls, data, check=True):
        """Parse a structure; a missing field or a value of the wrong type
        is an InputError naming the structure as malformed."""
        try:
            carrier = Carrier.from_json(data["carrier"])
            primes = tuple(data["primes"])
            adams = {}
            if carrier.kind != GROUND:
                key = "adams_dual" if "adams_dual" in data else "adams"
                adams = {int(p): v for p, v in data[key].items()}
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed structure: {exc!r}") from exc
        return cls(carrier, primes, adams, check=check)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _ground_frobenius_failure(ring, p):
    """The Adams operations of a ground or series carrier fix the ground
    ring R, so they lift Frobenius at p only if r^p == r mod p on R.
    That holds on every ring between Z and Q (Fermat) and wherever p is a
    unit; on dual numbers it is the condition on the generator eps, whose
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

    Frobenius congruence psi^p(x) == x^p (mod p) passes automatically
    when p is invertible in the ground ring; otherwise it is checked on x
    and on the ground ring's generators, which psi^p fixes.  Commutation
    is checked by composing the Adams series both ways modulo the
    truncation.
    """
    report = Report()
    carrier = S.carrier
    if carrier.kind == GROUND:
        samples = [carrier.ring.from_int(v) for v in (-3, -1, 0, 1, 2, 3)]
        for p in S.primes:
            ok = all(
                carrier.ring.is_p_divisible(r ** p - r, p) for r in samples
            )
            failure = _ground_frobenius_failure(carrier.ring, p)
            report.add(f"frobenius psi^{p}(r) == r^{p} mod {p} (psi = id)",
                       ok and not failure, failure)
        report.add("commutation (identity maps)", True)
        return report

    if carrier.kind == DUAL_NUMBERS:
        for p in S.primes:
            ap = S.adams[p]
            report.add(
                f"a_{p} is {p}-divisible (frobenius for psi^{p})",
                carrier.ring.is_p_divisible(ap, p),
                f"a_{p} = {ap}",
            )
        report.add("commutation (multipliers commute)", True)
        return report

    for p in S.primes:
        psi = S.adams_series(p)
        report.add(f"psi^{p}(0) = 0", psi.constant_term().is_zero())
        if carrier.ring.is_q_algebra():
            report.add(
                f"frobenius psi^{p} == x^{p} mod {p}",
                True,
                f"{p} is a unit in {carrier.ring}",
            )
        else:
            xp = carrier.domain.coerce([0] * p + [1])
            failure = _ground_frobenius_failure(carrier.ring, p)
            report.add(
                f"frobenius psi^{p} == x^{p} mod {p}",
                congruent_mod(psi, xp, p) and not failure,
                failure,
            )
    for i, p in enumerate(S.primes):
        for q in S.primes[i + 1 :]:
            pq = compose(S.adams_series(p), S.adams_series(q))
            qp = compose(S.adams_series(q), S.adams_series(p))
            report.add(f"psi^{p} and psi^{q} commute", pq == qp)
    return report


# ---------------------------------------------------------------------------
# Adams application and the Newton lift
# ---------------------------------------------------------------------------


def adams_apply(S, n, r):
    """psi^n(r), where n factors into window primes; psi^1 = id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = S.carrier.domain.coerce(r)
    if n == 1:
        return r
    factors = factorize(n)
    outside = [p for p in factors if p not in S.primes and S.carrier.kind != GROUND]
    if outside:
        raise PrimeWindowError(
            f"psi^{n} needs primes {outside} outside window {list(S.primes)}"
        )
    if S.carrier.kind == GROUND:
        return r
    if S.carrier.kind == DUAL_NUMBERS:
        base = S.carrier.ring
        mult = base.one()
        for p, e in factors.items():
            mult = mult * S.adams[p] ** e
        a, b = r.payload
        return S.carrier.domain.element(
            (a, (RingElement(base, b) * mult).payload)
        )
    out = r
    for p, e in sorted(factors.items()):
        for _ in range(e):
            out = compose(out, S.adams_series(p))
    return out


def lambda_values(S, n, r):
    """[lambda^0(r), ..., lambda^n(r)] via the Newton recursion.

    n lambda^n(r) = sum_{i=1}^{n} (-1)^{i-1} lambda^{n-i}(r) psi^i(r): the
    Adams operations are the power sums of lambda_t(r), so the lift is
    `lambda_witt._from_power_sums` on the payloads of psi^1(r)..psi^n(r),
    each computed only when the recursion reaches it.  The division by n
    must be exact in the carrier (Wilkerson).
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
            f"lambda^{k}({dom.format(r)}) needs division by {k}: {exc.__cause__}"
        ) from exc
    return [dom.one()] + list(map(dom._wrap, lam))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

#: Documented deterministic sample sets for axiom and filtration checks.
def default_samples(carrier):
    if carrier.kind == GROUND:
        return [carrier.ring.from_int(v) for v in (-2, 2, 3)]
    if carrier.kind == DUAL_NUMBERS:
        dom = carrier.domain
        return [dom.coerce((0, 1)), dom.coerce((2, 3)), dom.coerce((-1, 2))]
    dom = carrier.domain
    x = dom.x()
    return [x, x + x * x, dom.from_int(2) * x]


def axiom_check(S, samples=None, nmax=3, bound=DEFAULT_PCOMP_BOUND):
    """Evaluate the lambda-ring axiom list on sampled elements.

    Covers: lambda^0 = 1, lambda^1 = id, lambda^n(1) = 0 for n > 1,
    additivity via the Cauchy convolution, products via P_n, compositions
    via P_{m,n} for mn <= bound, plus filtration closure
    val(lambda^i(r)) >= val(r) on samples inside the filtration ideal.
    """
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
    """Isomorphism decision over a common dual-number carrier.

    Two dual structures are isomorphic iff their multiplier sequences
    agree: any filtered lambda-iso sends eps to u*eps and forces
    a_p = b_p; conversely equal data give the identity isomorphism.
    """
    if S1.carrier.kind != DUAL_NUMBERS or S1.carrier != S2.carrier:
        raise RingMismatchError("dual_iso_test needs one common dual carrier")
    if S1.primes != S2.primes:
        raise RingMismatchError("prime windows differ")
    return all(S1.adams[p] == S2.adams[p] for p in S1.primes)


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
