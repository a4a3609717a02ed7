"""Commuting power series and the Hasse principle for Adams operations.

Given f and g with the same linear coefficient alpha (alpha neither 0 nor
a root of unity) and any target linear coefficient c, there is exactly
one h with h(0) = 0, h'(0) = c and h(g(x)) = f(h(x)); the degree-j
coefficient of h o g - f o h is (alpha^j - alpha) h_j plus terms in lower
coefficients, so h is found degree by degree, dividing by
(alpha^j - alpha).

The consequence for structures on R[[x]] over a domain R: a filtered ring
endomorphism commuting with one Adams operation psi^p commutes with all
of them, provided every linear coefficient satisfies the alpha
hypothesis.  hasse_check verifies commutation at a chosen prime and then
independently at every other window prime.
"""

from fractions import Fraction

from .errors import LubinHypothesisError, UnsupportedRingError
from .ground import QPOLY, ZLOC
from .report import Report
from .series import (SeriesRing, _grow_powers, _scalar_form, compose,
                     revert)
from .structures import LambdaStructure


def _scalar_of(elem):
    """The scalar behind an element of Z[S^-1] or a constant of Q[y..], in
    the one form payloads and MPoly coefficients hold: an int when it is
    integral, a Fraction otherwise.  None when the element is not scalar."""
    ring = elem.ring
    if ring.kind == ZLOC:
        return elem.payload
    if ring.kind == QPOLY:
        p = elem.payload
        if p.is_zero():
            return 0
        if list(p.terms) == [(0,) * len(ring.variables)]:
            return p.constant()
    return None


def check_alpha(alpha):
    """alpha must be neither 0 nor a root of unity.

    Over Q the roots of unity are exactly +-1, so the check is exact.
    Non-scalar alpha in a polynomial algebra would push the solver into
    rational-function coefficients, which this library does not
    represent.  Returns alpha as a scalar.
    """
    a = _scalar_of(alpha)
    if a is None:
        raise UnsupportedRingError(
            "the commuting-series solver needs a scalar linear coefficient"
        )
    if a == 0:
        raise LubinHypothesisError("linear coefficient is 0")
    if a == 1 or a == -1:
        raise LubinHypothesisError(
            f"linear coefficient {a} is a root of unity"
        )
    return a


class CommutingProblem:
    """Data for the unique-conjugacy problem h o g = f o h."""

    __slots__ = ("f", "g", "alpha", "c")

    def __init__(self, f, g, c):
        f.domain.coerce(g)  # RingMismatchError unless g shares f's domain
        if not f.constant_term().is_zero() or not g.constant_term().is_zero():
            raise LubinHypothesisError("f and g must vanish at 0")
        if f.linear_coeff() != g.linear_coeff():
            raise LubinHypothesisError(
                "f and g must share their linear coefficient"
            )
        self.f = f
        self.g = g
        self.alpha = check_alpha(f.linear_coeff())
        self.c = c


def lubin_solve(problem):
    """The unique h with h(0)=0, h'(0)=c and h(g(x)) = f(h(x)) mod x^{N+1}.

    Both sides are read off power tables, without forming a composition:
    (h o g)_j = sum_{k <= j} h_k (g^k)_j with (g^j)_j = alpha^j, and
    (f o h)_j = alpha h_j + sum_{k >= 2} f_k (h^k)_j, so
    (alpha - alpha^j) h_j = sum_{1 <= k < j} h_k (g^k)_j
                            - sum_{k >= 2} f_k (h^k)_j.
    The table of g is built once and that of h grows with h
    (`series._grow_powers`): O(N^3) ring operations.  Works over the
    fraction field of the coefficient ring: the division by
    (alpha - alpha^j) is a division by a nonzero rational scalar.
    """
    alpha, N = problem.alpha, problem.f.trunc
    ring = problem.f.ring.fraction_field()
    # a payload of Z[S^-1] is already one of Q, and Q[y..] is its own field
    total, mul = _scalar_form(ring)
    g_rows = _grow_powers(list(problem.g.payload), total, mul)
    neg_f = [ring._pneg(a) for a in problem.f.payload]
    h = [ring._pzero(), ring.coerce(problem.c).payload] + [None] * (N - 1)

    def solve(j, rows):
        terms = map(mul, h[1:j] + neg_f[2 : j + 1],
                    [row[j] for row in g_rows[1:j] + rows[2 : j + 1]])
        return ring._pscale(total(terms), 1 / Fraction(alpha - alpha ** j))

    _grow_powers(h, total, mul, solve)
    return SeriesRing(ring, N)._wrap(tuple(h))


def conjugate_structure(S, phi):
    """The structure with Adams data phi o psi^p o phi^{-1}.

    phi must be a series with phi(0) = 0 and unit linear coefficient in
    the carrier's ground ring, so that its reversion stays integral.
    """
    if not S.carrier.is_series:
        raise UnsupportedRingError("conjugation needs a series carrier")
    phi_inv = revert(phi)
    adams = {
        p: compose(compose(phi, S.adams_series(p)), phi_inv) for p in S.primes
    }
    return LambdaStructure(S.carrier, S.primes, adams)


def random_unit_series(ring, trunc, seed=0):
    """A pseudorandom series x + c_2 x^2 + ... with integers -2 <= c_k <= 2."""
    import random

    rng = random.Random(seed)
    coeffs = [0, 1] + [rng.randint(-2, 2) for _ in range(trunc - 1)]
    return SeriesRing(ring, trunc).coerce(coeffs)


def _hypothesis_failures(S1, S2, phi, p0):
    """The hypotheses of `hasse_check` that fail, as messages."""
    if S1.carrier != S2.carrier or S1.primes != S2.primes:
        return ["carriers or prime windows differ"]
    if p0 not in S1.primes:
        return [f"p0={p0} outside window"]
    if not phi.constant_term().is_zero():
        return ["phi(0) != 0"]
    out = []
    for p in S1.primes:
        a1 = S1.adams_series(p).linear_coeff()
        a2 = S2.adams_series(p).linear_coeff()
        if a1 != a2:
            out.append(f"linear coefficients differ at p={p}")
            continue
        try:
            check_alpha(a1)
        except (LubinHypothesisError, UnsupportedRingError) as exc:
            out.append(f"p={p}: {exc}")
    return out


def hasse_check(S1, S2, phi, p0):
    """Check phi o psi^{p0}_1 = psi^{p0}_2 o phi, then every other prime.

    Requires matching linear coefficients alpha_p for the two structures
    at every window prime, each neither 0 nor a root of unity; violations
    are reported, not guessed around.  The Report has one check per window
    prime, or none when a hypothesis fails; the violated hypotheses and the
    verdict on p0 are notes.  It is passed only when the hypotheses hold
    and phi commutes at every prime.
    """
    report = Report()
    failures = _hypothesis_failures(S1, S2, phi, p0)
    for msg in failures:
        report.note(f"hypothesis violated: {msg}")
    if failures:
        return report
    for p in S1.primes:
        lhs = compose(phi, S1.adams_series(p))
        ok = lhs == compose(S2.adams_series(p), phi)
        if p == p0:
            ok_at_p0 = ok
            report.add(f"phi commutes with psi^{p} (checked prime)", ok)
        else:
            report.add(f"phi commutes with psi^{p}", ok)
    if not ok_at_p0:
        report.note(f"not a lambda-map: fails at p0={p0}")
    elif report.passed:
        report.note(f"commutation at p0={p0} propagated to all window primes")
    return report
