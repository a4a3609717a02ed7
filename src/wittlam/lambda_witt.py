"""The functors Lambda and W at finite truncation.

LambdaElem represents 1 + a_1 t + ... + a_N t^N (the leading 1 implicit);
WittVec represents (a_1, ..., a_N).  Both take their coefficients from a
"domain": a GroundRing or a SeriesRing.  Every supported domain is
torsion-free, so the ghost map (power sums) is injective on both functors
and turns their ring operations into coordinatewise ones (Hazewinkel,
"Witt vectors. Part 1", arXiv:0804.3888, sections 9-16):

  * Witt arithmetic adds or multiplies ghost components and solves the
    ghost equations degree by degree;
  * Lambda(A) works in the power sums p_n of f = prod (1 + x_k t): the
    product multiplies them, p_n(f * g) = p_n(f) p_n(g), and lambda^i has
    ghost_j(lambda^i f) = e_i(x_k^j), where the x_k^j have power sums
    p_j, p_2j, ...  Both directions between coefficients and power sums
    are Newton's identities (Macdonald, Symmetric Functions, I §2 (2.11')).

Every division by an integer goes through the domain's exact `div_int`;
a failure raises IntegralityError.  The universal polynomials P_n and
P_{m,n} are not used here: they are what the tests and `axiom_check`
check these routes against.
"""

from .errors import (BoundExceededError, ExactDivisionError, IntegralityError,
                     RingMismatchError)
from .sympoly import DEFAULT_PCOMP_BOUND


class _Vector:
    __slots__ = ("domain", "a", "trunc")

    def __init__(self, domain, coeffs, trunc=None):
        coeffs = [domain.coerce(c) for c in coeffs]
        if trunc is None:
            trunc = len(coeffs)
        if len(coeffs) < trunc:
            coeffs += [domain.zero()] * (trunc - len(coeffs))
        elif len(coeffs) > trunc:
            coeffs = coeffs[:trunc]
        self.domain = domain
        self.a = tuple(coeffs)
        self.trunc = trunc

    def _check(self, other):
        if self.domain != other.domain or self.trunc != other.trunc:
            raise RingMismatchError("mismatched domains or truncations")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.trunc == other.trunc
            and self.a == other.a
        )

    def __hash__(self):
        return hash((type(self).__name__, self.domain, self.a))

    def coeff_strings(self):
        out = []
        for c in self.a:
            out.append(self.domain.format(c) if hasattr(self.domain, "format")
                       else self.domain.format_payload(c.payload))
        return out

    def __str__(self):
        return ",".join(self.coeff_strings())


class LambdaElem(_Vector):
    """An element 1 + sum a_i t^i of Lambda(A), truncated at t^N."""

    def __repr__(self):
        return f"LambdaElem({self}; N={self.trunc})"

    def to_json(self):
        return {"lambda": self.coeff_strings()}


class WittVec(_Vector):
    """A truncated big Witt vector (a_1, ..., a_N)."""

    def __repr__(self):
        return f"WittVec({self}; N={self.trunc})"

    def to_json(self):
        return {"witt": self.coeff_strings()}


def lambda_zero(domain, trunc):
    """The zero of Lambda(A): the constant series 1."""
    return LambdaElem(domain, [], trunc)


def lambda_one(domain, trunc):
    """The multiplicative identity of Lambda(A): the class of 1 + t."""
    return LambdaElem(domain, [1], trunc)


def lambda_add(f, g):
    """Sum in Lambda(A): the series product, c_i = sum_{r+s=i} a_r b_s."""
    f._check(g)
    one = f.domain.one()
    a = (one,) + f.a
    b = (one,) + g.a
    out = []
    for i in range(1, f.trunc + 1):
        acc = None
        for r in range(0, i + 1):
            term = a[r] * b[i - r]
            acc = term if acc is None else acc + term
        out.append(acc)
    return LambdaElem(f.domain, out, f.trunc)


def lambda_neg(f):
    """Additive inverse in Lambda(A): the reciprocal series."""
    out = []
    for i in range(1, f.trunc + 1):
        acc = -f.a[i - 1]
        for r in range(1, i):
            acc = acc - out[r - 1] * f.a[i - r - 1]
        out.append(acc)
    return LambdaElem(f.domain, out, f.trunc)


def _power_sums(a, M):
    """p_1..p_M of f = 1 + sum a_i t^i, i.e. of the roots x_k of
    f = prod (1 + x_k t), by Newton's identities
    p_n = sum_{i<n} (-1)^{i-1} a_i p_{n-i} + (-1)^{n-1} n a_n."""
    p = []
    for n in range(1, M + 1):
        acc = a[n - 1] * (n if n % 2 else -n)
        for i in range(1, n):
            term = a[i - 1] * p[n - i - 1]
            acc = acc + term if i % 2 else acc - term
        p.append(acc)
    return p


def _from_power_sums(domain, q):
    """The coefficients c_1..c_M whose power sums are q_1..q_M, by
    n c_n = sum_{i<=n} (-1)^{i-1} c_{n-i} q_i with c_0 = 1.

    Each division by n is exact when q are the power sums of an element of
    Lambda(A); a failed division raises IntegralityError.
    """
    c = []
    for n in range(1, len(q) + 1):
        acc = q[n - 1] if n % 2 else -q[n - 1]
        for i in range(1, n):
            term = c[n - i - 1] * q[i - 1]
            acc = acc + term if i % 2 else acc - term
        try:
            c.append(domain.div_int(acc, n))
        except ExactDivisionError as exc:
            raise IntegralityError(
                f"power-sum inversion failed at degree {n}: {exc}"
            ) from exc
    return c


def lambda_mul(f, g):
    """Product in Lambda(A) in ghost coordinates: the power sums multiply,
    p_n(f * g) = p_n(f) p_n(g), and Newton's identities turn the product's
    power sums back into coefficients.  The result is c_i = P_i(a; b)."""
    f._check(g)
    N = f.trunc
    q = [x * y for x, y in zip(_power_sums(f.a, N), _power_sums(g.a, N))]
    return LambdaElem(f.domain, _from_power_sums(f.domain, q), N)


def lambda_op(i, f, out_trunc=None, bound=DEFAULT_PCOMP_BOUND):
    """lambda^i on Lambda(A): coefficient j is P_{j,i}(a_1..a_{ij}).

    Computed in ghost coordinates: for f = prod (1 + x_k t),
    ghost_j(lambda^i f) = e_i(x_k^j), the i-th coefficient of the series
    whose power sums are p_j, p_2j, ..., p_ij (that series is psi^j f),
    and Newton's identities turn the ghosts back into coefficients.  Every
    intermediate value lies in A, so every division is exact and checked.

    The output truncation is capped: coefficient j needs a_1..a_{ij}
    (so ij <= N), and `bound` is a size budget on ij (ij <= bound).  No
    universal polynomial is built, so the budget only limits the size of
    the answer.  Coefficients beyond the cap are not computed; the
    returned element's truncation says how far the result goes.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if i == 1:
        cap = f.trunc if out_trunc is None else min(out_trunc, f.trunc)
        return LambdaElem(f.domain, list(f.a[:cap]), cap)
    cap = min(f.trunc // i, max(bound, 0) // i)
    if out_trunc is not None:
        if out_trunc > cap:
            raise BoundExceededError(
                f"lambda^{i} computable only to degree {cap} "
                f"(requested {out_trunc}; N={f.trunc}, bound={bound})"
            )
        cap = out_trunc
    dom = f.domain
    p = _power_sums(f.a, cap * i)
    ghosts = [_from_power_sums(dom, p[j - 1:j * i:j])[i - 1]
              for j in range(1, cap + 1)]
    return LambdaElem(dom, _from_power_sums(dom, ghosts), cap)


# ---------------------------------------------------------------------------
# Witt vectors
# ---------------------------------------------------------------------------


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def ghost(n, w):
    """The n-th ghost component, sum_{d | n} s(d, n/d) * d * a_d^{n/d}
    with sign s(d, k) = (-1)^{k(d+1)} (so +1 whenever d is odd).

    The signs make w_n(a) the n-th power sum of the series
    prod_d (1 + a_d t^d), i.e. the coefficient extraction
    (-1)^{n-1} [t E'/E]_n.  With this convention the ghost maps are ring
    homomorphisms for exactly the Witt ring structure that turns the
    exponential map a |-> prod (1 + a_i t^i) into a ring isomorphism
    onto Lambda(A); the all-plus variant seen in parts of the literature
    belongs to the reciprocal convention prod (1 - a_i t^i)^{-1} instead.
    """
    if not 1 <= n <= w.trunc:
        raise ValueError(f"ghost index {n} out of range 1..{w.trunc}")
    acc = None
    for d in _divisors(n):
        term = w.a[d - 1] ** (n // d) * d
        if d % 2 == 0 and (n // d) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def witt_zero(domain, trunc):
    return WittVec(domain, [], trunc)


def _ghost_solve(domain, targets, trunc):
    """Solve w_n(c) = targets[n] for c, degree by degree.

    w_n(c) = (+-n)*c_n + (terms in c_d, d | n, d < n), so each c_n is
    obtained by an exact division by n; failure signals an engine bug
    because the universal Witt polynomials are integral.
    """
    c = []
    for n in range(1, trunc + 1):
        acc = targets[n - 1]
        for d in _divisors(n)[:-1]:
            term = c[d - 1] ** (n // d) * d
            if d % 2 == 0 and (n // d) % 2 == 1:
                term = -term
            acc = acc - term
        try:
            cn = domain.div_int(acc, n)
        except ExactDivisionError as exc:
            raise IntegralityError(
                f"ghost solve failed at degree {n}: {exc}"
            ) from exc
        if n % 2 == 0:  # leading ghost term is -n*c_n for even n
            cn = -cn
        c.append(cn)
    return WittVec(domain, c, trunc)


def witt_add(a, b):
    a._check(b)
    targets = [ghost(n, a) + ghost(n, b) for n in range(1, a.trunc + 1)]
    return _ghost_solve(a.domain, targets, a.trunc)


def witt_mul(a, b):
    a._check(b)
    targets = [ghost(n, a) * ghost(n, b) for n in range(1, a.trunc + 1)]
    return _ghost_solve(a.domain, targets, a.trunc)


# ---------------------------------------------------------------------------
# exponential isomorphism
# ---------------------------------------------------------------------------


def exp_iso(w):
    """E: W(A) -> Lambda(A), (a_i) |-> prod (1 + a_i t^i) mod t^{N+1}."""
    N = w.trunc
    zero = w.domain.zero()
    one = w.domain.one()
    coeffs = [one] + [zero] * N
    for i in range(1, N + 1):
        ai = w.a[i - 1]
        for j in range(N - i, -1, -1):
            term = coeffs[j] * ai
            coeffs[j + i] = coeffs[j + i] + term
    return LambdaElem(w.domain, coeffs[1:], N)


def _distinct_partitions(n):
    """Partitions of n into distinct parts, all parts < n."""
    out = []

    def rec(rest, maxpart, chosen):
        if rest == 0:
            out.append(tuple(chosen))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part - 1, chosen + [part])

    rec(n, n - 1, [])
    return out


def exp_iso_inv(f):
    """E^{-1}: recover r_n = c_n - sum over distinct partitions of n
    (with all parts < n) of the products of earlier r's."""
    N = f.trunc
    r = []
    for n in range(1, N + 1):
        acc = f.a[n - 1]
        for parts in _distinct_partitions(n):
            prod = None
            for i in parts:
                prod = r[i - 1] if prod is None else prod * r[i - 1]
            acc = acc - prod
        r.append(acc)
    return WittVec(f.domain, r, N)


# ---------------------------------------------------------------------------
# filtration membership
# ---------------------------------------------------------------------------


def filtration_member(v, ideal):
    """True iff every stored coefficient lies in the ideal.

    For a LambdaElem this is membership in Lambda(I); for a WittVec,
    membership in W(I).
    """
    return all(v.domain.in_ideal(c, ideal) for c in v.a)


# ---------------------------------------------------------------------------
# coalgebra law checking
# ---------------------------------------------------------------------------


class CoalgebraReport:
    """Outcome of the counit/coassociativity checks on samples."""

    def __init__(self):
        self.entries = []

    def add(self, sample, law, passed, detail=""):
        self.entries.append((sample, law, bool(passed), detail))

    @property
    def passed(self):
        return all(ok for _, _, ok, _ in self.entries)

    def lines(self):
        out = []
        for sample, law, ok, detail in self.entries:
            mark = "pass" if ok else "FAIL"
            tail = f" [{detail}]" if detail else ""
            out.append(f"{mark}  {law}  at {sample}{tail}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def coalgebra_check(S, samples, M=3):
    """Verify the counit and coassociativity laws through degree M.

    S must provide lambda-operations on its carrier (a LambdaStructure).
    For each sample a, the structure map L(a) = 1 + sum lambda^i(a) t^i is
    formed to inner degree M*M, and the identity
    Lambda(lambda_t)(L(a)) = Lambda_t(L(a)) is compared coefficientwise: outer
    coefficient i, inner coefficient j means
    lambda^j(lambda^i(a)) = P_{j,i}(lambda^1(a), ..., lambda^{ij}(a)),
    where the right side is lambda^i on Lambda applied via lambda_op.
    """
    report = CoalgebraReport()
    dom = S.carrier.domain
    K = M * M
    for sample in samples:
        a = dom.coerce(sample)
        lam = S.lambda_values(K, a)
        name = _sample_name(S, a)
        # counit: eta(lambda_t(a)) = first coefficient = lambda^1(a) = a
        report.add(name, "counit eta(lambda_t(a)) = a", lam[1] == a)
        L = LambdaElem(dom, lam[1:], K)
        for i in range(1, M + 1):
            lhs = S.lambda_values(M, lam[i])  # lambda_t(lambda^i(a)) to deg M
            rhs = lambda_op(i, L, out_trunc=M, bound=K)
            ok = all(lhs[j] == rhs.a[j - 1] for j in range(1, M + 1))
            report.add(
                name,
                f"coassociativity at outer degree {i}",
                ok,
            )
    return report


def _sample_name(S, a):
    dom = S.carrier.domain
    if hasattr(dom, "format"):
        return dom.format(a)
    return dom.format_payload(a.payload)
