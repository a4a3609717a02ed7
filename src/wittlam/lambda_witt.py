"""The functors Lambda and W at finite truncation.

LambdaElem represents 1 + a_1 t + ... + a_N t^N (the leading 1 implicit);
WittVec represents (a_1, ..., a_N).  Both take their coefficients from a
"domain", a GroundRing or a SeriesRing, and like its elements hold a
domain and a payload: the tuple of the N coefficient payloads.  `a` (the
coefficients as elements) and `trunc` (N) are read-only views; the
constructor `LambdaElem(domain, coeffs, N)` coerces outside values.
Every supported domain is torsion-free, so the ghost map (power sums) is
injective on both functors and turns their ring operations into
coordinatewise ones (Hazewinkel, "Witt vectors. Part 1", arXiv:0804.3888,
sections 9-16):

  * Witt arithmetic adds or multiplies ghost components and solves the
    ghost equations degree by degree;
  * Lambda(A) works in the power sums p_n of f = prod (1 + x_k t): the
    product multiplies them, p_n(f * g) = p_n(f) p_n(g), lambda^i has
    ghost_j(lambda^i f) = e_i(x_k^j), where the x_k^j have power sums
    p_j, p_2j, ..., and the Adams operation has p_n(psi^k f) = p_kn(f).
    Both directions between coefficients and power sums are Newton's
    identities (Macdonald, Symmetric Functions, I §2 (2.11')).
  * E^-1 peels one factor 1 + a_k t^k at a time, O(N^2) products.

Every routine runs on the domain's payloads (the `_p*` protocol of
`ground.GroundRing` and `series.SeriesRing`): over Z[S^-1] a scalar is an
int when it is integral and a Fraction otherwise, and a Z[x]/x^k value is
a tuple of such scalars.  A routine reads `f.payload` and stores its
result tuple as it is, so nothing is converted on the way in or out;
over Z every result scalar is an int.  Every division by an integer goes
through the domain's exact `_pdiv_int`; a failure raises
IntegralityError, whose `degree` names the failing degree of a Newton
inversion.  `structures.lambda_values` lifts Adams data through the same
Newton inversion.  The universal polynomials P_n and P_{m,n} are not
used here: they are what the tests and `axiom_check` check these routes
against.

Newton's identities in both directions, the ghost map and the ghost
solve each have a loop (`_power_sums_loop`, ...), and for degrees
1 <= M <= _NEWTON_MAX_M a straight-line form of the same loop: one
function per routine, M and spelling, generated from the int M alone on
first use and kept in `_NEWTON_KERNELS`.  It takes the domain's payload
ops as arguments and writes one statement per term.  On domains whose
ops are the `operator` builtins (Z[S^-1], Q[y..]), which each domain
states once in its flag `_inline_ops`, the ops are written as `+ - *`;
on dual numbers and every SeriesRing they are calls.  The forms
make the loops' divisions in the same order, skip a zero a_d in the
ghost map as the loop does, and read q_n in the Newton inversion only
once c_{n-1} is known.  They leave out scalings by 1.  Their source grows
as M^2, and so does the time to compile it (about 0.3-0.7 ms per form at
M = 8 and 0.5-2 ms at M = 16), so above M = 16 the loops run.  E and
E^-1 stay loops.
"""

from .errors import (BoundExceededError, ExactDivisionError, IntegralityError,
                     RingMismatchError)
from .ground import check_int, factorize
from .report import Report
from .sympoly import DEFAULT_PCOMP_BOUND


class _Vector:
    __slots__ = ("domain", "payload")

    def __init__(self, domain, coeffs, trunc=None):
        """Coerce each coefficient into the domain, padding with zeros or
        cutting to `trunc` coefficients (default: as many as given)."""
        coeffs = [domain.coerce(c).payload for c in coeffs]
        if trunc is None:
            trunc = len(coeffs)
        check_int("N", trunc, 0)
        coeffs += [domain._pzero()] * (trunc - len(coeffs))
        self.domain = domain
        self.payload = tuple(coeffs[:trunc])

    @classmethod
    def _from_payloads(cls, domain, payloads):
        """The vector holding the given payloads, converted by nothing."""
        out = object.__new__(cls)
        out.domain = domain
        out.payload = tuple(payloads)
        return out

    @property
    def a(self):
        return tuple(map(self.domain._wrap, self.payload))

    @property
    def trunc(self):
        return len(self.payload)

    def _check(self, other):
        if self.domain != other.domain or self.trunc != other.trunc:
            raise RingMismatchError("mismatched domains or truncations")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.domain == other.domain and self.payload == other.payload

    def __hash__(self):
        return hash((type(self).__name__, self.domain, self.payload))

    def coeff_strings(self):
        return [self.domain.format(c) for c in self.a]

    def __str__(self):
        return ",".join(self.coeff_strings())


class LambdaElem(_Vector):
    """An element 1 + sum a_i t^i of Lambda(A), truncated at t^N."""

    __slots__ = ()

    def __repr__(self):
        return f"LambdaElem({self}; N={self.trunc})"

    def to_json(self):
        return {"lambda": self.coeff_strings()}


class WittVec(_Vector):
    """A truncated big Witt vector (a_1, ..., a_N)."""

    __slots__ = ()

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
    dom = f.domain
    add, mul = dom._padd, dom._pmul
    a, b = f.payload, g.payload
    out = []
    for i in range(f.trunc):
        acc = add(a[i], b[i])  # the terms a_0 b_i and a_i b_0, a_0 = b_0 = 1
        for r in range(i):
            acc = add(acc, mul(a[r], b[i - r - 1]))
        out.append(acc)
    return LambdaElem._from_payloads(dom, out)


def lambda_neg(f):
    """Additive inverse in Lambda(A): the reciprocal series."""
    dom = f.domain
    sub, mul = dom._psub, dom._pmul
    a = f.payload
    out = []
    for i in range(f.trunc):
        acc = dom._pneg(a[i])
        for r in range(i):
            acc = sub(acc, mul(out[r], a[i - r - 1]))
        out.append(acc)
    return LambdaElem._from_payloads(dom, out)


# ---------------------------------------------------------------------------
# straight-line forms of Newton's identities, the ghost map and the ghost solve
# ---------------------------------------------------------------------------

# Degrees M up to this one get generated kernels.  The source of Newton's
# identities grows as M^2, and so does the time to compile it.
_NEWTON_MAX_M = 16
_NEWTON_KERNELS = {}  # (routine, M, inline) -> its straight-line form, built on first use

# How each payload op is written: inline, or as a call to the kernel's
# argument of that name.
_SPELLINGS = {
    True: {"add": "{} + {}", "sub": "{} - {}", "neg": "-{}", "mul": "{} * {}",
           "scale": "{} * {}", "nonzero": "{}"},
    False: {"add": "add({}, {})", "sub": "sub({}, {})", "neg": "neg({})",
            "mul": "mul({}, {})", "scale": "scale({}, {})",
            "nonzero": "not is_zero({})"},
}


def _names(stem, M):
    """"stem1, stem2, ..., stemM"."""
    return ", ".join(f"{stem}{n}" for n in range(1, M + 1))


def _dividing(target, dividend, n, error):
    """The lines of `target = div(dividend, n)` that raise `error`, called
    with the ExactDivisionError e, when the division fails."""
    return ["try:",
            f"    {target} = div({dividend}, {n})",
            "except ExactDivisionError as e:",
            f"    raise {error} from e"]


def _power_sums_lines(M, op):
    """The body of `_power_sums_loop` at M, unrolled and spelled by op."""
    lines = [f"{_names('a', M)}, = a[:{M}]", "p1 = a1"]
    for n in range(2, M + 1):
        p = f"p{n}"
        lines.append(f"{p} = " + op["scale"].format(f"a{n}", n if n % 2 else -n))
        for i in range(1, n):
            term = op["mul"].format(f"a{i}", f"p{n - i}")
            lines.append(f"{p} = " + op["add" if i % 2 else "sub"].format(p, term))
    return lines + [f"return [{_names('p', M)}]"]


def _from_power_sums_lines(M, op):
    """The body of `_from_power_sums_loop` over M sums, unrolled and
    spelled by op."""
    lines = ["next_q = iter(q).__next__"]
    for n in range(1, M + 1):
        lines += [f"q{n} = next_q()",
                  "t = " + (f"q{n}" if n % 2 else op["neg"].format(f"q{n}"))]
        for i in range(1, n):
            term = op["mul"].format(f"c{n - i}", f"q{i}")
            lines.append("t = " + op["add" if i % 2 else "sub"].format("t", term))
        lines += _dividing(f"c{n}", "t", n, f"_inversion_error(dom, t, {n}, e)")
    return lines + [f"return [{_names('c', M)}]"]


def _ghosts_lines(M, op):
    """The body of `_ghosts_loop` at M, unrolled and spelled by op."""
    lines = [f"{_names('a', M)}, = a[:{M}]", "w1 = a1"]
    lines += [f"w{n} = " + op["mul"].format(f"w{n - 1}", "a1")
              for n in range(2, M + 1)]
    for d in range(2, M + 1):
        lines.append(f"if {op['nonzero'].format(f'a{d}')}:")
        power = f"a{d}"
        for k in range(1, M // d + 1):
            if k > 1:
                lines.append(f"    x{d}_{k} = " + op["mul"].format(power, f"a{d}"))
                power = f"x{d}_{k}"
            w = f"w{d * k}"
            term = op["scale"].format(power, -d if d % 2 == 0 and k % 2 else d)
            lines.append(f"    {w} = " + op["add"].format(w, term))
    return lines + [f"return [{_names('w', M)}]"]


def _ghost_solve_lines(M, op):
    """The body of `_ghost_solve_loop` on M targets, unrolled and spelled
    by op."""
    lines = [f"{_names('T', M)}, = T"]
    for n in range(1, M + 1):
        c = f"c{n}"
        lines += _dividing(c, f"T{n}", n, f"_solve_error({n}, e)")
        if n % 2 == 0:  # leading ghost term is -n*c_n for even n
            lines.append(f"{c} = " + op["neg"].format(c))
        power = c
        for k in range(2, M // n + 1):
            lines.append(f"{c}_{k} = " + op["mul"].format(power, c))
            power = f"{c}_{k}"
            sign = -n if n % 2 == 0 and k % 2 else n
            term = power if sign == 1 else op["scale"].format(power, sign)
            lines.append(f"T{n * k} = " + op["sub"].format(f"T{n * k}", term))
    return lines + [f"return [{_names('c', M)}]"]


# routine -> (the kernel's parameters, the writer of its body)
_ROUTINES = {
    "power_sums": ("a, add, sub, mul, scale", _power_sums_lines),
    "from_power_sums": ("q, dom, add, sub, neg, mul, div", _from_power_sums_lines),
    "ghosts": ("a, add, mul, scale, is_zero", _ghosts_lines),
    "ghost_solve": ("T, sub, neg, mul, scale, div", _ghost_solve_lines),
}


def _straight_line(routine, M, inline):
    """The routine (a key of _ROUTINES) at degree M as one generated
    function with one statement per term: every loop of `<routine>_loop`
    unrolled, the divisions made in the same order and by the domain's
    `div`, scalings by 1 left out, and each payload op written as `+ - *`
    when inline, as a call to the kernel's argument of that name
    otherwise."""
    params, body = _ROUTINES[routine]
    source = "\n    ".join([f"def {routine}({params}):",
                            *body(M, _SPELLINGS[inline])]) + "\n"
    namespace = {"ExactDivisionError": ExactDivisionError,
                 "_inversion_error": _inversion_error,
                 "_solve_error": _solve_error}
    exec(compile(source, f"<lambda_witt {routine} M={M}>", "exec"), namespace)
    return namespace[routine]


def _kernel(routine, dom, M):
    """The straight-line form of routine at degree M for the domain dom,
    built on first use, for 1 <= M <= _NEWTON_MAX_M; None for other M."""
    if M is None or not 1 <= M <= _NEWTON_MAX_M:
        return None
    key = (routine, M, dom._inline_ops)
    kernel = _NEWTON_KERNELS.get(key)
    if kernel is None:
        kernel = _NEWTON_KERNELS[key] = _straight_line(*key)
    return kernel


def _power_sums(dom, a, M):
    """p_1..p_M of f = 1 + sum a_i t^i, i.e. of the roots x_k of
    f = prod (1 + x_k t), by Newton's identities
    p_n = sum_{i<n} (-1)^{i-1} a_i p_{n-i} + (-1)^{n-1} n a_n.

    a (at least M payloads of the domain dom) and the result are lists of
    payloads; `_power_sums_loop` for M above _NEWTON_MAX_M, the
    straight-line form of M otherwise."""
    kernel = _kernel("power_sums", dom, M)
    if kernel is None:
        return _power_sums_loop(dom, a, M)
    return kernel(a, dom._padd, dom._psub, dom._pmul, dom._pscale)


def _power_sums_loop(dom, a, M):
    """`_power_sums` as one loop."""
    add, sub, mul, scale = dom._padd, dom._psub, dom._pmul, dom._pscale
    p = []
    for n in range(1, M + 1):
        acc = scale(a[n - 1], n if n % 2 else -n)
        for i in range(1, n):
            term = mul(a[i - 1], p[n - i - 1])
            acc = add(acc, term) if i % 2 else sub(acc, term)
        p.append(acc)
    return p


def _from_power_sums(dom, sums, M=None):
    """The coefficients c_1..c_M whose power sums are q_1..q_M, by
    n c_n = sum_{i<=n} (-1)^{i-1} c_{n-i} q_i with c_0 = 1, on payloads
    of the domain dom.  `sums` is any iterable of q_1..q_M; q_n is read
    only once c_{n-1} is known.  M is read off a list or a tuple; an
    iterator of known length may give it, and without it the loop runs.

    Each division by n is exact when q are the power sums of an element of
    Lambda(A); a failed division raises IntegralityError with `degree` n
    and the failing `prime`, caused by the ExactDivisionError, and reads
    no further q.
    """
    if M is None and isinstance(sums, (list, tuple)):
        M = len(sums)
    kernel = _kernel("from_power_sums", dom, M)
    if kernel is None:
        return _from_power_sums_loop(dom, sums)
    return kernel(sums, dom, dom._padd, dom._psub, dom._pneg, dom._pmul,
                  dom._pdiv_int)


def _from_power_sums_loop(dom, sums):
    """`_from_power_sums` as one loop, over as many q as `sums` yields."""
    add, sub, mul, div = dom._padd, dom._psub, dom._pmul, dom._pdiv_int
    c, q = [], []
    for n, qn in enumerate(sums, 1):
        q.append(qn)
        acc = qn if n % 2 else dom._pneg(qn)
        for i in range(1, n):
            term = mul(c[n - i - 1], q[i - 1])
            acc = add(acc, term) if i % 2 else sub(acc, term)
        try:
            c.append(div(acc, n))
        except ExactDivisionError as exc:
            raise _inversion_error(dom, acc, n, exc) from exc
    return c


def _inversion_error(dom, acc, n, exc):
    """The IntegralityError of a power-sum inversion whose division of the
    payload acc by n failed with exc."""
    err = IntegralityError(f"power-sum inversion failed at degree {n}: {exc}")
    err.degree = n
    err.prime = _failing_prime(dom, acc, n)
    return err


def _failing_prime(dom, x, n):
    """A prime p such that p^e, the power of p exactly dividing n, does
    not divide the payload x in dom; one exists whenever n does not."""
    for p, e in factorize(n).items():
        try:
            dom._pdiv_int(x, p ** e)
        except ExactDivisionError:
            return p
    return None


def lambda_mul(f, g):
    """Product in Lambda(A) in ghost coordinates: the power sums multiply,
    p_n(f * g) = p_n(f) p_n(g), and Newton's identities turn the product's
    power sums back into coefficients.  The result is c_i = P_i(a; b)."""
    f._check(g)
    dom, N = f.domain, f.trunc
    mul = dom._pmul
    q = list(map(mul, _power_sums(dom, f.payload, N),
                 _power_sums(dom, g.payload, N)))
    return LambdaElem._from_payloads(dom, _from_power_sums(dom, q))


def lambda_op(i, f, out_trunc=None, bound=None):
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
    returned element's truncation says how far the result goes.  The
    default budget is DEFAULT_PCOMP_BOUND; a given bound below i, which
    leaves no coefficient, is an InputError.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if bound is None:
        bound = DEFAULT_PCOMP_BOUND
    else:
        check_int("bound", bound, i)
    cap = f.trunc if i == 1 else min(f.trunc // i, bound // i)
    if out_trunc is not None:
        check_int("out_trunc", out_trunc, 0)
        if out_trunc > cap:
            raise BoundExceededError(
                f"lambda^{i} computable only to degree {cap} "
                f"(requested {out_trunc}; N={f.trunc}, bound={bound})"
            )
        cap = out_trunc
    dom = f.domain
    if i == 1:
        return LambdaElem._from_payloads(dom, f.payload[:cap])
    p = _power_sums(dom, f.payload, cap * i)
    ghosts = [_from_power_sums(dom, p[j - 1:j * i:j])[i - 1]
              for j in range(1, cap + 1)]
    return LambdaElem._from_payloads(dom, _from_power_sums(dom, ghosts))


def lambda_adams(k, f):
    """The Adams operation psi^k on Lambda(A), a ring endomorphism with
    p_n(psi^k f) = p_kn(f).  Coefficient n needs p_1..p_kn of f, so the
    result is truncated at N // k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dom, M = f.domain, f.trunc // k
    p = _power_sums(dom, f.payload, M * k)
    return LambdaElem._from_payloads(dom, _from_power_sums(dom, p[k - 1::k]))


# ---------------------------------------------------------------------------
# Witt vectors
# ---------------------------------------------------------------------------


def _ghosts(dom, a, M):
    """Ghost components w_1..w_M of the payloads a (at least M of them),
    each the sum over d | n of s(d, n/d) * d * a_d^{n/d} (see `ghost`);
    `_ghosts_loop` for M above _NEWTON_MAX_M, the straight-line form of M
    otherwise."""
    kernel = _kernel("ghosts", dom, M)
    if kernel is None:
        return _ghosts_loop(dom, a, M)
    return kernel(a, dom._padd, dom._pmul, dom._pscale, dom._pis_zero)


def _ghosts_loop(dom, a, M):
    """`_ghosts` as one loop: the powers of each a_d are built by repeated
    multiplication and added into w_d, w_2d, ..., starting from the d = 1
    terms a_1^n; a zero a_d is skipped."""
    add, mul, scale, is_zero = dom._padd, dom._pmul, dom._pscale, dom._pis_zero
    w = []
    for n in range(M):
        w.append(mul(w[-1], a[0]) if n else a[0])
    for d in range(2, M + 1):
        x = power = a[d - 1]
        if is_zero(x):
            continue
        for k in range(1, M // d + 1):
            if k > 1:
                power = mul(power, x)
            sign = -d if d % 2 == 0 and k % 2 else d
            w[d * k - 1] = add(w[d * k - 1], scale(power, sign))
    return w


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
    return w.domain._wrap(_ghosts(w.domain, w.payload, n)[n - 1])


def ghosts(w):
    """All ghost components [w_1, ..., w_N] of w, from one pass; entry n - 1
    equals `ghost(n, w)`."""
    dom = w.domain
    return list(map(dom._wrap, _ghosts(dom, w.payload, w.trunc)))


def witt_zero(domain, trunc):
    return WittVec(domain, [], trunc)


def _ghost_solve(dom, targets):
    """Solve w_n(c) = targets[n] for c, degree by degree, on payloads of
    the domain dom.

    w_n(c) = (+-n)*c_n + (terms in c_d, d | n, d < n), so each c_n is
    obtained by an exact division by n; failure signals an engine bug
    because the universal Witt polynomials are integral.  Once c_d is
    known, its terms s(d, k) d c_d^k are subtracted from the targets at
    n = dk.  `_ghost_solve_loop` for more than _NEWTON_MAX_M targets, the
    straight-line form of their number otherwise.
    """
    kernel = _kernel("ghost_solve", dom, len(targets))
    if kernel is None:
        return _ghost_solve_loop(dom, targets)
    return kernel(targets, dom._psub, dom._pneg, dom._pmul, dom._pscale,
                  dom._pdiv_int)


def _ghost_solve_loop(dom, targets):
    """`_ghost_solve` as one loop."""
    sub, mul, scale, div = dom._psub, dom._pmul, dom._pscale, dom._pdiv_int
    M = len(targets)
    acc = list(targets)
    c = []
    for n in range(1, M + 1):
        try:
            cn = div(acc[n - 1], n)
        except ExactDivisionError as exc:
            raise _solve_error(n, exc) from exc
        if n % 2 == 0:  # leading ghost term is -n*c_n for even n
            cn = dom._pneg(cn)
        c.append(cn)
        power = cn
        for k in range(2, M // n + 1):
            power = mul(power, cn)
            acc[n * k - 1] = sub(acc[n * k - 1],
                                 scale(power, -n if n % 2 == 0 and k % 2 else n))
    return c


def _solve_error(n, exc):
    """The IntegralityError of a ghost solve whose division by n failed
    with exc."""
    return IntegralityError(f"ghost solve failed at degree {n}: {exc}")


def witt_add(a, b):
    a._check(b)
    dom, N = a.domain, a.trunc
    targets = list(map(dom._padd, _ghosts(dom, a.payload, N),
                       _ghosts(dom, b.payload, N)))
    return WittVec._from_payloads(dom, _ghost_solve(dom, targets))


def witt_mul(a, b):
    a._check(b)
    dom, N = a.domain, a.trunc
    targets = list(map(dom._pmul, _ghosts(dom, a.payload, N),
                       _ghosts(dom, b.payload, N)))
    return WittVec._from_payloads(dom, _ghost_solve(dom, targets))


# ---------------------------------------------------------------------------
# exponential isomorphism
# ---------------------------------------------------------------------------


def exp_iso(w):
    """E: W(A) -> Lambda(A), (a_i) |-> prod (1 + a_i t^i) mod t^{N+1}."""
    dom, N = w.domain, w.trunc
    add, mul, is_zero = dom._padd, dom._pmul, dom._pis_zero
    c = [dom._pzero()] * N  # c[j - 1] is the coefficient of t^j
    for i, ai in enumerate(w.payload, 1):
        if is_zero(ai):
            continue
        # multiply by 1 + a_i t^i, from the top down
        for j in range(N - i, 0, -1):
            if not is_zero(c[j - 1]):
                c[j + i - 1] = add(c[j + i - 1], mul(c[j - 1], ai))
        c[i - 1] = add(c[i - 1], ai)
    return LambdaElem._from_payloads(dom, c)


def exp_iso_inv(f):
    """E^{-1} by peeling: for k = 1..N, a_k is the t^k coefficient g_k of
    the current quotient g = f / prod_{i<k} (1 + a_i t^i), whose
    coefficients of t^1..t^{k-1} are zero; dividing g by 1 + a_k t^k is
    h_n = g_n - a_k h_{n-k}, which changes only the coefficients n > 2k
    (h_k = 0, and h_m = 0 for 0 < m < k), so only k < N/2 do any work.
    O(N^2) products, no division."""
    dom, N = f.domain, f.trunc
    sub, mul, is_zero = dom._psub, dom._pmul, dom._pis_zero
    g = list(f.payload)  # g[n - 1]: a_n once n <= k, else the quotient's t^n
    for k in range(1, (N - 1) // 2 + 1):
        ak = g[k - 1]
        if is_zero(ak):
            continue
        for n in range(2 * k + 1, N + 1):
            g[n - 1] = sub(g[n - 1], mul(ak, g[n - k - 1]))
    return WittVec._from_payloads(dom, g)


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


def coalgebra_check(S, samples, M=3):
    """Verify the counit and coassociativity laws through degree M.

    S must provide lambda-operations on its carrier (a LambdaStructure).
    For each sample a, the structure map L(a) = 1 + sum lambda^i(a) t^i is
    formed to inner degree M*M, and the identity
    Lambda(lambda_t)(L(a)) = Lambda_t(L(a)) is compared coefficientwise: outer
    coefficient i, inner coefficient j means
    lambda^j(lambda^i(a)) = P_{j,i}(lambda^1(a), ..., lambda^{ij}(a)),
    where the right side is lambda^i on Lambda applied via lambda_op.
    With no samples the report holds no check, so it is not passed.
    M must be an int >= 1: at M = 0 no coassociativity line is checked.
    """
    check_int("M", M, 1)
    report = Report()
    dom = S.carrier.domain
    K = M * M
    for sample in samples:
        a = dom.coerce(sample)
        lam = S.lambda_values(K, a)
        at = f"  at {dom.format(a)}"
        # counit: eta(lambda_t(a)) = first coefficient = lambda^1(a) = a
        report.add(f"counit eta(lambda_t(a)) = a{at}", lam[1] == a)
        L = LambdaElem(dom, lam[1:], K)
        for i in range(1, M + 1):
            lhs = S.lambda_values(M, lam[i])  # lambda_t(lambda^i(a)) to deg M
            rhs = lambda_op(i, L, out_trunc=M, bound=K)
            ok = lhs[1:] == list(rhs.a)
            report.add(f"coassociativity at outer degree {i}{at}", ok)
    return report
