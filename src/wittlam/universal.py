"""The universal ring behind filtered lambda-ring structures on R[[x]].

The co-representing ring is generated by indeterminates v indexed by a
prime p, a coefficient slot i >= 1, and a finite tail of primes
(q_1, .., q_n); we never materialize the quotient.  What is computable at
a finite window is the correspondence itself, and every part of it is an
evaluation at an assignment (a ring map out of the universal ring):

  * from Adams data psi^p(x) = sum r_{(p,i)} x^i over a ring R between
    Z and Q, the depth-0 assignment v_{(p,i)} |-> r_{(p,i)}/p (and
    (r_{(p,p)}-1)/p at the Frobenius slot i = p).  These are the whole
    state of an assignment: a tail slot is the iterated Fermat quotient
    (u^q - u)/q of its depth-0 value, derived when it is asked for;
  * from an assignment, the pushforward structure psi^p(x) =
    sum u_{(p,i)} x^i with u_{(p,i)} = p v_{(p,i)} (+1 at i = p),
    accepted only if the commutator coefficients w_{(p,q,l)} vanish.

The presentation itself (the universal Adams series and the w-relations
over Q[v_p_i ..]) is the same evaluation at the tautological assignment
`HomAssignment.generic`.
"""

from typing import NamedTuple

from .errors import (ExactDivisionError, InputError, MembershipError,
                     RelationViolationError, UnsupportedRingError)
from .ground import GroundRing, check_int
from .series import SeriesRing, compose
from .sympoly import MPoly
from .structures import (DEFAULT_PRIMES, POWER_SERIES, Carrier,
                         LambdaStructure, check_window_primes, validate)

DEFAULT_DEPTH = 2


class GeneratorIndex(NamedTuple):
    """Index (p, i, q_1..q_n) of a generator v of the universal ring."""

    p: int
    i: int
    tail: tuple = ()

    def label(self):
        bits = [str(self.p), str(self.i), *map(str, self.tail)]
        return "v(" + ",".join(bits) + ")"


class HomAssignment:
    """A ring map out of the universal ring, within a finite window.

    The window is every index (p, i, q_1..q_n) with p and the q_k in
    `primes`, 1 <= i <= N and tail length n <= D.  Only the depth-0 values
    v_{(p,i)} are stored, as one payload row per prime: `rows[p]` is the
    tuple of N + 1 target payloads (0, v_{(p,1)}, .., v_{(p,N)}), a series
    payload of `series` = SeriesRing(target, N), which is built once per
    assignment.  The tail recursion  v_{..., q} = (v_...^q - v_...)/q
    defines the deeper generators' images, so `get` derives a tail value
    from its depth-0 value, and `values` and `to_json` derive the whole
    window level by level.  Over a ring between Z and Q, or a Q-algebra,
    every such quotient exists by the Fermat congruence; over any other
    target the window is derived once at construction, so that a missing
    quotient is an error there.  Every depth-0 value must lie in the
    target ring.
    """

    __slots__ = ("target", "primes", "trunc", "depth", "rows", "series")

    def __init__(self, target, primes, trunc, depth, depth0):
        """`depth0` maps each (p, i) of the window to its value."""
        primes = tuple(primes)
        _check_window(primes, trunc, depth)
        self.target = target
        self.primes = tuple(sorted(primes))
        self.trunc = trunc
        self.depth = depth
        depth0 = dict(depth0)
        self._verify(depth0)
        self.series = SeriesRing(target, trunc)
        zero = target._pzero()
        self.rows = {p: (zero, *(depth0[(p, i)].payload
                                 for i in range(1, trunc + 1)))
                     for p in self.primes}
        if depth and not (target.between_Z_and_Q() or target.is_q_algebra()):
            self.values  # derives every quotient; raises where one does not exist

    @classmethod
    def _from_rows(cls, series, primes, depth, rows):
        """The assignment with these payload rows (see the class docstring)
        over the ground of `series`, keyed by the sorted `primes`.  Nothing
        is verified: the caller computed every row in that ground."""
        _check_window(primes, series.trunc, depth)
        h = cls.__new__(cls)
        h.target, h.trunc, h.series = series.ground, series.trunc, series
        h.primes, h.depth, h.rows = tuple(sorted(primes)), depth, rows
        return h

    @classmethod
    def from_depth0(cls, target, depth0, primes=DEFAULT_PRIMES, trunc=8,
                    depth=DEFAULT_DEPTH):
        """The assignment with these depth-0 values, 0 where none is given."""
        return cls(target, primes, trunc, depth, {
            (p, i): target.coerce(depth0.get((p, i), 0))
            for p in primes for i in range(1, trunc + 1)
        })

    @classmethod
    def generic(cls, primes, trunc):
        """The tautological depth-0 assignment v_{(p,i)} |-> v_p_i into
        Q[v_p_i ..]: evaluating at it gives the symbolic forms."""
        _check_window(primes, trunc, 0)  # name a repeated prime as such
        keys = [(p, i) for p in primes for i in range(1, trunc + 1)]
        names = tuple(f"v_{p}_{i}" for p, i in keys)
        ring = GroundRing.rational_poly(names)
        return cls(ring, primes, trunc, 0, {
            key: ring.element(MPoly.gen(names, name))
            for key, name in zip(keys, names)
        })

    def _verify(self, depth0):
        """The keys of depth0 are exactly the window's (p, i), and every
        value lies in the target."""
        window = {(p, i) for p in self.primes for i in range(1, self.trunc + 1)}
        extra = depth0.keys() - window
        if extra:
            raise InputError(
                f"{GeneratorIndex(*min(extra, key=repr)).label()} is outside "
                f"the window (primes {list(self.primes)}, i <= {self.trunc})"
            )
        missing = window - depth0.keys()
        if missing:
            raise InputError(f"no value for {GeneratorIndex(*min(missing)).label()}")
        for key, val in depth0.items():
            if val.ring != self.target:
                raise MembershipError(
                    f"value at {GeneratorIndex(*key).label()} not in target"
                )

    def get(self, p, i, tail=()):
        """The image of v_{(p,i,tail)}: the depth-0 value, then one Fermat
        quotient per tail prime."""
        tail = tuple(tail)
        if len(tail) > self.depth or not set(tail) <= set(self.primes):
            raise KeyError(GeneratorIndex(p, i, tail))
        if p not in self.rows or not 1 <= i <= self.trunc:
            raise KeyError((p, i))
        v = self.target._wrap(self.rows[p][i])
        for q in tail:
            v = _fermat_quotient(self.target, v, q)
        return v

    @property
    def values(self):
        """Every window value, {GeneratorIndex: element}: depth 0 first, then
        each level's tails extended by each window prime."""
        wrap = self.target._wrap
        level = {GeneratorIndex(p, i): wrap(row[i])
                 for p, row in self.rows.items()
                 for i in range(1, self.trunc + 1)}
        out = dict(level)
        for _ in range(self.depth):
            level = {
                GeneratorIndex(key.p, key.i, key.tail + (q,)):
                    _fermat_quotient(self.target, v, q)
                for key, v in level.items() for q in self.primes
            }
            out.update(level)
        return out

    def __eq__(self, other):
        if not isinstance(other, HomAssignment):
            return NotImplemented
        return (
            self.target == other.target
            and self.primes == other.primes
            and self.trunc == other.trunc
            and self.depth == other.depth
            and self.rows == other.rows
        )

    def to_json(self):
        values = self.values
        vals = []
        for key in sorted(values):
            vals.append(
                {
                    "p": key.p,
                    "i": key.i,
                    "tail": list(key.tail),
                    "value": self.target.format_payload(values[key].payload),
                }
            )
        return {
            "target": self.target.to_json(),
            "primes": list(self.primes),
            "N": self.trunc,
            "depth": self.depth,
            "values": vals,
        }

    @classmethod
    def from_json(cls, data):
        """Parse an assignment.  This is where tail values come from outside,
        so the supplied keys must be exactly the window and every tail value
        must satisfy the tail recursion."""
        try:
            target = GroundRing.from_json(data["target"])
            primes = tuple(data["primes"])
            trunc, depth = data["N"], data["depth"]
            supplied = {}
            for item in data["values"]:
                key = GeneratorIndex(item["p"], item["i"], tuple(item["tail"]))
                if key in supplied:
                    raise InputError(f"two values for {key.label()}")
                supplied[key] = target.coerce(item["value"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed assignment: {exc!r}") from exc
        h = cls(target, primes, trunc, depth,
                {(k.p, k.i): v for k, v in supplied.items() if not k.tail})
        derived = h.values
        for key in supplied:
            if key not in derived:
                raise InputError(
                    f"{key.label()} is outside the window (tails of primes "
                    f"{list(h.primes)}, length <= {depth})"
                )
        for key, val in derived.items():
            if key not in supplied:
                raise InputError(f"no value for {key.label()}")
            if supplied[key] != val:
                raise InputError(
                    f"value at {key.label()} violates the tail recursion"
                )
        return h


def _check_window(primes, trunc, depth):
    check_int("N", trunc, 1)
    check_int("depth", depth, 0)
    check_window_primes(primes)


def _fermat_quotient(ring, u, q):
    """(u^q - u)/q, exact in the ring by the Fermat congruence."""
    return ring.div_int(u ** q - u, q)


def relation_V(index, q_next, assignment):
    """The relation element v^q - v - q*v' at an assignment; zero iff the
    tail recursion holds there."""
    v = assignment.get(index.p, index.i, index.tail)
    v2 = assignment.get(index.p, index.i, index.tail + (q_next,))
    return v ** q_next - v - v2 * q_next


def universal_adams(p, assignment):
    """The universal Adams series psi^p(x) = sum_{i<=N} u_{(p,i)} x^i,
    evaluated under an assignment: a series over its target ring, with
    u_{(p,i)} = p v_{(p,i)}, plus 1 at the Frobenius slot i = p.  It is one
    `_pscale` of the payload row of p by p on the assignment's series ring,
    then one `_padd` at slot p."""
    series, target = assignment.series, assignment.target
    u = list(series._pscale(assignment.rows[p], p))
    if p <= assignment.trunc:
        u[p] = target._padd(u[p], target._pfrom_int(1))
    return series._wrap(tuple(u))


def relation_w(p, q, assignment):
    """Coefficients w_{(p,q,l)} of psi^p(psi^q(x)) - psi^q(psi^p(x)) under
    an assignment.

    All zero exactly when the two Adams series commute mod x^{N+1}.
    """
    if p == q:
        raise ValueError("relation_w needs distinct primes")
    fp = universal_adams(p, assignment)
    fq = universal_adams(q, assignment)
    diff = compose(fp, fq) - compose(fq, fp)
    return list(diff.coeffs[1:])


def hom_from_structure(S, depth=DEFAULT_DEPTH):
    """The assignment corresponding to a structure on R[[x]], R in [Z, Q].

    Depth-0 values divide the Adams coefficients by p (shifting by 1 at
    the Frobenius slot); the Frobenius congruence makes these divisions
    land in R, and failures mean S violates the psi-ring congruence.  Each
    prime's payload row is one exact division of the shifted Adams payload
    (slot 0 set to 0) by p, the carrier series ring's `_pdiv_int` (over Z
    the generated division); only when it fails is the first slot that R's
    `_pdiv_int` cannot divide looked for, to name it.
    """
    carrier = S.carrier
    if carrier.kind != POWER_SERIES or not carrier.ring.between_Z_and_Q():
        raise UnsupportedRingError(
            "the correspondence needs a power series carrier over a ring "
            "between Z and Q"
        )
    R, series, N = carrier.ring, carrier.series, carrier.trunc
    rows = {}
    for p in S.primes:
        r = list(S.adams_series(p).payload)
        r[0] = R._pzero()
        if p <= N:
            r[p] = R._psub(r[p], R._pfrom_int(1))
        try:
            rows[p] = series._pdiv_int(r, p)
        except ExactDivisionError:
            for i in range(1, N + 1):
                try:
                    R._pdiv_int(r[i], p)
                except ExactDivisionError as exc:
                    raise MembershipError(
                        f"structure violates the psi-ring congruence at "
                        f"(p={p}, i={i}): {exc}"
                    ) from exc
            raise
    return HomAssignment._from_rows(series, S.primes, depth, rows)


def structure_from_hom(assignment):
    """Pushforward of the universal Adams series along an assignment, a
    structure on target[[x]] mod x^{N+1}.

    Rejects assignments whose pushforward fails validation, in particular
    images that do not commute (a nonzero w-relation).
    """
    carrier = Carrier.power_series(assignment.target, assignment.trunc)
    adams = {p: universal_adams(p, assignment) for p in assignment.primes}
    S = LambdaStructure(carrier, assignment.primes, adams)
    # validate composes every pair of Adams series both ways, which is the
    # w-relation; a FAIL line names the pair that does not commute
    report = validate(S)
    if not report.passed:
        raise RelationViolationError(
            "pushforward structure fails validation:\n" + str(report)
        )
    return S


def roundtrip_check(S):
    """structure -> assignment -> structure is the identity.

    The way back to the assignment needs no check of its own:
    hom_from_structure reads only the carrier, the window and the Adams
    series, which is what == compares.  It takes no depth, because
    structure_from_hom reads only the depth-0 values.
    """
    return structure_from_hom(hom_from_structure(S)) == S
