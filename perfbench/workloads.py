"""The three benchmark workloads: seeded inputs, one op, independent checks.

Each workload turns a seed into inputs, runs one op on an input, and checks
an op's output against a route that does not share the code under test.
Checks return the names of the checks that failed; an empty list means the
output is correct.  Nothing here times anything: `worker.py` does.

Importing this module imports `wittlam`, so a worker imports it inside the
interval it reports as set-up time.
"""

import hashlib
import random
from fractions import Fraction

# Ops call the library through its module attributes, so that a traced run,
# which rebinds names inside the wittlam modules, sees every call.
from wittlam import lambda_witt, lubin, structures, sympoly, universal
from wittlam.ground import GroundRing
from wittlam.lambda_witt import LambdaElem
from wittlam.structures import Carrier, LambdaStructure


def binom(q, n):
    """C(q, n) = q(q-1)...(q-n+1)/n! for any integer q, kept apart from the
    library's own binomial helpers so that the checks stay independent."""
    num = Fraction(1)
    den = 1
    for k in range(n):
        num *= q - k
        den *= k + 1
    return num / den


def eval_terms(poly, values):
    """Evaluate an MPoly at Fractions straight from its term dict."""
    xs = [values[v] for v in poly.vars]
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = Fraction(coeff)
        for x, k in zip(xs, expo):
            if k:
                term *= x ** k
        total += term
    return total


def kernel_name():
    """The term kernel in use ('pure' or 'compiled'), so that results from
    different kernels are never compared by mistake."""
    try:
        from wittlam import kernel
    except ImportError:  # the dispatch layer is planned to go
        return "no kernel module"
    return kernel.implementation()


def digest(items):
    """A short hash of the inputs' text forms: equal seeds, equal digests."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# universal-cold: one cold ladder of universal polynomials per interpreter
# ---------------------------------------------------------------------------


class UniversalCold:
    """P_1..P_9, then P_(m,n) for every mn <= 9, from empty memo tables."""

    name = "universal-cold"
    TOP = 9
    PAIRS_PER_OP = 3

    def __init__(self):
        self.rungs = [("P", n, None) for n in range(1, self.TOP + 1)] + [
            ("Pcomp", m, n)
            for m in range(1, self.TOP + 1)
            for n in range(1, self.TOP // m + 1)
        ]

    def inputs(self, seed):
        """Integer pairs (r, s) for the binomial checks, nonzero, in [-9, 9]."""
        rng = random.Random(f"{self.name}:{seed}")
        pool = [v for v in range(-9, 10) if v]
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(self.PAIRS_PER_OP)]

    def describe(self, pair):
        return pair

    @staticmethod
    def cold_state():
        """Sizes of the memo tables the ladder fills; all zero when cold.

        GLOBAL_CACHE is the public table.  The elementary-symmetric tables
        are private and may go with a new algorithm; absent ones are left
        out rather than failing the proof.
        """
        cache = sympoly.GLOBAL_CACHE
        state = {"GLOBAL_CACHE.P": len(cache.P), "GLOBAL_CACHE.Pcomp": len(cache.Pcomp)}
        for name in ("_esym_cache", "_eprod_cache"):
            if hasattr(sympoly, name):
                state[name] = len(getattr(sympoly, name))
        return state

    def build(self, rung):
        """Build one rung; return (polynomial, True if the call missed)."""
        kind, m, n = rung
        cache = sympoly.GLOBAL_CACHE
        if kind == "P":
            miss = m not in cache.P
            return sympoly.universal_P(m), miss and m in cache.P
        miss = (m, n) not in cache.Pcomp
        return (sympoly.universal_Pcomp(m, n, bound=self.TOP),
                miss and (m, n) in cache.Pcomp)

    def op(self, pairs):
        """The ladder; records the table sizes it started from and, per
        rung, whether the first call was a miss."""
        self.start_state = self.cold_state()
        built = [self.build(rung) for rung in self.rungs]
        self.missed = [miss for _, miss in built]
        return [poly for poly, _ in built]

    def proof(self):
        return {"cold_at_start": self.start_state,
                "first_calls_missed": sum(self.missed), "rungs": len(self.rungs)}

    def check(self, pairs, polys):
        """The ladder was cold, and on binomial data over Z every rung gives
        C(rs, n) = P_n(C(r,.); C(s,.)) and C(C(r,n), m) = P_(m,n)(C(r,.))."""
        failed = []
        if any(self.start_state.values()):
            failed.append("not-cold-at-start")
        if not all(self.missed):
            failed.append("rung-not-a-miss")
        for r, s in pairs:
            for (kind, m, n), poly in zip(self.rungs, polys):
                if kind == "P":
                    vals = {f"a{k}": binom(r, k) for k in range(1, m + 1)}
                    vals.update({f"b{k}": binom(s, k) for k in range(1, m + 1)})
                    ok = binom(r * s, m) == eval_terms(poly, vals)
                    tag = f"P{m}"
                else:
                    vals = {f"a{k}": binom(r, k) for k in range(1, m * n + 1)}
                    ok = binom(binom(r, n), m) == eval_terms(poly, vals)
                    tag = f"Pcomp{m}_{n}"
                if not ok:
                    failed.append(f"binomial-{tag}")
        return failed


# ---------------------------------------------------------------------------
# lambda-eval: Lambda/W arithmetic at N = 8 on three domains
# ---------------------------------------------------------------------------


class LambdaEval:
    """One request: lambda_mul, lambda^2, lambda^3, E^-1, W sum and product, E.

    f = lambda_t(r) and g = lambda_t(s) under a known structure, so that
    lambda^i(f) can be checked against the structure's own Newton lift.
    """

    name = "lambda-eval"
    N = 8
    BOUND = 8
    POOL = 16  # (f, g) pairs per domain; requests cycle through them
    TRACE_OPS = 30

    def __init__(self):
        Z = GroundRing.integers()
        self.domains = [
            ("Z", structures.make_binomial_structure(Z)),
            ("Z[eps]", LambdaStructure(Carrier.dual_numbers(Z), (2, 3, 5, 7),
                                       {2: 2, 3: 3, 5: 5, 7: 7})),
            ("Z[x]/x^5", structures.standard_structure("mult", Z, trunc=4)),
        ]
        self._expected = {}

    def _element(self, rng, label, S):
        """A seeded carrier element whose constant part c has |c| in 9..14.

        With |c| >= 9 every C(c, k), k <= 8, is nonzero, so no lambda^k(r)
        has a zero constant part; a small constant part would make request
        cost depend on the seed through the zero-skipping in series
        arithmetic.
        """
        dom = S.carrier.domain

        def small(lo, hi):
            return rng.choice([-1, 1]) * rng.randint(lo, hi)

        if label == "Z":
            return dom.from_int(small(9, 14))
        if label == "Z[eps]":
            return dom.coerce((small(9, 14), small(1, 5)))
        return dom.coerce([small(9, 14)] + [small(1, 3) for _ in range(4)])

    def inputs(self, seed):
        """Requests in rotation Z, Z[eps], Z[x]/x^5, POOL pairs per domain."""
        rng = random.Random(f"{self.name}:{seed}")
        per_domain = []
        for label, S in self.domains:
            items = []
            for _ in range(self.POOL):
                r = self._element(rng, label, S)
                s = self._element(rng, label, S)
                lam_r = structures.lambda_values(S, self.N, r)
                lam_s = structures.lambda_values(S, self.N, s)
                dom = S.carrier.domain
                items.append({
                    "domain": label, "S": S, "r": r, "s": s, "lam_r": lam_r,
                    "f": LambdaElem(dom, lam_r[1:], self.N),
                    "g": LambdaElem(dom, lam_s[1:], self.N),
                })
            per_domain.append(items)
        return [per_domain[k % 3][k // 3] for k in range(3 * self.POOL)]

    def describe(self, inp):
        return (inp["domain"], str(inp["r"]), str(inp["s"]))

    def warm_up(self):
        """Build P_1..P_8 and every P_(m,n) with mn <= 8."""
        for n in range(1, self.BOUND + 1):
            sympoly.universal_P(n)
        for m in range(1, self.BOUND + 1):
            for n in range(1, self.BOUND // m + 1):
                sympoly.universal_Pcomp(m, n, bound=self.BOUND)

    def op(self, inp):
        f, g = inp["f"], inp["g"]
        lw = lambda_witt
        wf = lw.exp_iso_inv(f)
        wg = lw.exp_iso_inv(g)
        return {
            "mul": lw.lambda_mul(f, g),
            "op2": lw.lambda_op(2, f, bound=self.BOUND),
            "op3": lw.lambda_op(3, f, bound=self.BOUND),
            "witt_add": lw.witt_add(wf, wg),
            "ghost_mul": lw.exp_iso(lw.witt_mul(wf, wg)),
        }

    def _lambda_expected(self, inp, i, cap):
        """lambda^j(lambda^i(r)) for j <= cap through the structure."""
        key = (id(inp), i)
        got = self._expected.get(key)
        if got is None:
            got = structures.lambda_values(inp["S"], cap, inp["lam_r"][i])[1:]
            self._expected[key] = got
        return got

    def check(self, inp, out):
        failed = []
        if out["mul"] != out["ghost_mul"]:
            failed.append("lambda_mul-vs-ghost")
        if lambda_witt.lambda_add(inp["f"], inp["g"]) != lambda_witt.exp_iso(out["witt_add"]):
            failed.append("lambda_add-vs-witt_add")
        for i in (2, 3):
            got = out[f"op{i}"]
            if list(got.a) != self._lambda_expected(inp, i, got.trunc):
                failed.append(f"lambda_op{i}-vs-coalgebra")
        return failed


# ---------------------------------------------------------------------------
# structures-series: conjugated structures on Z[[x]] at N = 12
# ---------------------------------------------------------------------------


class StructuresSeries:
    """One request: conjugate the multiplicative structure by a seeded unit
    series phi, validate it, lift lambda^1..6 of x + x^2, check commutation
    by the Hasse principle, and round-trip through the universal ring."""

    name = "structures-series"
    N = 12
    POOL = 128  # about one distinct phi per op, so p90 is not set by a few phis
    TRACE_OPS = 10

    def __init__(self):
        self.ring = GroundRing.integers()
        self.mult = structures.standard_structure("mult", self.ring, trunc=self.N)
        x = self.mult.carrier.domain.x()
        self.sample = x + x * x

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [{"phi": lubin.random_unit_series(self.ring, self.N, seed=rng.getrandbits(32))}
                for _ in range(self.POOL)]

    def describe(self, inp):
        return str(inp["phi"])

    def warm_up(self):
        pass

    def op(self, inp):
        phi = inp["phi"]
        S = lubin.conjugate_structure(self.mult, phi)
        report = structures.validate(S)
        structures.lambda_values(S, 6, self.sample)
        hasse = lubin.hasse_check(self.mult, S, phi, 2)
        return {"valid": report.passed, "hasse": hasse.ok,
                "roundtrip": universal.roundtrip_check(S)}

    def check(self, inp, out):
        return [name for name in ("valid", "hasse", "roundtrip") if out[name] is not True]


WORKLOADS = {w.name: w for w in (UniversalCold, LambdaEval, StructuresSeries)}
