"""Desk-scale verification suites behind the `selftest` subcommand.

Each suite checks one family of structural identities exactly (no
tolerances; every coefficient comparison is exact arithmetic) and
reports one check, named after the suite, whose detail is its wall time
against a soft runtime target.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, WilkersonError
from .ground import GroundRing, XAdicIdeal, binom_fraction
from .lambda_witt import (WittVec, coalgebra_check, exp_iso, exp_iso_inv,
                          filtration_member, ghost, lambda_add, lambda_mul,
                          witt_add, witt_mul)
from .lubin import (CommutingProblem, conjugate_structure, hasse_check,
                    lubin_solve, random_unit_series)
from .report import Report
from .series import SeriesRing
from .structures import (axiom_check, dual_iso_test, make_binomial_structure,
                         make_dual_structure, standard_structure, validate)
from .sympoly import MPoly, universal_P, universal_Pcomp
from .universal import (GeneratorIndex, hom_from_structure, relation_V,
                        relation_w, roundtrip_check, structure_from_hom)


def _run(number, name, target, body):
    """Run a suite body, which appends one message per failure to a list.
    The Report has one check, named after the suite, with the wall time
    against the soft target as its detail, and each failure as a note."""
    failures = []
    t0 = time.perf_counter()
    body(failures)
    elapsed = time.perf_counter() - t0
    report = Report()
    report.add(f"suite {number} ({name})", not failures,
               f"{elapsed:.2f}s (target < {target:.0f}s)")
    for msg in failures:
        report.note(msg)
    return report


def suite_lines(report):
    """The `selftest` lines of a suite's Report: `PASS  suite N (name):
    <elapsed>s (target < <target>s)`, then each failure, indented."""
    [(name, passed, detail)] = report.checks
    head = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    return [head] + [f"    {msg}" for msg in report.notes]


def suite_1(seed=0):
    """Universal polynomials: integrality and the six axioms on the
    binomial lambda-ring of the integers, for n <= 14 and mn <= 16."""
    top, top_comp = 14, 16

    def body(failures):
        for n in range(1, top + 1):
            if not universal_P(n).is_integral():
                failures.append(f"P_{n} not integral")
        for m in range(1, top_comp + 1):
            for n in range(1, top_comp // m + 1):
                if not universal_Pcomp(m, n, bound=top_comp).is_integral():
                    failures.append(f"P_({m},{n}) not integral")
        one = Fraction(1)
        C = lru_cache(maxsize=None)(binom_fraction)
        for r in range(-4, 5):
            if C(r, 0) != 1 or C(r, 1) != r:
                failures.append(f"lambda^0/lambda^1 fail at {r}")
            for n in range(2, top + 1):
                if C(1, n) != 0:
                    failures.append(f"lambda^{n}(1) != 0")
        for r in range(-4, 5):
            for s in range(-4, 5):
                for n in range(1, top + 1):
                    total = sum(C(r, i) * C(s, n - i) for i in range(n + 1))
                    if C(r + s, n) != total:
                        failures.append(f"additivity fails at {(r, s, n)}")
                    vals = {}
                    for k in range(1, n + 1):
                        vals[f"a{k}"] = C(r, k)
                        vals[f"b{k}"] = C(s, k)
                    if C(r * s, n) != universal_P(n).evaluate(vals, one):
                        failures.append(f"product fails at {(r, s, n)}")
        for r in range(-4, 5):
            for m in range(1, top_comp + 1):
                for n in range(1, top_comp // m + 1):
                    vals = {f"a{k}": C(r, k) for k in range(1, m * n + 1)}
                    lhs = C(C(r, n), m)
                    if lhs != universal_Pcomp(m, n, bound=top_comp).evaluate(vals, one):
                        failures.append(f"composition fails at {(r, m, n)}")

    return _run(1, "universal polynomials", 60, body)


def suite_2(seed=0):
    """The exponential isomorphism is a ring isomorphism: symbolically at
    N = 4, ghost naturality to n = 6, and inverse round trips at N = 8."""

    def body(failures):
        names = tuple(f"a{i}" for i in range(1, 5)) + tuple(
            f"b{i}" for i in range(1, 5)
        )
        ring = GroundRing.rational_poly(names)
        gens = [ring.element(MPoly.gen(names, v)) for v in names]
        a = WittVec(ring, gens[:4], 4)
        b = WittVec(ring, gens[4:], 4)
        s = witt_add(a, b)
        p = witt_mul(a, b)
        for vec, tag in ((s, "sum"), (p, "product")):
            if not all(c.payload.is_integral() for c in vec.a):
                failures.append(f"universal Witt {tag} not integral")
        if exp_iso(s) != lambda_add(exp_iso(a), exp_iso(b)):
            failures.append("E(a +_W b) != E(a) +_L E(b) symbolically")
        if exp_iso(p) != lambda_mul(exp_iso(a), exp_iso(b)):
            failures.append("E(a *_W b) != E(a) *_L E(b) symbolically")

        names6 = tuple(f"a{i}" for i in range(1, 7)) + tuple(
            f"b{i}" for i in range(1, 7)
        )
        ring6 = GroundRing.rational_poly(names6)
        gens6 = [ring6.element(MPoly.gen(names6, v)) for v in names6]
        a6 = WittVec(ring6, gens6[:6], 6)
        b6 = WittVec(ring6, gens6[6:], 6)
        s6 = witt_add(a6, b6)
        p6 = witt_mul(a6, b6)
        for n in range(1, 7):
            if ghost(n, s6) != ghost(n, a6) + ghost(n, b6):
                failures.append(f"ghost additivity fails at n={n}")
            if ghost(n, p6) != ghost(n, a6) * ghost(n, b6):
                failures.append(f"ghost multiplicativity fails at n={n}")

        Z = GroundRing.integers()
        rng = random.Random(seed)
        for trial in range(100):
            v = WittVec(Z, [rng.randint(-9, 9) for _ in range(8)])
            if exp_iso_inv(exp_iso(v)) != v:
                failures.append(f"E^-1(E(v)) != v at trial {trial}")

    return _run(2, "exponential isomorphism", 120, body)


def suite_3(seed=0):
    """Membership in W(I^n) agrees with membership of the image under E
    in Lambda(I^n), over Z[x]/x^5 with the ideals (x^k)."""

    def body(failures):
        Z = GroundRing.integers()
        dom = SeriesRing(Z, 4)
        rng = random.Random(seed)
        outcomes = set()
        for trial in range(200):
            k = rng.randint(1, 4)
            vec = []
            for _ in range(4):
                if rng.random() < 0.5:
                    coeffs = [0] * k + [rng.randint(-3, 3) for _ in range(5 - k)]
                else:
                    coeffs = [rng.randint(-3, 3) for _ in range(5)]
                vec.append(dom.coerce(coeffs))
            wv = WittVec(dom, vec, 4)
            ideal = XAdicIdeal(k)
            mw = filtration_member(wv, ideal)
            ml = filtration_member(exp_iso(wv), ideal)
            outcomes.add(mw)
            if mw != ml:
                failures.append(f"membership disagrees at trial {trial} (k={k})")
        if outcomes != {True, False}:
            failures.append("sampling produced only one membership outcome")

    return _run(3, "filtration equivalence", 30, body)


def suite_4(seed=0):
    """The Newton lift: psi = id gives binomial symbols; the structure
    psi^p(x) = (1+x)^p - 1 validates and passes the axiom checks."""

    def body(failures):
        S = make_binomial_structure()
        Z = GroundRing.integers()
        for m in range(-10, 11):
            lam = S.lambda_values(6, Z.from_int(m))
            for n in range(7):
                if lam[n].payload != binom_fraction(m, n):
                    failures.append(f"lambda^{n}({m}) != C({m},{n})")
        mult = standard_structure("mult", trunc=8)
        rep = validate(mult)
        if not rep.passed:
            failures.append("multiplicative structure fails validation")
        repa = axiom_check(mult, nmax=4, bound=6)
        if not repa.passed:
            bad = [name for name, ok, _ in repa.checks if not ok]
            failures.append(f"axiom check fails: {bad[:3]}")

    return _run(4, "Newton/Wilkerson lift", 120, body)


def suite_5(seed=0):
    """Dual-number classification: distinct p-divisible sequences give
    pairwise non-isomorphic structures; bad multipliers are rejected."""

    def body(failures):
        Z = GroundRing.integers()
        structures = []
        for k in range(20):
            mult = {2: 2 * k, 3: 3 * (k + 1), 5: 5 * k, 7: 7 * k}
            structures.append(make_dual_structure(Z, mult))
        for i in range(20):
            if not dual_iso_test(structures[i], structures[i]):
                failures.append(f"structure {i} not isomorphic to itself")
            for j in range(i + 1, 20):
                if dual_iso_test(structures[i], structures[j]):
                    failures.append(f"structures {i},{j} wrongly isomorphic")
        try:
            make_dual_structure(Z, {2: 3, 3: 3, 5: 5, 7: 7})
            failures.append("non-2-divisible a_2 = 3 was not rejected")
        except WilkersonError:
            pass
        except Exception as exc:
            failures.append(
                f"a_2 = 3 raised {type(exc).__name__}, not WilkersonError: {exc}"
            )

    return _run(5, "dual-number classification", 10, body)


def _random_structures(count, seed, trunc=8):
    """Valid pseudorandom structures over Z[[x]], built by conjugating the
    multiplicative structure with integral unit series and pushing the
    resulting assignment back through the correspondence."""
    base = standard_structure("mult", trunc=trunc)
    out = []
    for k in range(count):
        phi = random_unit_series(GroundRing.integers(), trunc, seed=seed + k + 1)
        S = conjugate_structure(base, phi)
        h = hom_from_structure(S)
        out.append(structure_from_hom(h))
    return out


def suite_6(seed=0):
    """The universal-ring correspondence round-trips on a corpus and the
    corresponding assignments kill the w- and V-relations."""

    def body(failures):
        corpus = [
            standard_structure("power", trunc=8),
            standard_structure("mult", trunc=8),
        ] + _random_structures(3, seed)
        homs = []
        for idx, S in enumerate(corpus):
            if not roundtrip_check(S):
                failures.append(f"roundtrip fails for corpus member {idx}")
            h = hom_from_structure(S)
            homs.append(h)
            for a, p in enumerate(h.primes):
                for q in h.primes[a + 1 :]:
                    ws = relation_w(p, q, h)
                    if any(not v.is_zero() for v in ws):
                        failures.append(
                            f"w relation ({p},{q}) nonzero for member {idx}"
                        )
            for key in h.values:
                if len(key.tail) >= h.depth:
                    continue
                for q in h.primes:
                    v = relation_V(GeneratorIndex(key.p, key.i, key.tail), q, h)
                    if not v.is_zero():
                        failures.append(
                            f"V relation at {key.label()}+{q} nonzero"
                        )
        for i in range(len(homs)):
            for j in range(i + 1, len(homs)):
                if homs[i] == homs[j]:
                    failures.append(f"assignments {i} and {j} coincide")

    return _run(6, "universal-ring correspondence", 180, body)


def suite_7(seed=0):
    """The commuting-series solver reproduces (1+x)^c - 1, and commuting
    at one prime propagates to the whole window on conjugated pairs."""

    def body(failures):
        Z = GroundRing.integers()
        Q = GroundRing.rationals()
        f = (SeriesRing(Z, 8).x() + 1) ** 2 - 1
        for c in (1, 2, 3):
            h = lubin_solve(CommutingProblem(f, f, c))
            expect = (SeriesRing(Q, 8).x() + 1) ** c - 1
            if h != expect:
                failures.append(f"lubin solve with c={c} wrong")
        base = standard_structure("mult", trunc=8)
        for trial in range(10):
            phi = random_unit_series(Z, 8, seed=seed + 100 + trial)
            S2 = conjugate_structure(base, phi)
            rep = hasse_check(base, S2, phi, 2)
            # hasse_check adds no check when a hypothesis fails
            if not rep.checks:
                failures.append(f"hypotheses fail at trial {trial}")
            elif not rep.passed:
                failures.append(f"pass at 2 did not propagate at trial {trial}")

    return _run(7, "Lubin solver and Hasse principle", 60, body)


def suite_8(seed=0):
    """Counit and coassociativity hold for the binomial structure on Z
    and a dual-number structure, at inner truncation 3."""

    def body(failures):
        Z = GroundRing.integers()
        Sb = make_binomial_structure()
        rep = coalgebra_check(Sb, [3, -2], M=3)
        if not rep.passed:
            failures.append("coalgebra laws fail for the binomial structure")
        Sd = make_dual_structure(Z, {2: 2, 3: 3, 5: 5, 7: 7})
        dom = Sd.carrier.domain
        rep = coalgebra_check(Sd, [dom.coerce((0, 1)), dom.coerce((1, 2))], M=3)
        if not rep.passed:
            failures.append("coalgebra laws fail for the dual structure")

    return _run(8, "coalgebra laws", 30, body)


ALL_SUITES = (
    suite_1,
    suite_2,
    suite_3,
    suite_4,
    suite_5,
    suite_6,
    suite_7,
    suite_8,
)


def run_all(seed=0, numbers=None):
    unknown = sorted(set(numbers or ()) - set(range(1, len(ALL_SUITES) + 1)))
    if unknown:
        raise InputError(
            f"unknown suite number(s) {unknown}; suites are 1..{len(ALL_SUITES)}"
        )
    results = []
    for k, suite in enumerate(ALL_SUITES, start=1):
        if numbers and k not in numbers:
            continue
        results.append(suite(seed))
    return results
