"""Symmetric-function engine and the universal polynomials.

The oracles here are deliberately primitive: self-contained term helpers
over exponent tuples (a multiplier, an accumulator, a monomial shift and
Newton's power sums), independent of the library's packed-key kernel,
brute-force expansions of e_n over explicit subsets, the classical
bisymmetric reduction coded independently, the explicit-variable routes
that expand in x_1..x_K and reduce with naive_express, and substitution
of integer roots.  naive_express itself is cross-checked against sympy's
formal symmetrization where sympy is installed.  Two further routes
reach the North-star sizes: dual Jacobi-Trudi determinants expanded
along rows with a memo on the used columns, one expansion per partition
and its conjugate, for P_n; and the conjugacy-class sum of power-sum
products over Fractions for P_(m,n).  The library's partition
recursions must reproduce them all exactly.
"""

import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

import wittlam
from wittlam import sympoly
from wittlam.errors import BoundExceededError, IntegralityError
from wittlam.ground import binom_fraction
from wittlam.sympoly import (GLOBAL_CACHE, MPoly, _add_into, _avars, _bvars,
                             _conjugate, _mul, _newton_e, _partitions,
                             format_terms, parse_poly, universal_P,
                             universal_Pcomp)

# -- independent oracle machinery -------------------------------------------


def naive_add_into(dst, src, scale=1):
    """dst += scale*src over exponent tuples, zeros dropped; returns dst."""
    for e, c in src.items():
        v = dst.get(e, 0) + scale * c
        if v:
            dst[e] = v
        else:
            dst.pop(e, None)
    return dst


def naive_units(nvars):
    """Exponent tuples of 1, e_1, ..., e_nvars over e_1..e_nvars."""
    return [tuple(int(v == k) for v in range(1, nvars + 1))
            for k in range(nvars + 1)]


def naive_shift(a, expo, coeff):
    """a * coeff*x^expo over exponent tuples."""
    return {tuple(x + y for x, y in zip(e, expo)): coeff * c
            for e, c in a.items()}


def naive_power_sums(K):
    """p_1..p_K in a_k = e_k as tuple term dicts by Newton's identities,
    index 0 unused."""
    units = naive_units(K)
    p = [None]
    for k in range(1, K + 1):
        pk = {units[k]: k if k % 2 else -k}
        for r in range(1, k):
            naive_add_into(pk, naive_shift(p[k - r], units[r], 1),
                           1 if r % 2 else -1)
        p.append(pk)
    return p


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def naive_e(k, m):
    """e_k in m variables by direct subset enumeration."""
    out = {}
    for sub in combinations(range(m), k):
        e = [0] * m
        for i in sub:
            e[i] = 1
        out[tuple(e)] = 1
    return out


@lru_cache(maxsize=None)
def naive_eprod(mu, m):
    """prod_i e_i^mu_i in m variables; callers must not mutate the result."""
    prod = {(0,) * m: 1}
    for idx, power in enumerate(mu):
        for _ in range(power):
            prod = naive_mul(prod, naive_e(idx + 1, m))
    return prod


def naive_express(f, m):
    """Classical reduction of a dict symmetric in its first m variables into
    e-exponents; exponents of any later (inert) variables are carried
    through, so a key of the result is the e-exponents and then the inert
    ones.  Each inert slice is reduced alone, and its leading exponent must
    be weakly decreasing at every step: an input that is not symmetric
    fails that assertion, as the reduction only ever subtracts symmetric
    polynomials and so could never reach zero."""
    slices = {}
    for e, c in f.items():
        slices.setdefault(e[m:], {})[e[:m]] = c
    out = {}
    for inert, work in slices.items():
        while work:
            alpha = max(work)
            assert all(alpha[i] >= alpha[i + 1] for i in range(m - 1)), (
                f"leading exponent {alpha} is not dominant: not symmetric")
            c = work[alpha]
            mu = tuple(alpha[i] - (alpha[i + 1] if i + 1 < m else 0)
                       for i in range(m))
            out[mu + inert] = c
            for e2, c2 in naive_eprod(mu, m).items():
                v = work.get(e2, 0) - c * c2
                if v:
                    work[e2] = v
                elif e2 in work:
                    del work[e2]
    return out


def brute_universal_P(n):
    """Expand e_n of the n^2 grid products and reduce both alphabets."""
    nv = 2 * n
    prods = []
    for i in range(n):
        for j in range(n):
            e = [0] * nv
            e[i] += 1
            e[n + j] += 1
            prods.append(tuple(e))
    en = {}
    for sub in combinations(prods, n):
        e = tuple(sum(col) for col in zip(*sub))
        en[e] = en.get(e, 0) + 1
    # bisymmetric reduction: subtract products of x- and y-side e-powers
    work = dict(en)
    out = {}
    while work:
        alpha = max(work)
        c = work[alpha]
        ax, ay = alpha[:n], alpha[n:]
        mux = tuple(ax[i] - (ax[i + 1] if i + 1 < n else 0) for i in range(n))
        muy = tuple(ay[i] - (ay[i + 1] if i + 1 < n else 0) for i in range(n))
        out[mux + muy] = c
        expansion = naive_mul(
            {e + (0,) * n: v for e, v in naive_eprod(mux, n).items()},
            {(0,) * n + e: v for e, v in naive_eprod(muy, n).items()},
        )
        for e2, c2 in expansion.items():
            v = work.get(e2, 0) - c * c2
            if v:
                work[e2] = v
            elif e2 in work:
                del work[e2]
    return out


def brute_universal_Pcomp(m, n):
    """e_m of all n-subset products of x_1..x_{mn}, reduced classically."""
    K = m * n
    subset_prods = []
    for sub in combinations(range(K), n):
        e = [0] * K
        for i in sub:
            e[i] = 1
        subset_prods.append(tuple(e))
    em = {}
    for sub in combinations(subset_prods, m):
        e = tuple(sum(col) for col in zip(*sub))
        em[e] = em.get(e, 0) + 1
    return naive_express(em, K)


def explicit_universal_P(n):
    """Expand e_n of the grid products x_i*y_j over x_1..x_n and b_k = e_k(y),
    then rewrite the x side in a_k = e_k(x) by naive_express, the b's inert.

    The y side is rewritten on the fly by the row identity
    prod_j (1 + x_i y_j t) = sum_k x_i^k b_k t^k.
    """
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    av = tuple(f"a{i}" for i in range(1, n + 1))
    bv = tuple(f"b{i}" for i in range(1, n + 1))
    vs = xs + bv
    levels = [MPoly.one(vs)] + [MPoly.zero(vs)] * n
    for i in range(n):
        row = []
        for k in range(1, n + 1):
            e = [0] * (2 * n)
            e[i] = k
            e[n + k - 1] = 1
            row.append(MPoly(vs, {tuple(e): 1}))
        for m in range(n, 0, -1):
            for k in range(1, m + 1):
                levels[m] = levels[m] + levels[m - k] * row[k - 1]
    return MPoly(av + bv, naive_express(levels[n].terms, n))


def explicit_universal_Pcomp(m, n):
    """Power sums p_i = e_n(x_1^i, ..., x_K^i) of the subset products,
    rewritten in a_k = e_k(x), then Newton's identity for e_m."""
    K = m * n
    av = tuple(f"a{i}" for i in range(1, K + 1))
    base = naive_e(n, K)
    psums = []
    for i in range(1, m + 1):
        powered = {tuple(v * i for v in e): c for e, c in base.items()}
        psums.append(MPoly(av, naive_express(powered, K)))
    E = [MPoly.one(av)]
    for j in range(1, m + 1):
        acc = MPoly.zero(av)
        for i in range(1, j + 1):
            term = E[j - i] * psums[i - 1]
            acc = acc + term if i % 2 else acc - term
        E.append(acc * Fraction(1, j))
    return E[m]


def row_expanded_det(lam, nvars):
    """det(e_{lam_i - i + j}) over e_1..e_nvars, expanded along rows and
    memoised on the set of columns the rows above have used."""
    r = len(lam)
    units = naive_units(nvars)
    memo = {}

    def expand(used, i):
        if i == r:
            return {units[0]: 1}
        got = memo.get(used)
        if got is not None:
            return got
        out = {}
        sign = 1
        for j in range(r):
            if used >> j & 1:
                continue
            k = lam[i] - i + j
            if k >= 0:
                minor = expand(used | 1 << j, i + 1)
                naive_add_into(out, naive_shift(minor, units[k], sign))
            sign = -sign
        memo[used] = out
        return out

    return expand(0, 0)


def row_expanded_universal_P(n):
    """sum_{lam |- n} det(a_{lam'_i-i+j}) * det(b_{lam_i-i+j}), each
    determinant expanded on its own."""
    out = {}
    for lam in _partitions(n):
        b_side = row_expanded_det(lam, n)
        for ea, ca in row_expanded_det(_conjugate(lam), n).items():
            naive_add_into(out, {ea + eb: ca * cb
                                 for eb, cb in b_side.items()})
    return MPoly(_avars(n) + _bvars(n), out)


def class_sum_universal_Pcomp(m, n):
    """p_i[e_n] = sum_{rho |- n} eps_rho z_rho^{-1} prod_j p_{i*rho_j}
    (Macdonald I (2.14') and §8), summed over the conjugacy classes of S_n
    in Fractions, then Newton's identity for e_m of the subset products."""
    K = m * n
    av = _avars(K)
    p = naive_power_sums(K)
    # n!/z_rho is the size of the conjugacy class of cycle type rho
    classes = []
    for rho in _partitions(n):
        z = 1
        for part in set(rho):
            mult = rho.count(part)
            z *= part ** mult * factorial(mult)
        classes.append((rho, (-1) ** (n - len(rho)) * (factorial(n) // z)))
    psums = []
    for i in range(1, m + 1):
        acc = {}
        for rho, size in classes:
            term = {(0,) * K: size}
            for part in rho:
                term = naive_mul(term, p[i * part])
            naive_add_into(acc, term)
        psums.append(MPoly(av, acc) * Fraction(1, factorial(n)))
    E = [MPoly.one(av)]
    for j in range(1, m + 1):
        acc = MPoly.zero(av)
        for i in range(1, j + 1):
            term = E[j - i] * psums[i - 1]
            acc = acc + term if i % 2 else acc - term
        E.append(acc * Fraction(1, j))
    return E[m]


def esym_values(values, top):
    """e_0..e_top of a list of integers, from prod (1 + v t)."""
    e = [1] + [0] * top
    for v in values:
        for k in range(top, 0, -1):
            e[k] += v * e[k - 1]
    return e


# -- the oracle's elementary symmetric polynomials and reduction -------------


def sympy_express(f, m):
    """sympy's formal symmetrization of the term dict f in its first m
    variables, the rest inert: (term dict over s_1..s_m and then the inert
    variables, remainder), comparable with naive_express."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    gens = sympy.symbols(f"x1:{len(next(iter(f))) + 1}")
    expr = sum(c * prod(g ** k for g, k in zip(gens, e)) for e, c in f.items())
    sym, rem, defs = symmetrize(expr, *gens[:m], formal=True)
    poly = sympy.Poly(sym, *[s for s, _ in defs], *gens[m:])
    return {e: int(c) for e, c in poly.as_dict().items()}, rem


P2_IN_2 = {(2, 0): 1, (0, 2): 1}
E2_IN_2 = {(1, 1): 1}
P3_IN_3 = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
# m_(2,1): the six monomials x_i^2 x_j with i != j
M21_IN_3 = {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1,
            (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1}
# symmetric in x1, x2 with t inert
INERT_T = {(2, 0, 1): 1, (0, 2, 1): 1, (1, 1, 0): 5}


def test_elementary_symmetric_small():
    assert naive_e(0, 2) == {(0, 0): 1}
    assert naive_e(1, 2) == {(1, 0): 1, (0, 1): 1}
    assert naive_e(2, 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert naive_e(3, 2) == {}


def test_express_power_sums():
    e12 = ("e1", "e2")
    assert naive_express(P2_IN_2, 2) == parse_poly("e1^2 - 2*e2", e12).terms
    assert naive_express(E2_IN_2, 2) == parse_poly("e2", e12).terms
    e123 = ("e1", "e2", "e3")
    assert naive_express(P3_IN_3, 3) == parse_poly(
        "e1^3 - 3*e1*e2 + 3*e3", e123).terms


def test_express_verified_by_substitution():
    # plugging e_i back into g must reproduce f
    xs = ("x1", "x2", "x3")
    g = MPoly(("e1", "e2", "e3"), naive_express(M21_IN_3, 3))
    values = {f"e{k}": MPoly(xs, naive_e(k, 3)) for k in range(1, 4)}
    assert g.evaluate(values, MPoly.one(xs)) == MPoly(xs, M21_IN_3)


def test_express_with_inert_variables():
    assert naive_express(INERT_T, 2) == parse_poly(
        "e1^2*t - 2*e2*t + 5*e2", ("e1", "e2", "t")).terms


def test_express_rejects_asymmetric():
    with pytest.raises(AssertionError, match="not symmetric"):
        naive_express({(2, 0): 1}, 2)


@pytest.mark.parametrize("f,m", [(P2_IN_2, 2), (E2_IN_2, 2), (P3_IN_3, 3),
                                 (M21_IN_3, 3), (INERT_T, 2)],
                         ids=["p2", "e2", "p3", "m21", "inert_t"])
def test_naive_express_agrees_with_sympy(f, m):
    got, rem = sympy_express(f, m)
    assert rem == 0
    assert naive_express(f, m) == got


def test_sympy_leaves_a_remainder_where_naive_express_rejects():
    _, rem = sympy_express({(2, 0): 1}, 2)
    assert rem != 0


# -- universal polynomials ----------------------------------------------------


def test_universal_P_small_exact():
    assert universal_P(1) == parse_poly("a1*b1", ("a1", "b1"))
    P2 = universal_P(2)
    assert P2 == parse_poly(
        "a1^2*b2 + a2*b1^2 - 2*a2*b2", ("a1", "a2", "b1", "b2")
    )
    # rank-one inputs multiply to rank one: P_2(a1, 0; b1, 0) = 0
    rank_one = ("a1", "b1")
    values = {"a1": MPoly.gen(rank_one, "a1"), "a2": 0,
              "b1": MPoly.gen(rank_one, "b1"), "b2": 0}
    assert P2.evaluate(values, MPoly.one(rank_one)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_universal_P_matches_bruteforce(n):
    expect = brute_universal_P(n)
    got = universal_P(n)
    assert got.terms == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_universal_P_matches_explicit_route(n):
    expect = explicit_universal_P(n)
    got = universal_P(n)
    assert got.vars == expect.vars
    assert got.terms == expect.terms


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(1, 9) for n in range(1, 8 // m + 1)]
)
def test_universal_Pcomp_matches_explicit_route(m, n):
    expect = explicit_universal_Pcomp(m, n)
    got = universal_Pcomp(m, n, bound=8)
    assert got.vars == expect.vars
    assert got.terms == expect.terms


@pytest.mark.parametrize("n", range(1, 13))
def test_universal_P_matches_row_expanded_route(n):
    expect = row_expanded_universal_P(n)
    got = universal_P(n)
    assert got.vars == expect.vars
    assert got.terms == expect.terms


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(1, 17) for n in range(1, 16 // m + 1)]
)
def test_universal_Pcomp_matches_class_sum_route(m, n):
    expect = class_sum_universal_Pcomp(m, n)
    got = universal_Pcomp(m, n, bound=16)
    assert got.vars == expect.vars
    assert got.terms == expect.terms


def test_newton_e_recovers_elementary_and_rejects_inexact_division():
    # packed keys: the constant monomial is 0, and in one variable t the
    # key of t^k is k
    # the power sums of the alphabet {2, 3}: e_1 = 5, e_2 = 6, e_3 = 0
    p = [None] + [{0: 2 ** k + 3 ** k} for k in range(1, 4)]
    assert _newton_e(p, 3) == [{0: 1}, {0: 5}, {0: 6}, {}]
    # p_1 = 1, p_2 = 0 would need e_2 = 1/2
    with pytest.raises(IntegralityError):
        _newton_e([None, {0: 1}, {}], 2)
    # in one variable t: p_1 = t, p_2 = 2t^2 + 1 needs e_2 = -1/2 (2*e_2 = -1)
    with pytest.raises(IntegralityError):
        _newton_e([None, {1: 1}, {2: 2, 0: 1}], 2)


def test_newton_e_integrality_error_names_degree_and_prime():
    # the failing inputs above: 2*e_2 = 1 and 2*e_2 = -t^2 - 1
    for p in ([None, {0: 1}, {}], [None, {1: 1}, {2: 2, 0: 1}]):
        with pytest.raises(IntegralityError) as raised:
            _newton_e(p, 2)
        assert (raised.value.degree, raised.value.prime) == (2, 2)
    # p_1 = p_2 = 1, p_3 = 2 gives 3*e_3 = 1; p_1..p_5 = 0, p_6 = 2 gives
    # 6*e_6 = -2, which 2 divides and 3 does not
    with pytest.raises(IntegralityError) as raised:
        _newton_e([None, {0: 1}, {0: 1}, {0: 2}], 3)
    assert (raised.value.degree, raised.value.prime) == (3, 3)
    with pytest.raises(IntegralityError) as raised:
        _newton_e([None] + [{}] * 5 + [{0: 2}], 6)
    assert (raised.value.degree, raised.value.prime) == (6, 3)


def test_universal_polys_at_integer_roots():
    # a_k = e_k(x), b_k = e_k(y): P_n gives e_n of the n^2 products x_i*y_j
    # and P_(m,n) gives e_m of the C(mn, n) products over n-subsets of x
    rng = random.Random(0)
    pool = (-3, -2, -1, 1, 2, 3)
    for n in range(1, 13):
        x = [rng.choice(pool) for _ in range(n)]
        y = [rng.choice(pool) for _ in range(n)]
        ex, ey = esym_values(x, n), esym_values(y, n)
        vals = {f"a{k}": ex[k] for k in range(1, n + 1)}
        vals.update({f"b{k}": ey[k] for k in range(1, n + 1)})
        lhs = esym_values([u * v for u in x for v in y], n)[n]
        assert universal_P(n).evaluate(vals, 1) == lhs, n
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            x = [rng.choice(pool) for _ in range(m * n)]
            ex = esym_values(x, m * n)
            vals = {f"a{k}": ex[k] for k in range(1, m * n + 1)}
            lhs = esym_values([prod(sub) for sub in combinations(x, n)], m)[m]
            got = universal_Pcomp(m, n, bound=16).evaluate(vals, 1)
            assert got == lhs, (m, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_universal_P_integrality(n):
    assert universal_P(n).is_integral()


def test_universal_Pcomp_identities():
    assert universal_Pcomp(1, 2) == MPoly.gen(("a1", "a2"), "a2")
    assert universal_Pcomp(2, 1) == MPoly.gen(("a1", "a2"), "a2")
    assert universal_Pcomp(1, 6).coeff((0, 0, 0, 0, 0, 1)) == 1


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_universal_Pcomp_matches_bruteforce(m, n):
    got = universal_Pcomp(m, n)
    assert got.terms == brute_universal_Pcomp(m, n)


def test_universal_Pcomp_bound():
    with pytest.raises(BoundExceededError):
        universal_Pcomp(4, 2, bound=6)
    # explicit larger bound allows it
    assert universal_Pcomp(4, 2, bound=8).is_integral()


def test_binomial_ring_evaluation():
    # C(rs, n) = P_n(C(r,.); C(s,.)) and C(C(r,n), m) = P_{m,n}(C(r,.))
    one = Fraction(1)
    for r in range(-3, 4):
        for s in range(-3, 4):
            for n in (2, 3, 4):
                vals = {}
                for k in range(1, n + 1):
                    vals[f"a{k}"] = binom_fraction(r, k)
                    vals[f"b{k}"] = binom_fraction(s, k)
                assert universal_P(n).evaluate(vals, one) == binom_fraction(
                    r * s, n
                )
    for r in range(-3, 4):
        for m, n in ((2, 2), (3, 2), (2, 3)):
            vals = {f"a{k}": binom_fraction(r, k) for k in range(1, m * n + 1)}
            assert universal_Pcomp(m, n).evaluate(vals, one) == binom_fraction(
                binom_fraction(r, n), m
            )


def test_cache_returns_same_object():
    assert universal_P(3) is universal_P(3)
    assert universal_Pcomp(2, 2) is universal_Pcomp(2, 2)


def test_cache_is_thread_safe():
    GLOBAL_CACHE.P.clear()
    results = [None] * 8
    start = threading.Barrier(8)

    def worker(k):
        start.wait()
        results[k] = universal_P(5)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # the first insert wins: every thread returns the memo's one object
    assert all(r is GLOBAL_CACHE.P[5] for r in results)
    assert results[0].terms == row_expanded_universal_P(5).terms


# -- the builders' shared tables ------------------------------------------------

TABLES = ("_DETS", "_PSUMS", "_PLETHYSMS")
NORTH_STAR = [("P", n) for n in range(1, 13)] + [
    ("Pcomp", (m, n)) for m in range(1, 17) for n in range(1, 16 // m + 1)]


@lru_cache(maxsize=None)
def oracle(rung):
    """The term dict of a rung from the row-expanded or class-sum route."""
    kind, index = rung
    if kind == "P":
        return row_expanded_universal_P(index).terms
    return class_sum_universal_Pcomp(*index).terms


def build(rung):
    kind, index = rung
    if kind == "P":
        return universal_P(index)
    return universal_Pcomp(*index, bound=16)


def memo_of(rung):
    kind, index = rung
    return GLOBAL_CACHE.P[index] if kind == "P" else GLOBAL_CACHE.Pcomp[index]


def clear_tables():
    GLOBAL_CACHE.P.clear()
    GLOBAL_CACHE.Pcomp.clear()
    for name in TABLES:
        getattr(sympoly, name).clear()


def test_tables_start_empty_and_fill_one_width():
    # in a fresh interpreter: the import builds nothing, and P_9, whose
    # packing width is 4, adds determinants at width 4 only
    env = dict(os.environ, PYTHONPATH=str(Path(wittlam.__file__).parents[1]))
    code = (
        "import wittlam\n"
        "from wittlam import sympoly\n"
        f"tables = {TABLES!r}\n"
        "print([len(getattr(sympoly, name)) for name in tables])\n"
        "sympoly.universal_P(9)\n"
        "print([sorted(getattr(sympoly, name)) for name in tables])\n"
        "print(len(sympoly._DETS[4]) > 0, sorted(sympoly.GLOBAL_CACHE.P))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (
        0, "[0, 0, 0]\n[[4], [], []]\nTrue [9]\n"), done.stderr


def test_shuffled_builds_from_empty_tables_match_the_oracles():
    clear_tables()
    rungs = list(NORTH_STAR)
    random.Random(30).shuffle(rungs)
    for rung in rungs:
        assert build(rung).terms == oracle(rung), rung


def test_mutating_a_result_leaves_later_builds_unchanged():
    clear_tables()
    rungs = [("P", 9), ("Pcomp", (3, 3)), ("Pcomp", (1, 9)), ("Pcomp", (9, 1))]
    for rung in rungs:
        terms = build(rung).terms
        for e in terms:
            terms[e] += 1
        terms[(7,) * len(e)] = 5
    # drop the results but keep the tables their builds filled
    GLOBAL_CACHE.P.clear()
    GLOBAL_CACHE.Pcomp.clear()
    for rung in rungs + [("P", 8), ("Pcomp", (2, 4)), ("Pcomp", (4, 2))]:
        assert build(rung).terms == oracle(rung), rung


def test_threads_share_the_tables_from_empty():
    rungs = [("P", n) for n in range(6, 13)] + [
        ("Pcomp", (m, n)) for m in range(1, 13) for n in range(1, 12 // m + 1)]
    clear_tables()
    results = [None] * 8
    start = threading.Barrier(8)

    def worker(k):
        order = list(rungs)
        random.Random(k).shuffle(order)
        start.wait()
        results[k] = {rung: build(rung) for rung in order}

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the builds
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        for rung in rungs:
            assert got[rung] is memo_of(rung), rung
            assert got[rung].terms == oracle(rung), rung


def test_conjugate_matches_the_column_count():
    for n in range(1, 17):
        for lam in _partitions(n):
            columns = tuple(sum(1 for part in lam if part > j)
                            for j in range(lam[0]))
            assert _conjugate(lam) == columns, lam
            assert _conjugate(columns) == lam


def test_integral_constructor_rejects_non_integer_coefficient():
    terms = {(1, 0): 2, (0, 1): -1}
    poly = MPoly._integral(("a1", "a2"), terms, "P_9")
    assert poly.terms is terms and poly == MPoly(("a1", "a2"), terms)
    with pytest.raises(IntegralityError, match="P_9 has a non-integer"):
        MPoly._integral(("a1",), {(1,): Fraction(1, 2)}, "P_9")


# -- MPoly basics ---------------------------------------------------------------


def test_zero_coefficients_are_dropped():
    a = {(1,): 1}
    b = {(0,): 1, (1,): -1}
    # (x) * (1 - x) then add x^2 back in: the x^2 slot must vanish, not store 0
    prod = _mul(a, b)
    assert prod == {(1,): 1, (2,): -1}
    _add_into(prod, {(2,): 1})
    assert prod == {(1,): 1}


def test_mpoly_arith():
    vs = ("x", "y")
    x = MPoly.gen(vs, "x")
    y = MPoly.gen(vs, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert (x * Fraction(1, 2)) * 2 == x


def test_mpoly_fraction_scaling_and_integrality():
    vs = ("x",)
    f = MPoly(vs, {(2,): 4, (0,): 2})
    assert f * Fraction(1, 2) == MPoly(vs, {(2,): 2, (0,): 1})
    assert (f * Fraction(1, 2)).is_integral()
    assert not (f * Fraction(1, 3)).is_integral()


def test_mpoly_text_forms():
    vs = ("a1", "a2", "b1")
    f = parse_poly("2*a1^2*b1 - a2 + 5", vs)
    assert f.terms == {(2, 0, 1): 2, (0, 1, 0): -1, (0, 0, 0): 5}
    assert parse_poly(format_terms(f.terms, vs), vs) == f
    assert str(MPoly.zero(vs)) == "0"


def test_mpoly_evaluate_partial_and_full():
    vs = ("x", "y")
    f = parse_poly("x^2*y + 3*x", vs)
    assert f.evaluate({"x": Fraction(2), "y": Fraction(5)}, Fraction(1)) == 26
    g = f.evaluate({"x": MPoly.gen(("x",), "x"), "y": 1}, MPoly.one(("x",)))
    assert g == parse_poly("x^2 + 3*x", ("x",))


def test_mpoly_evaluate_integer_path_matches_generic_path():
    # integral values (ints or Fractions with denominator 1) run in ints;
    # the result is `one * <int>`, so its type follows `one`
    rng = random.Random(3)
    vs = ("x", "y", "z")
    for _ in range(20):
        terms = {tuple(rng.randrange(4) for _ in vs): rng.randint(-5, 5)
                 for _ in range(8)}
        f = MPoly(vs, terms)
        point = [rng.randint(-4, 4) for _ in vs]
        expect = sum(c * prod(v ** k for v, k in zip(point, e))
                     for e, c in f.terms.items())
        as_fractions = dict(zip(vs, map(Fraction, point)))
        got = f.evaluate(as_fractions, Fraction(1))
        assert got == expect and isinstance(got, Fraction)
        got = f.evaluate(dict(zip(vs, point)), 1)
        assert got == expect and type(got) is int
        # one non-integral value takes the generic path, still exact
        half = dict(as_fractions, x=Fraction(point[0] * 2 + 1, 2))
        expect_half = sum(c * half["x"] ** e[0] * point[1] ** e[1]
                          * point[2] ** e[2] for e, c in f.terms.items())
        assert f.evaluate(half, Fraction(1)) == expect_half
    assert MPoly.zero(vs).evaluate(dict.fromkeys(vs, 2), Fraction(1)) == 0
    assert MPoly.const((), 7).evaluate({}, 1) == 7
