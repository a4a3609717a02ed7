"""Symmetric-function engine and the universal polynomials.

The oracles here are deliberately primitive: a self-contained dict-based
polynomial multiplier (independent of the library's term helpers),
brute-force expansions of e_n over explicit subsets, the classical
bisymmetric reduction coded independently, the explicit-variable routes
that expand in x_1..x_K and reduce with express_in_elementary, and
substitution of integer roots.  The library's partition-indexed routes
must reproduce them exactly.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from wittlam.errors import BoundExceededError, SymmetryError
from wittlam.ground import binom_fraction
from wittlam.sympoly import (MPoly, _add_into, _mul, elementary_symmetric,
                             express_in_elementary, format_terms, is_symmetric,
                             parse_poly, universal_P, universal_Pcomp)

# -- independent oracle machinery -------------------------------------------


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


def naive_eprod(mu, m):
    prod = {(0,) * m: 1}
    for idx, power in enumerate(mu):
        for _ in range(power):
            prod = naive_mul(prod, naive_e(idx + 1, m))
    return prod


def naive_express(f, m):
    """Classical reduction of a symmetric dict into e-exponents."""
    work = dict(f)
    out = {}
    while work:
        alpha = max(work)
        c = work[alpha]
        mu = tuple(alpha[i] - (alpha[i + 1] if i + 1 < m else 0) for i in range(m))
        out[mu] = c
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
    then rewrite the x side in a_k = e_k(x).

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
    g = express_in_elementary(levels[n], sym_vars=xs, e_names=av)
    return g.reorder(av + bv)


def explicit_universal_Pcomp(m, n):
    """Power sums p_i = e_n(x_1^i, ..., x_K^i) of the subset products,
    rewritten in a_k = e_k(x), then Newton's identity for e_m."""
    K = m * n
    xs = tuple(f"x{i}" for i in range(1, K + 1))
    av = tuple(f"a{i}" for i in range(1, K + 1))
    base = elementary_symmetric(n, xs).terms
    psums = []
    for i in range(1, m + 1):
        powered = {tuple(v * i for v in e): c for e, c in base.items()}
        psums.append(express_in_elementary(MPoly(xs, powered), e_names=av))
    E = [MPoly.one(av)]
    for j in range(1, m + 1):
        acc = MPoly.zero(av)
        for i in range(1, j + 1):
            term = E[j - i] * psums[i - 1]
            acc = acc + term if i % 2 else acc - term
        E.append(acc.scalar_div(j))
    return E[m]


def esym_values(values, top):
    """e_0..e_top of a list of integers, from prod (1 + v t)."""
    e = [1] + [0] * top
    for v in values:
        for k in range(top, 0, -1):
            e[k] += v * e[k - 1]
    return e


# -- elementary symmetric and the reduction ----------------------------------


def test_elementary_symmetric_small():
    e0 = elementary_symmetric(0, ("x1", "x2"))
    assert e0 == MPoly.one(("x1", "x2"))
    e1 = elementary_symmetric(1, ("x1", "x2"))
    assert e1.terms == {(1, 0): 1, (0, 1): 1}
    e2 = elementary_symmetric(2, ("x1", "x2", "x3"))
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    with pytest.raises(ValueError):
        elementary_symmetric(3, ("x1", "x2"))


def test_express_power_sums():
    xs = ("x1", "x2")
    f = MPoly(xs, {(2, 0): 1, (0, 2): 1})
    g = express_in_elementary(f)
    assert g == parse_poly("e1^2 - 2*e2", g.vars)

    f = MPoly(xs, {(1, 1): 1})
    assert express_in_elementary(f) == parse_poly("e2", ("e1", "e2"))

    xs3 = ("x1", "x2", "x3")
    f = MPoly(xs3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    g = express_in_elementary(f)
    assert g == parse_poly("e1^3 - 3*e1*e2 + 3*e3", g.vars)


def test_express_verified_by_substitution():
    # plugging e_i back into g must reproduce f
    xs = ("x1", "x2", "x3")
    f = MPoly(xs, {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1,
                   (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1})
    g = express_in_elementary(f)
    values = {f"e{k}": elementary_symmetric(k, xs) for k in range(1, 4)}
    assert g.evaluate(values, MPoly.one(xs)) == f


def test_express_with_inert_variables():
    # symmetric in x1,x2 with t inert
    vs = ("x1", "x2", "t")
    f = MPoly(vs, {(2, 0, 1): 1, (0, 2, 1): 1, (1, 1, 0): 5})
    g = express_in_elementary(f, sym_vars=("x1", "x2"))
    assert g == parse_poly("e1^2*t - 2*e2*t + 5*e2", ("e1", "e2", "t"))


def test_express_rejects_asymmetric():
    f = MPoly(("x1", "x2"), {(2, 0): 1})
    assert not is_symmetric(f)
    with pytest.raises(SymmetryError):
        express_in_elementary(f)


@pytest.mark.parametrize("k,index", [(16, 1), (20, 5)])
def test_is_symmetric_is_complete_above_eight_variables(k, index):
    xs = tuple(f"x{i}" for i in range(1, k + 1))
    assert not is_symmetric(MPoly.gen(xs, xs[index]))
    assert is_symmetric(elementary_symmetric(2, xs))


# -- universal polynomials ----------------------------------------------------


def test_universal_P_small_exact():
    assert universal_P(1) == parse_poly("a1*b1", ("a1", "b1"))
    P2 = universal_P(2)
    assert P2 == parse_poly(
        "a1^2*b2 + a2*b1^2 - 2*a2*b2", ("a1", "a2", "b1", "b2")
    )
    # rank-one inputs multiply to rank one: P_2(a1, 0; b1, 0) = 0
    assert P2.set_vars({"a2": 0, "b2": 0}).is_zero()


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
    import threading

    from wittlam.sympoly import UniversalPolyCache

    cache = UniversalPolyCache()
    results = [None] * 8

    def worker(k):
        results[k] = universal_P(5, cache=cache)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == universal_P(5) for r in results)
    # idempotent inserts: everyone ends up with the cached object
    assert all(r is cache.get_P(5) for r in results)


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


def test_mpoly_scalar_div_and_integrality():
    vs = ("x",)
    f = MPoly(vs, {(2,): 4, (0,): 2})
    assert f.scalar_div(2) == MPoly(vs, {(2,): 2, (0,): 1})
    assert f.scalar_div(2).is_integral()
    assert not f.scalar_div(3).is_integral()


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
    g = f.set_vars({"y": 1})
    assert g == parse_poly("x^2 + 3*x", ("x",))
