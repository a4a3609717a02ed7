"""The co-representing correspondence: generators, relations, round trips."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlam.errors import (ExactDivisionError, InputError, MembershipError,
                            RelationViolationError, UnsupportedRingError)
from wittlam.ground import GroundRing
from wittlam.lubin import conjugate_structure, random_unit_series
from wittlam.series import SeriesRing
from wittlam.structures import (Carrier, LambdaStructure, standard_structure,
                                validate)
from wittlam.universal import (GeneratorIndex, HomAssignment,
                               hom_from_structure, relation_V, relation_w,
                               roundtrip_check, structure_from_hom,
                               universal_adams)

Z = GroundRing.integers()


def eager_assignment_oracle(target, depth0, primes, trunc, depth):
    """Every window value by the eager tree: depth 0, then each frontier
    key extended by each prime, then every tail value checked again
    against its parent.  Returns {GeneratorIndex: element}."""
    values = {}
    for p in primes:
        for i in range(1, trunc + 1):
            values[GeneratorIndex(p, i)] = target.coerce(depth0.get((p, i), 0))
    frontier = list(values)
    for _ in range(depth):
        nxt = []
        for key in frontier:
            for q in primes:
                child = GeneratorIndex(key.p, key.i, key.tail + (q,))
                values[child] = target.div_int(values[key] ** q - values[key], q)
                nxt.append(child)
        frontier = nxt
    for key, val in values.items():
        assert val.ring == target
        if key.tail:
            parent = values[GeneratorIndex(key.p, key.i, key.tail[:-1])]
            q = key.tail[-1]
            assert target.div_int(parent ** q - parent, q) == val
    return values


def eager_json_oracle(target, primes, trunc, depth, values):
    return {
        "target": target.to_json(),
        "primes": list(primes),
        "N": trunc,
        "depth": depth,
        "values": [
            {"p": key.p, "i": key.i, "tail": list(key.tail),
             "value": target.format_payload(values[key].payload)}
            for key in sorted(values)
        ],
    }


def test_universal_adams_all_zero_gives_power():
    h = HomAssignment.from_depth0(Z, {}, primes=(2, 3), trunc=6, depth=1)
    psi2 = universal_adams(2, h)
    assert psi2 == SeriesRing(Z, 6).coerce([0, 0, 1])
    psi3 = universal_adams(3, h)
    assert psi3 == SeriesRing(Z, 6).coerce([0, 0, 0, 1])


def test_universal_adams_example():
    h = HomAssignment.from_depth0(Z, {(2, 1): 1}, primes=(2,), trunc=4, depth=0)
    assert universal_adams(2, h) == SeriesRing(Z, 4).coerce([0, 2, 1, 0, 0])


def test_universal_adams_symbolic():
    psi = universal_adams(2, HomAssignment.generic((2,), 3))
    assert psi.ring == GroundRing.rational_poly(("v_2_1", "v_2_2", "v_2_3"))
    assert psi.trunc == 3 and psi[0].is_zero()
    assert psi[1] == psi.ring.coerce("2*v_2_1")
    assert psi[2] == psi.ring.coerce("1 + 2*v_2_2")
    assert psi[3] == psi.ring.coerce("2*v_2_3")


def test_relation_w_zero_cases():
    h0 = HomAssignment.from_depth0(Z, {}, primes=(2, 3), trunc=6, depth=0)
    assert all(v.is_zero() for v in relation_w(2, 3, h0))
    S = standard_structure("mult", trunc=8)
    h = hom_from_structure(S)
    for p, q in ((2, 3), (2, 5), (3, 7), (5, 7)):
        assert all(v.is_zero() for v in relation_w(p, q, h))
    with pytest.raises(ValueError):
        relation_w(2, 2, h0)


def test_relation_w_nonzero():
    # v_(2,2) = 1 makes psi^2 = 3x^2, which does not commute with psi^3 = x^3
    h = HomAssignment.from_depth0(
        Z, {(2, 2): 1}, primes=(2, 3), trunc=6, depth=0
    )
    ws = relation_w(2, 3, h)
    # 3(x^3)^2 - (3x^2)^3 = 3x^6 - 27x^6 = -24x^6
    assert [v.payload for v in ws] == [0, 0, 0, 0, 0, -24]


def test_generic_relation_w_evaluates_to_relation_w():
    # composition over Q[v] then evaluation, against composition over Z
    generic = relation_w(2, 3, HomAssignment.generic((2, 3), 5))
    rng = random.Random(0)
    for _ in range(4):
        depth0 = {(p, i): rng.randint(-3, 3) for p in (2, 3)
                  for i in range(1, 6)}
        h = HomAssignment.from_depth0(Z, depth0, primes=(2, 3), trunc=5,
                                      depth=0)
        values = {f"v_{p}_{i}": v for (p, i), v in depth0.items()}
        ws = relation_w(2, 3, h)
        assert any(not w.is_zero() for w in ws)
        assert [w.payload.evaluate(values, Z.one()) for w in generic] == ws


def test_relation_V_examples():
    h = HomAssignment.from_depth0(Z, {(2, 1): 1}, primes=(2, 3), trunc=2, depth=2)
    idx = GeneratorIndex(2, 1)
    assert relation_V(idx, 3, h).is_zero()  # 1^3 - 1 - 3*0 = 0
    assert relation_V(GeneratorIndex(2, 2), 3, h).is_zero()
    # v = 2, q = 2: v' = (4 - 2)/2 = 1 and the relation vanishes
    h2 = HomAssignment.from_depth0(Z, {(2, 1): 2}, primes=(2,), trunc=1, depth=1)
    assert h2.get(2, 1, (2,)) == 1
    assert relation_V(GeneratorIndex(2, 1), 2, h2).is_zero()


def test_hom_from_structure_mult():
    S = standard_structure("mult", trunc=8)
    h = hom_from_structure(S)
    assert h.get(2, 1) == 1
    assert h.get(2, 2) == 0
    assert all(h.get(2, i) == 0 for i in range(3, 9))
    assert h.get(3, 1) == 1 and h.get(3, 2) == 1 and h.get(3, 3) == 0
    assert h.get(2, 1, (3,)) == 0  # (1^3 - 1)/3


def test_hom_from_structure_power():
    S = standard_structure("power", trunc=8)
    h = hom_from_structure(S)
    assert all(
        h.get(p, i) == 0 for p in (2, 3, 5, 7) for i in range(1, 9)
    )


def test_hom_requires_admissible_carrier():
    from wittlam.structures import make_dual_structure

    with pytest.raises(UnsupportedRingError):
        hom_from_structure(make_dual_structure(Z, {2: 2}))


def test_hom_rejects_congruence_violation():
    carrier = Carrier.power_series(Z, 4)
    x = carrier.domain.x()
    from wittlam.structures import make_series_structure

    bad = make_series_structure(carrier, {2: x, 3: x})
    with pytest.raises(MembershipError):
        hom_from_structure(bad)


def test_hom_reports_only_inexact_division(monkeypatch):
    def broken(self, elem, n):
        raise ZeroDivisionError("division bug in the ring")

    monkeypatch.setattr(GroundRing, "div_int", broken)
    # not turned into a verdict on the structure
    with pytest.raises(ZeroDivisionError):
        hom_from_structure(standard_structure("mult", trunc=4))


def test_structure_from_hom_zero_and_roundtrips():
    h0 = HomAssignment.from_depth0(
        Z, {}, primes=(2, 3, 5, 7), trunc=8, depth=2
    )
    S = structure_from_hom(h0)
    assert S == standard_structure("power", trunc=8)
    for kind in ("power", "mult"):
        S = standard_structure(kind, trunc=8)
        assert roundtrip_check(S)


def test_structure_from_hom_rejects_noncommuting():
    h = HomAssignment.from_depth0(
        Z, {(2, 2): 1}, primes=(2, 3), trunc=6, depth=1
    )
    with pytest.raises(RelationViolationError,
                       match=r"FAIL  psi\^2 and psi\^3 commute"):
        structure_from_hom(h)
    # the congruence holds, so only the way back to a structure rejects it
    adams = {p: universal_adams(p, h) for p in h.primes}
    S = LambdaStructure(Carrier.power_series(Z, 6), h.primes, adams, check=False)
    assert hom_from_structure(S, depth=1) == h
    with pytest.raises(RelationViolationError,
                       match=r"FAIL  psi\^2 and psi\^3 commute"):
        roundtrip_check(S)


def test_injectivity_witness():
    h_mult = hom_from_structure(standard_structure("mult", trunc=8))
    h_pow = hom_from_structure(standard_structure("power", trunc=8))
    assert h_mult.get(2, 1) != h_pow.get(2, 1)
    assert h_mult != h_pow


def test_roundtrip_on_conjugates():
    base = standard_structure("mult", trunc=8)
    for seed in (1, 2, 3):
        phi = random_unit_series(Z, 8, seed=seed)
        S = conjugate_structure(base, phi)
        assert validate(S).passed
        assert roundtrip_check(S)


def test_fermat_quotient_closure():
    S = standard_structure("mult", trunc=8)
    h = hom_from_structure(S)
    # (u^q - u)/q stays in Z for every assigned value and window prime
    for key, val in h.values.items():
        for q in h.primes:
            quotient = Z.div_int(val ** q - val, q)
            assert quotient.payload.denominator == 1


def test_assignment_json_roundtrip():
    S = standard_structure("mult", trunc=6, primes=(2, 3))
    h = hom_from_structure(S, depth=1)
    data = h.to_json()
    again = HomAssignment.from_json(data)
    assert again == h
    assert again.to_json() == data


def test_assignment_recursion_enforced():
    S = standard_structure("mult", trunc=4, primes=(2,))
    h = hom_from_structure(S, depth=1)
    data = h.to_json()
    for item in data["values"]:
        if item["tail"]:
            item["value"] = "99"
    with pytest.raises(ValueError):
        HomAssignment.from_json(data)


def test_pushforward_over_localization():
    # the correspondence also runs over Q (all primes inverted)
    Q = GroundRing.rationals()
    carrier = Carrier.power_series(Q, 6)
    from wittlam.structures import make_family_structure

    S = make_family_structure(carrier, {p: 5 for p in (2, 3, 5, 7)})
    h = hom_from_structure(S)
    assert h.get(2, 1) == Fraction(5, 2)
    assert roundtrip_check(S)


def test_correspondence_over_p_local_integers():
    # Z_(5): primes 2, 3, 7 are inverted, 5 is not
    R = GroundRing.p_local(5)
    S = standard_structure("mult", ring=R, trunc=8)
    assert validate(S).passed
    h = hom_from_structure(S)
    assert h.target == R
    assert roundtrip_check(S)
    # tail values may use inverted denominators but must stay in R
    for val in h.values.values():
        assert R.contains_payload(val.payload)


@pytest.mark.parametrize("N", [8, 12])
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("ring", [
    Z, GroundRing.localized([2]), GroundRing.p_local(5), GroundRing.rationals(),
], ids=str)
def test_derived_window_equals_eager_oracle(ring, depth, N):
    phi = random_unit_series(ring, N, seed=100 * N + 10 * depth + len(str(ring)))
    S = conjugate_structure(standard_structure("mult", ring=ring, trunc=N), phi)
    h = hom_from_structure(S, depth)
    depth0 = {}
    for p in S.primes:
        psi = S.adams_series(p)
        for i in range(1, N + 1):
            r = psi[i] - 1 if i == p else psi[i]
            depth0[(p, i)] = ring.div_int(r, p)
    oracle = eager_assignment_oracle(ring, depth0, S.primes, N, depth)
    assert len(oracle) == len(S.primes) * N * sum(
        len(S.primes) ** k for k in range(depth + 1))
    for key, val in oracle.items():
        assert h.get(key.p, key.i, key.tail) == val
    assert h.values == oracle
    assert list(h.values) == list(oracle)
    assert h.to_json() == eager_json_oracle(ring, S.primes, N, depth, oracle)


def test_get_outside_window():
    h = HomAssignment.from_depth0(Z, {(2, 1): 3}, primes=(2, 3), trunc=4,
                                  depth=1)
    assert h.get(2, 1, (3,)) == 8  # (27 - 3)/3
    for key in ((5, 1, ()), (2, 5, ()), (2, 1, (5,)), (2, 1, (2, 2))):
        with pytest.raises(KeyError):
            h.get(*key)


def test_window_parameters_checked():
    S = standard_structure("mult", trunc=4, primes=(2,))
    with pytest.raises(InputError, match="depth"):
        hom_from_structure(S, depth=-1)
    with pytest.raises(InputError, match="N must be"):
        HomAssignment.from_depth0(Z, {}, primes=(2,), trunc=0, depth=0)
    with pytest.raises(InputError, match="not a prime"):
        HomAssignment.from_depth0(Z, {}, primes=(2, 4), trunc=2, depth=0)
    with pytest.raises(InputError, match="repeat"):
        HomAssignment(Z, (2, 2), 1, 0, {(2, 1): Z.zero()})
    with pytest.raises(InputError, match=r"window primes \[2, 2\] repeat"):
        HomAssignment.generic((2, 2), 1)


def test_missing_fermat_quotient_rejected_at_construction():
    # over dual(Z), (eps^2 - eps)/2 = -eps/2 is not in the ring
    D = GroundRing.dual(Z)
    h = HomAssignment.from_depth0(D, {(2, 1): (0, 1)}, primes=(2,), trunc=1,
                                  depth=0)
    assert h.get(2, 1) == D.coerce((0, 1))
    with pytest.raises(ExactDivisionError):
        HomAssignment.from_depth0(D, {(2, 1): (0, 1)}, primes=(2,), trunc=1,
                                  depth=1)


_RINGS = {"Z": (Z, [1]), "Z[1/2]": (GroundRing.localized([2]), [1, 2, 8]),
          "Q": (GroundRing.rationals(), [1, 2, 3, 5, 9])}


@st.composite
def _assignments(draw):
    ring, dens = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1,
                           max_size=3, unique=True))
    trunc = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 2))
    depth0 = {
        (p, i): Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(dens)))
        for p in primes for i in range(1, trunc + 1)
    }
    return HomAssignment.from_depth0(ring, depth0, primes, trunc, depth)


@settings(max_examples=60, deadline=None, database=None)
@given(_assignments())
def test_assignment_json_roundtrip_property(h):
    text = json.dumps(h.to_json(), indent=2, sort_keys=True)
    again = HomAssignment.from_json(json.loads(text))
    assert again == h
    assert json.dumps(again.to_json(), indent=2, sort_keys=True) == text
