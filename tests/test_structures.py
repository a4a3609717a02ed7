"""Structures: validation, Adams application, the Newton lift, axioms."""

import random
from fractions import Fraction

import pytest

from wittlam.errors import (InputError, IntegralityError, PrimeWindowError,
                            RingMismatchError, UnsupportedRingError,
                            WilkersonError)
from wittlam.ground import GroundRing, binom_fraction
from wittlam.lambda_witt import coalgebra_check
from wittlam.series import SeriesRing
from wittlam.structures import (DUAL_NUMBERS, GROUND, TRUNC_POLY, Carrier,
                                LambdaStructure, adams_apply,
                                axiom_check, default_samples, dual_iso_test,
                                lambda_values, make_binomial_structure,
                                make_dual_structure, make_family_structure,
                                make_series_structure, standard_structure,
                                validate, window_depth)

Z = GroundRing.integers()
Q = GroundRing.rationals()


def test_validate_multiplicative_structure():
    S = standard_structure("mult", trunc=8, primes=(2, 3, 5))
    report = validate(S)
    assert report.passed
    names = [name for name, _, _ in report.checks]
    assert any("commute" in n for n in names)
    assert any("frobenius" in n for n in names)


def test_validate_over_p_local_ground():
    # over Z_(3) the p = 2 congruence is vacuous (2 is inverted) while
    # p = 3 is a real condition; both must come out true for (1+x)^p - 1
    R = GroundRing.p_local(3)
    S = standard_structure("mult", ring=R, trunc=6, primes=(2, 3))
    assert validate(S).passed
    # and a structure that only breaks the non-inverted prime is caught
    carrier = Carrier.power_series(R, 6)
    x = carrier.domain.x()
    bad = make_series_structure(carrier, {2: x * 9, 3: x * 9})
    report = validate(bad)
    by_name = {name: ok for name, ok, _ in report.checks}
    assert by_name["frobenius psi^2 == x^2 mod 2"]  # vacuous: 2 inverted
    assert not by_name["frobenius psi^3 == x^3 mod 3"]  # 9x != x^3 mod 3


def test_validate_identity_adams_fails_frobenius():
    carrier = Carrier.power_series(Z, 8)
    x = carrier.domain.x()
    S = make_series_structure(carrier, {2: x}, primes=(2,))
    report = validate(S)
    assert not report.passed  # x is not congruent to x^2 mod 2


def test_validate_dual_divisibility_failure():
    carrier = Carrier.dual_numbers(Z)
    S = LambdaStructure(carrier, (2,), {2: 3}, check=False)
    report = validate(S)
    assert not report.passed
    with pytest.raises(WilkersonError):
        LambdaStructure(carrier, (2,), {2: 3})  # checked constructor rejects


def test_adams_apply_dual():
    S = make_dual_structure(Z, {2: 6, 3: 6})
    r = S.carrier.domain.coerce((5, 1))
    out = adams_apply(S, 6, r)
    assert out == S.carrier.domain.coerce((5, 36))
    assert adams_apply(S, 1, r) == r
    with pytest.raises(PrimeWindowError):
        adams_apply(S, 5, r)


def test_adams_apply_series():
    S = standard_structure("mult", trunc=8)
    x = S.carrier.domain.x()
    one = S.carrier.domain.one()
    assert adams_apply(S, 4, x) == (x + one) ** 4 - one
    assert adams_apply(S, 6, x) == (x + one) ** 6 - one
    # psi^m psi^n = psi^{mn} on samples
    r = x + x * x
    lhs = adams_apply(S, 2, adams_apply(S, 3, r))
    assert lhs == adams_apply(S, 6, r)


def test_newton_lambda_binomial_values():
    S = make_binomial_structure()
    assert lambda_values(S, 2, Z.from_int(5))[2] == 10
    assert lambda_values(S, 3, Z.from_int(4))[3] == 4
    assert lambda_values(S, 1, Z.from_int(-7))[1] == -7
    for m in range(-10, 11):
        for n in range(7):
            got = lambda_values(S, n, Z.from_int(m))[n]
            expect = binom_fraction(m, n)
            assert got.payload == expect, (m, n)


def test_newton_lambda_wilkerson_failure():
    carrier = Carrier.power_series(Z, 6)
    x = carrier.domain.x()
    S = make_series_structure(carrier, {p: x for p in (2, 3, 5)})
    # psi = id on Z[[x]] is not a lambda-ring datum: lambda^2(x) = (x - x^2)/2
    with pytest.raises(WilkersonError):
        lambda_values(S, 2, x)


def test_newton_lift_stops_at_its_first_failed_division():
    carrier = Carrier.power_series(Z, 6)
    x = carrier.domain.x()
    S = make_series_structure(carrier, {p: x for p in (2, 3)})
    # lambda^2(x) = (x - x^2)/2 fails, so psi^5, outside the window, is never needed
    with pytest.raises(WilkersonError) as info:
        lambda_values(S, 5, x)
    assert str(info.value) == (
        "not a lambda-ring under these Adams data: lambda^2(0,1,0,0,0,0,0) "
        "needs division by 2: -1 is not divisible by 2 in Z")
    cause = info.value.__cause__
    assert isinstance(cause, IntegralityError) and cause.degree == 2
    D = make_dual_structure(Z, {2: 2, 3: 3})
    with pytest.raises(PrimeWindowError):  # every division holds, so psi^5 is reached
        lambda_values(D, 5, D.carrier.x())


def test_newton_lambda_on_dual():
    S = make_dual_structure(Z, {2: 2, 3: 3})
    eps = S.carrier.x()
    # lambda^2(eps) = -(psi^2(eps) - eps*eps)/2 = -(2 eps)/2 = -eps
    assert lambda_values(S, 2, eps)[2] == S.carrier.domain.coerce((0, -1))


def test_axiom_check_binomial():
    S = make_binomial_structure()
    report = axiom_check(S, nmax=4, bound=6)
    assert report.passed
    # the Vandermonde instance from r=2, s=3, n=3 is among the checks
    lsum = S.lambda_values(3, Z.from_int(5))
    assert lsum[3].payload == 10


def test_axiom_check_multiplicative_series():
    S = standard_structure("mult", trunc=6, primes=(2, 3, 5))
    report = axiom_check(S, nmax=3, bound=4)
    assert report.passed, [name for name, ok, _ in report.checks if not ok]


def test_axiom_check_family():
    carrier = Carrier.trunc_poly(Q, 3)
    S = make_family_structure(carrier, {2: 5, 3: 7})
    assert validate(S).passed
    report = axiom_check(S, nmax=3, bound=4)
    assert report.passed


def test_filtration_closure_reported():
    S = standard_structure("mult", trunc=6, primes=(2, 3, 5))
    report = axiom_check(S, nmax=3, bound=2)
    assert any("filtration closure" in name for name, _, _ in report.checks)


def test_make_dual_structure():
    S = make_dual_structure(Z, {2: 2, 3: 3})
    assert validate(S).passed
    S0 = make_dual_structure(Z, {2: 0, 3: 0, 5: 0, 7: 0})
    assert validate(S0).passed
    SQ = make_dual_structure(Q, {2: Fraction(1, 3)})
    assert validate(SQ).passed
    with pytest.raises(WilkersonError):
        make_dual_structure(Z, {2: 3})


def test_dual_iso():
    a = make_dual_structure(Z, {2: 2, 3: 3})
    b = make_dual_structure(Z, {2: 2, 3: 3})
    c = make_dual_structure(Z, {2: 4, 3: 3})
    assert dual_iso_test(a, b)
    assert not dual_iso_test(a, c)
    z1 = make_dual_structure(Z, {2: 0, 3: 0})
    z2 = make_dual_structure(Z, {2: 0, 3: 0})
    assert dual_iso_test(z1, z2)
    with pytest.raises(RingMismatchError):
        dual_iso_test(a, make_dual_structure(Q, {2: 2, 3: 3}))
    with pytest.raises(RingMismatchError):
        dual_iso_test(a, make_dual_structure(Z, {2: 2, 3: 3, 5: 5}))


def test_make_family_structure():
    S = make_family_structure(Carrier.power_series(Q, 8), {2: Fraction(1, 2)})
    assert validate(S).passed
    Sid = make_family_structure(
        Carrier.trunc_poly(Q, 3), {p: 1 for p in (2, 3, 5, 7)}
    )
    assert validate(Sid).passed
    with pytest.raises(UnsupportedRingError):
        make_family_structure(Carrier.power_series(Z, 4), {2: 1})
    with pytest.raises(ValueError):
        make_family_structure(Carrier.power_series(Q, 4), {2: 0})


def test_family_members_differ():
    QY = GroundRing.rational_poly(("y",))
    carrier = Carrier.power_series(QY, 4)
    S1 = make_family_structure(carrier, {2: 5, 3: 7})
    S2 = make_family_structure(carrier, {2: 6, 3: 7})
    assert S1 != S2
    assert S1.adams_series(2).linear_coeff() == QY.from_int(5)


def test_coalgebra_check_examples():
    Sb = make_binomial_structure()
    rep = coalgebra_check(Sb, [3], M=3)
    assert rep.passed
    Sd = make_dual_structure(Z, {2: 2, 3: 6})
    rep = coalgebra_check(Sd, [Sd.carrier.x()], M=2)
    assert rep.passed


def test_coalgebra_counit_is_lambda1():
    S = make_binomial_structure()
    rep = coalgebra_check(S, [4], M=2)
    assert any("counit" in name and ok for name, ok, _ in rep.checks)


def test_coalgebra_check_without_samples_is_not_a_pass():
    rep = coalgebra_check(make_binomial_structure(), [], M=3)
    assert rep.checks == []
    assert not rep.passed


def test_structure_json_roundtrip():
    for S in (
        standard_structure("mult", trunc=6, primes=(2, 3)),
        make_dual_structure(Z, {2: 2, 3: 3}),
        make_binomial_structure(),
        make_family_structure(Carrier.trunc_poly(Q, 4), {2: 5, 3: 7}),
    ):
        data = S.to_json()
        again = LambdaStructure.from_json(data)
        assert again == S
        assert again.to_json() == data


def test_default_samples_shapes():
    assert len(default_samples(Carrier.ground(Z))) == 3
    assert len(default_samples(Carrier.dual_numbers(Z))) == 3
    assert len(default_samples(Carrier.power_series(Z, 5))) == 3


def _payloads(values):
    return [v.payload for v in values]


def _frobenius_flags(report):
    """The Frobenius verdicts of a validate report, one per window prime."""
    return [ok for name, ok, _ in report.checks if "frobenius" in name]


def test_dual_numbers_agree_with_the_degree_two_truncation():
    # R[eps] is R[x]/x^2: psi^p = a_p x must act, lift and validate alike,
    # also for multipliers that are not p-divisible (unchecked candidates)
    rng = random.Random(17)
    for ring in (Z, GroundRing.localized([2]), Q):
        for _ in range(6):
            mult = {p: rng.randint(-3, 3) * rng.choice((1, p)) for p in (2, 3, 5)}
            D = LambdaStructure(Carrier.dual_numbers(ring), (2, 3, 5), mult,
                                check=False)
            carrier = Carrier.trunc_poly(ring, 2)
            x = carrier.domain.x()
            T = make_series_structure(carrier, {p: x * a for p, a in mult.items()})
            assert _frobenius_flags(validate(D)) == _frobenius_flags(validate(T))
            assert validate(D).passed == validate(T).passed
            for _ in range(4):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                r = D.carrier.domain.coerce((a, b))
                s = T.carrier.domain.coerce([a, b])
                for n in (1, 2, 3, 4, 6, 9, 10):
                    assert (adams_apply(D, n, r).payload
                            == adams_apply(T, n, s).payload)
                try:
                    lam = _payloads(lambda_values(D, 6, r))
                except WilkersonError as exc:
                    with pytest.raises(WilkersonError) as info:
                        lambda_values(T, 6, s)
                    assert info.value.degree == exc.degree
                else:
                    assert lam == _payloads(lambda_values(T, 6, s))
    D1 = make_dual_structure(Z, {2: 2, 3: 3})
    T1 = make_series_structure(Carrier.trunc_poly(Z, 2), {2: [0, 2], 3: [0, 3]})
    T2 = make_series_structure(Carrier.trunc_poly(Z, 2), {2: [0, 4], 3: [0, 3]})
    assert dual_iso_test(D1, D1) and dual_iso_test(T1, T1)
    assert not dual_iso_test(T1, T2)


def test_ground_structure_agrees_with_its_image_mod_x():
    # psi fixes R, so on the constants of any series structure over R the
    # lift is the ground (binomial) one: its image in R[x]/x is the ground
    rng = random.Random(5)
    for ring, dens in ((Z, (1,)), (GroundRing.localized([2]), (1, 2, 4)),
                       (Q, (1, 3, 10))):
        S = make_binomial_structure(ring)
        T = standard_structure("mult", ring=ring, trunc=3)
        for _ in range(8):
            r = ring.coerce(Fraction(rng.randint(-20, 20), rng.choice(dens)))
            c = T.carrier.domain.coerce(r)
            assert adams_apply(S, 30, r) == r  # psi^n = id, any n
            lam = lambda_values(S, 6, r)
            assert _payloads(lam) == [v.payload[0] for v in lambda_values(T, 6, c)]
            assert S.carrier.to_series(r).payload == (r.payload,)
    # over dual(Z) the ground fails Frobenius exactly where a series
    # structure over dual(Z) does: at eps, for every window prime
    DZ = GroundRing.dual(Z)
    G = LambdaStructure(Carrier.ground(DZ), (2, 3))
    carrier = Carrier.power_series(DZ, 3)
    x = carrier.domain.x()
    T = make_series_structure(carrier, {p: x ** p for p in (2, 3)})
    assert _frobenius_flags(validate(G)) == _frobenius_flags(validate(T)) == [False] * 2


def test_carrier_and_structure_errors_are_input_errors():
    with pytest.raises(InputError, match="unknown carrier kind"):
        Carrier.from_json({"kind": "laurent", "ring": Z.to_json()})
    with pytest.raises(InputError, match="must not be dual"):
        Carrier.dual_numbers(GroundRing.dual(Z))
    with pytest.raises(InputError, match="must not be dual"):
        Carrier(DUAL_NUMBERS, GroundRing.dual(Z), 1)
    with pytest.raises(InputError, match="missing Adams data"):
        LambdaStructure(Carrier.power_series(Z, 4), (2, 3), {2: [0, 2, 1]})
    with pytest.raises(InputError, match=r"psi\^2\(0\) != 0"):
        LambdaStructure(Carrier.power_series(Z, 4), (2,), {2: [1, 2, 1]})
    with pytest.raises(InputError, match="carry no Adams data"):
        LambdaStructure(Carrier.ground(Z), (2,), {2: [0, 1]})


def test_the_kind_fixes_the_domain_and_the_ground_and_dual_truncations():
    for carrier, trunc, domain in [
        (Carrier(GROUND, Z, 0), 0, Z),
        (Carrier(GROUND, Z, 3), 0, Z),
        (Carrier(DUAL_NUMBERS, Z), 1, GroundRing.dual(Z)),
        (Carrier(TRUNC_POLY, Z, 1), 1, SeriesRing(Z, 1)),
    ]:
        assert (carrier.trunc, carrier.domain) == (trunc, domain)
        assert carrier.series == SeriesRing(Z, trunc)
    assert Carrier(GROUND, Z, 0) == Carrier.ground(Z)
    assert Carrier(DUAL_NUMBERS, Z, 1) == Carrier.dual_numbers(Z)


def test_wilkerson_errors_name_prime_degree_and_element():
    with pytest.raises(WilkersonError) as info:
        make_dual_structure(Z, {2: 2, 3: 4})
    err = info.value
    assert str(err) == "a_3 = 4 is not 3-divisible in Z"
    assert (err.prime, err.degree) == (3, 3)
    assert err.element == Carrier.dual_numbers(Z).x()
    carrier = Carrier.power_series(Z, 6)
    x = carrier.domain.x()
    S = make_series_structure(carrier, {p: x for p in (2, 3)})
    with pytest.raises(WilkersonError) as info:
        lambda_values(S, 5, x + x * x)
    err = info.value
    assert (err.prime, err.degree, err.element) == (2, 2, x + x * x)
    G = LambdaStructure(Carrier.ground(GroundRing.dual(Z)), (2, 3))
    r = G.carrier.domain.coerce((2, 1))
    with pytest.raises(WilkersonError) as info:
        lambda_values(G, 4, r)
    assert (info.value.prime, info.value.degree, info.value.element) == (2, 2, r)


def test_axiom_check_depth_follows_the_window():
    assert window_depth(make_dual_structure(Z, {2: 2, 3: 6})) == 4
    assert window_depth(standard_structure("mult", trunc=4, primes=(2,))) == 2
    assert window_depth(standard_structure("mult", trunc=4, primes=(2, 3, 5))) == 6
    assert window_depth(standard_structure("mult", trunc=4, primes=(3, 5))) == 1
    assert window_depth(make_binomial_structure(primes=(2,))) == 6
    S = standard_structure("mult", trunc=6, primes=(2, 3))
    report = axiom_check(S)
    assert report.passed
    names = [name for name, _, _ in report.checks]
    assert "composition lambda^4(lambda^1(r)) at 0,1,0,0,0,0,0" in names
    assert not any("lambda^5" in name for name in names)
    with pytest.raises(PrimeWindowError):
        axiom_check(S, bound=6)  # an explicit depth is kept
