"""JSON round trips: reading back what `to_json` wrote gives an equal value.

Structures on all four carrier kinds and bare series, over Z, Z[1/2],
Z_(5), Q and Q[y1] (and dual(Z) for series), travel through
`json.dumps`/`json.loads` as they would through a file.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wittlam.ground import GroundRing
from wittlam.series import SeriesRing, TruncSeries
from wittlam.structures import Carrier, LambdaStructure
from wittlam.sympoly import MPoly

Z = GroundRing.integers()
QY = GroundRing.rational_poly(("y1",))
# each ground ring with denominators it holds: none over Z, powers of 2
# over Z[1/2], primes other than 5 over Z_(5), any over Q and Q[y1]
GROUNDS = {
    Z: [1],
    GroundRing.localized([2]): [1, 2, 4, 8],
    GroundRing.p_local(5): [1, 2, 3, 7, 12],
    GroundRing.rationals(): [1, 2, 5, 9],
    QY: [1, 3, 10],
}
ROUNDTRIP = settings(max_examples=60, deadline=None, database=None)


@st.composite
def scalars(draw, ring):
    """An element of a Z[S^-1] ring or of Q[y1]."""
    def fraction():
        return Fraction(draw(st.integers(-9, 9)),
                        draw(st.sampled_from(GROUNDS[ring])))

    if ring == QY:
        return ring.element(MPoly(ring.variables,
                                  {(e,): fraction() for e in range(3)}))
    return ring.element(fraction())


@st.composite
def series(draw, ring, N, constant=True):
    coeffs = [draw(scalars(ring)) for _ in range(N + 1)]
    if not constant:
        coeffs[0] = ring.zero()
    return SeriesRing(ring, N).coerce(coeffs)


@st.composite
def structures(draw):
    ring = draw(st.sampled_from(list(GROUNDS)))
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1,
                           max_size=3, unique=True))
    kind = draw(st.sampled_from(["ground", "dual", "trunc_poly",
                                 "power_series"]))
    if kind == "ground":
        return LambdaStructure(Carrier.ground(ring), primes)
    if kind == "dual":
        # a_p = p*b is p-divisible, as construction requires
        adams = {p: draw(scalars(ring)) * p for p in primes}
        return LambdaStructure(Carrier.dual_numbers(ring), primes, adams)
    N = draw(st.integers(1, 5))
    carrier = (Carrier.trunc_poly(ring, N + 1) if kind == "trunc_poly"
               else Carrier.power_series(ring, N))
    adams = {p: draw(series(ring, N, constant=False)) for p in primes}
    return LambdaStructure(carrier, primes, adams)


@ROUNDTRIP
@given(S=structures())
def test_structure_json_round_trip(S):
    data = json.loads(json.dumps(S.to_json()))
    assert LambdaStructure.from_json(data) == S


@ROUNDTRIP
@given(ring=st.sampled_from([*GROUNDS, GroundRing.dual(Z)]),
       N=st.integers(0, 6), data=st.data())
def test_series_json_round_trip(ring, N, data):
    if ring.kind == "dual_numbers":
        coeffs = data.draw(st.lists(st.tuples(st.integers(-9, 9),
                                              st.integers(-9, 9)),
                                    min_size=N + 1, max_size=N + 1))
        f = SeriesRing(ring, N).coerce(coeffs)
    else:
        f = data.draw(series(ring, N))
    assert TruncSeries.from_json(f.to_json()) == f
