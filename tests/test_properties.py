"""Property tests: on random solvable scalar and 2x2 instances of each
design, the loop built from the returned configuration (by
verify.closed_loop, apart from the design) realizes the achieved response
exactly and every certificate of the design passes.

Instances are drawn so that the design exists: denominator-assignment
plants are built around the target denominator, matching targets are
t = n' @ Q for a constant nonsingular Q, and static-decoupling plants are
nonsingular at the origin.  The central feedback map that model matching
and static decoupling build may still be refused (InadmissibleParameter),
and static decoupling is obstructed when that map leaves the closed-loop
dc gain singular; both are counted as Hypothesis events, never as results.
"""

from fractions import Fraction
from math import prod

from hypothesis import event, given, settings
from hypothesis import strategies as st

from twodof.factor import RightMFD, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, PolyMat, RatFn, RatMat
from twodof.stabilize import InadmissibleParameter
from twodof.synthesis import (
    DesignObstruction,
    denominator_assignment_direct,
    denominator_assignment_unity,
    model_matching,
    static_decoupling,
)
from twodof.verify import certify, closed_loop, dc_gain

SETTINGS = settings(derandomize=True, deadline=None, max_examples=12, database=None)

sizes = st.sampled_from((1, 2))


@st.composite
def constant_matrices(draw, size):
    """A nonsingular size x size matrix of small integers."""
    mat = RatMat([[draw(st.integers(-3, 3)) for _ in range(size)] for _ in range(size)])
    if mat.rank() < size:
        # entries are at most 3 in size, so a diagonal of 7 dominates
        mat = mat + RatMat.identity(size).scale(7)
    return mat


@st.composite
def assignment_data(draw):
    """(n, d_t, K): a Hurwitz diagonal target denominator d_t with column
    degrees 1 or 2, a nonsingular numerator n of lower column degrees and a
    constant nonsingular K."""
    size = draw(sizes)
    degs = [draw(st.integers(1, 2)) for _ in range(size)]
    roots = st.integers(1, 4)
    d_t = PolyMat.diag(
        [prod((S + draw(roots) * ONE for _ in range(deg)), start=ONE) for deg in degs]
    )
    coeffs = st.integers(-3, 3)
    n = PolyMat(
        [
            [sum((draw(coeffs) * S**k for k in range(deg)), start=0 * ONE) for deg in degs]
            for _ in range(size)
        ]
    )
    if n.to_ratmat().rank() < size:
        n = PolyMat.identity(size)
    return n, d_t, draw(constant_matrices(size))


def assert_realized(plant, res):
    report = closed_loop(plant, res.configuration)
    assert report.t_yr == res.achieved_t
    certs = (*res.certificates, *certify(report, res.achieved_t))
    assert [c.describe() for c in certs if not c.passed] == []
    assert res.verdict


@SETTINGS
@given(assignment_data())
def test_direct_denominator_assignment_realizes_its_target(data):
    # d = d_t + K n makes the feedback map (d - d_t) @ n**-1 = K proper
    n, d_t, k = data
    mfd = RightMFD(n, d_t + PolyMat(k.at_infinity()) @ n)
    res = denominator_assignment_direct(mfd, d_t)
    assert res.configuration.cfb == k
    assert_realized(mfd.plant(), res)


@SETTINGS
@given(assignment_data())
def test_unity_denominator_assignment_realizes_its_target(data):
    # d = C (d_t + n) makes the forward map d @ (d_t + n)**-1 = C proper
    n, d_t, c = data
    mfd = RightMFD(n, PolyMat(c.at_infinity()) @ (d_t + n))
    res = denominator_assignment_unity(mfd, d_t)
    assert res.configuration.cff == c
    assert_realized(mfd.plant(), res)


@st.composite
def plants(draw, poles):
    """A nonsingular plant of small-integer first- or second-order entries
    with poles drawn from ``poles``."""
    size = draw(sizes)
    order = 2 if size == 1 else 1
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            den = prod((S - draw(poles) * ONE for _ in range(order)), start=ONE)
            zeros = [draw(st.integers(-3, 3)) for _ in range(order - 1)]
            num = draw(st.integers(-3, 3)) * prod((S - z * ONE for z in zeros), start=ONE)
            row.append(RatFn(num, den))
        rows.append(row)
    plant = RatMat(rows)
    if plant.rank() < size:
        plant = RatMat.diag([plant.entry(i, i) + RatFn(ONE, S + ONE) for i in range(size)])
    return plant


def design_or_refusal(design):
    try:
        return design()
    except InadmissibleParameter as exc:
        event(f"central feedback map refused: {exc}")
        return None


@SETTINGS
@given(plants(st.integers(-3, 3)), st.data())
def test_model_matching_realizes_its_target(plant, data):
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    q = data.draw(constant_matrices(plant.shape[0]))
    t = smfd.nprime @ q
    res = design_or_refusal(lambda: model_matching(smfd, t))
    if res is not None:
        assert res.achieved_t == t
        assert_realized(plant, res)


@SETTINGS
@given(plants(st.sampled_from((-3, -2, -1, 1, 2))), st.data())
def test_static_decoupling_realizes_its_dc_gain(plant, data):
    size = plant.shape[0]
    if RatMat(plant.eval_at(Fraction(0))).rank() < size:
        plant = plant + RatMat.identity(size).scale(RatFn(ONE, S + ONE))
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    gains = [data.draw(st.sampled_from((1, -1, 2, -2, 3, -3))) for _ in range(size)]
    lam = RatMat.diag(gains)
    try:
        res = design_or_refusal(lambda: static_decoupling(smfd, lam))
    except DesignObstruction as exc:
        event(f"obstructed: {exc}")
        return
    if res is not None:
        assert dc_gain(res.achieved_t) == tuple(
            tuple(Fraction(gains[i]) if i == j else Fraction(0) for j in range(size))
            for i in range(size)
        )
        assert_realized(plant, res)
