import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twodof.cli import parse_matrix
from twodof.factor import left_coprime_mfd, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, ZERO, Poly, PolyMat, RatFn, RatMat, ShapeError
from twodof.stabilize import (
    IllPosedLoop,
    InadmissibleParameter,
    all_controllers_from_LX,
    gang_of_four,
    solve_bezout,
    youla_controller,
)
from twodof.stability import rh_inf_verdict
from twodof.synthesis import (
    DesignObstruction,
    model_matching,
)


def rf(num, den=ONE):
    return RatFn(num, den)


def random_stable_param(rng, rows, cols, max_deg=2):
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            deg = rng.randint(0, max_deg)
            den = ONE
            for _ in range(deg):
                den = den * Poly((Fraction(rng.randint(1, 5)), Fraction(1)))
            num = Poly(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg + 1))
            )
            row.append(RatFn(num, den))
        entries.append(row)
    return RatMat(entries)


def test_bezout_on_unstable_first_order_plant():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    mfd = right_coprime_mfd(plant)
    x1, x2 = solve_bezout(mfd)
    assert x1 @ mfd.d + x2 @ mfd.n == PolyMat.identity(1)
    left = left_coprime_mfd(plant)
    assert left.dl @ mfd.n == left.nl @ mfd.d
    # for n = 1 the minimal witness is the trivial one
    assert x1.entry(0, 0) == ZERO
    assert x2.entry(0, 0) == ONE


def test_bezout_random_sweep():
    rng = random.Random(53)
    for trial in range(20):
        rows, cols = [(1, 1), (2, 2)][trial % 2]
        entries = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                den = Poly((Fraction(rng.randint(-3, 3)), Fraction(1)))
                den = den * Poly((Fraction(rng.randint(-3, 3)), Fraction(1)))
                num = Poly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
                row.append(RatFn(num, den))
            entries.append(row)
        plant = RatMat(entries)
        mfd = right_coprime_mfd(plant)
        x1, x2 = solve_bezout(mfd)
        assert x1 @ mfd.d + x2 @ mfd.n == PolyMat.identity(cols)
        left = left_coprime_mfd(plant)
        assert left.dl @ mfd.n == left.nl @ mfd.d


def test_central_controller_values():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    assert youla_controller(plant, shift=1) == RatMat([[rf(-3 * ONE)]])
    assert youla_controller(plant, shift=2) == RatMat([[rf(-4 * ONE)]])


def test_stable_mfd_identity():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    data = stable_mfd(right_coprime_mfd(plant), shift=1)
    ident = data.u @ data.nprime + data.v @ data.dprime
    assert ident == RatMat.identity(1)
    # left fractions reproduce the plant
    assert data.dl_prime.inv() @ data.nl_prime == plant


def test_youla_parameter_sweep():
    rng = random.Random(59)
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    for _ in range(25):
        k = random_stable_param(rng, 1, 1)
        cy = youla_controller(plant, k=k, shift=1)
        assert gang_of_four(plant, cy).verdict


def test_youla_rejects_bad_parameters():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    with pytest.raises(InadmissibleParameter):
        youla_controller(plant, k=RatMat([[rf(ONE, S - ONE)]]))  # unstable k
    with pytest.raises(InadmissibleParameter):
        youla_controller(plant, k=RatMat([[rf(S ** 2, S + ONE)]]))  # improper k
    with pytest.raises(ShapeError):
        youla_controller(plant, k=RatMat.identity(2))


def test_gang_of_four_formulas():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    cy = RatMat([[rf(-3 * ONE)]])
    sens, sens_cy, p_sens, p_sens_cy = gang_of_four(plant, cy)
    ident = RatMat.identity(1)
    assert sens == (ident - cy @ plant).inv()
    assert sens_cy == sens @ cy
    assert p_sens == plant @ sens
    assert p_sens_cy == plant @ sens @ cy
    assert p_sens.entry(0, 0) == rf(ONE, S + ONE)


def test_ill_posed_loop():
    plant = RatMat([[rf(ONE, S + ONE)]])
    cy = RatMat([[rf(S + ONE)]])  # cy @ p == 1 exactly
    with pytest.raises(IllPosedLoop):
        gang_of_four(plant, cy)


def test_internal_stability_verdicts():
    unstable_plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    open_loop = gang_of_four(unstable_plant, RatMat([[rf(ZERO)]])).verdict
    assert not open_loop
    assert any(str(f) == "s - 2" for f, _ in open_loop.offending_factors)
    good = gang_of_four(unstable_plant, RatMat([[rf(-3 * ONE)]])).verdict
    assert good


def test_design_reference_map_places_response_exactly():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    mfd = smfd.source
    x = RatMat([[rf(ONE, (S + ONE) ** 2)]])
    res = model_matching(smfd, mfd.n.to_ratmat() @ x)
    cy, cr = res.configuration.cy, res.configuration.cr
    assert res.x == x and cy == youla_controller(plant, shift=1)
    sens = (RatMat.identity(1) - cy @ plant).inv()
    assert plant @ sens @ cr == mfd.n.to_ratmat() @ x  # y/r = n@x
    assert sens @ cr == mfd.d.to_ratmat() @ x  # u/r = d@x
    # the reference map (I - cy@p) @ d@x that the loop's own v**-1 forms
    assert cr == (RatMat.identity(1) - cy @ plant) @ mfd.d.to_ratmat() @ x


def test_design_reference_map_rejects_bad_parameters():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    n = smfd.source.n.to_ratmat()
    for x in (
        RatMat([[rf(ONE, S - ONE)]]),  # unstable x
        RatMat([[rf(S, ONE)]]),  # d@x improper
    ):
        with pytest.raises(DesignObstruction):
            model_matching(smfd, n @ x)


@st.composite
def parametrized_plants(draw):
    """(plant, k): a strictly proper r x m plant, r and m in 1..2, each
    entry over a product of up to two factors s + a, a in -2..3, and a
    proper stable m x r Youla parameter, or k = None (the central one)."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def entry(roots, strict):
        den = draw(st.lists(roots, min_size=int(strict), max_size=2))
        num = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=len(den) + 1 - strict))
        return rf(Poly(num), prod((S + a * ONE for a in den), start=ONE))

    plant = RatMat([[entry(st.integers(-2, 3), True) for _ in range(cols)] for _ in range(rows)])
    if draw(st.booleans()):
        return plant, None
    return plant, RatMat([[entry(st.integers(1, 4), False) for _ in range(rows)] for _ in range(cols)])


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(parametrized_plants())
@example((RatMat([[rf(ONE, S - 2 * ONE)]]), None))
def test_all_controllers_from_lx_roundtrip(case):
    # pull an admissible (l, x) back from a stabilizing feedback map cy:
    # l = d**-1 @ cy @ (I - p@cy)**-1, and x = I / (s+1)**top, so that d@x
    # is proper; the sweep rebuilds cy, calls its loop stable, and its
    # closed loop realizes n@x
    plant, k = case
    try:
        cy = youla_controller(plant, k)
    except InadmissibleParameter:
        assume(False)  # a singular v - k@nl'
    mfd = right_coprime_mfd(plant)
    l = mfd.d.to_ratmat().inv() @ cy @ (RatMat.identity(plant.shape[0]) - plant @ cy).inv()
    top = max(e.degree() or 0 for row in mfd.d.rows for e in row)
    x = RatMat.identity(mfd.inputs).scale(rf(ONE, (S + ONE) ** top))
    controller, verdict = all_controllers_from_LX(mfd, l, x)
    assert controller.cy == cy
    assert verdict.stable
    sens = (RatMat.identity(mfd.inputs) - controller.cy @ plant).inv()
    assert plant @ sens @ controller.cr == mfd.n.to_ratmat() @ x


def test_all_controllers_from_lx_rejects_destabilizing_l():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    mfd = right_coprime_mfd(plant)
    bad_l = RatMat([[rf(-7 * ONE, (S + ONE) ** 2)]])
    x = RatMat([[rf(ONE, (S + ONE) ** 2)]])
    with pytest.raises(InadmissibleParameter):
        all_controllers_from_LX(mfd, bad_l, x)


# (plant, l, x, exception, message): each refusal in its order
LX_REFUSALS = [
    ("1/(s-2)", "1/(s+1); 1/(s+1)", "1/(s+1)", ShapeError,
     "feedback parameter must be 1x1, got (2, 1)"),
    ("1/(s-2)", "1/(s-1)", "1/(s+1)", InadmissibleParameter,
     "feedback parameter l has unstable poles"),
    ("1/(s-2)", "-7/(s+1)^2", "1/(s-1)", InadmissibleParameter,
     "reference parameter x has unstable poles"),
    ("1/(s-2)", "1", "1/(s+1)", InadmissibleParameter, "d@l is improper"),
    ("1/(s-2)", "-7/(s+1)^2", "1", InadmissibleParameter, "d@x is improper"),
    # l = -n**-1: f = (I + l@n) @ d**-1 = 0
    ("(s+1)/(s-2)", "-1/(s+1)", "1/(s+1)", IllPosedLoop,
     "I + d@l@p is singular; the loop is ill posed"),
    # 1 + l*n = (s-2)/(s+1)^2: f = 1/(s+1)^2, and f**-1 @ d**-1 = (s+1)^2/(s-2)
    ("(s+1)/(s-2)", "((s-2) - (s+1)^2)/(s+1)^3", "1/(s+1)", InadmissibleParameter,
     "(I + d@l@p)**-1 is improper"),
]


@pytest.mark.parametrize("plant, l, x, error, message", LX_REFUSALS)
def test_all_controllers_from_lx_refusals(plant, l, x, error, message):
    mfd = right_coprime_mfd(parse_matrix(plant))
    with pytest.raises(error) as err:
        all_controllers_from_LX(mfd, parse_matrix(l), parse_matrix(x))
    assert type(err.value) is error
    assert str(err.value) == message


def test_two_by_two_youla_sweep():
    rng = random.Random(61)
    plant = RatMat(
        [
            [rf(ONE, S + ONE), rf(ONE, S + 2 * ONE)],
            [rf(ZERO), rf(ONE, S - ONE)],
        ]
    )
    data = stable_mfd(right_coprime_mfd(plant), shift=1)
    assert data.u @ data.nprime + data.v @ data.dprime == RatMat.identity(2)
    for mat in (data.nprime, data.dprime, data.u, data.v):
        assert rh_inf_verdict(mat)
    for _ in range(10):
        k = random_stable_param(rng, 2, 2, max_deg=1)
        try:
            cy = youla_controller(plant, k=k, shift=1)
        except InadmissibleParameter:
            continue  # singular v - k@n~': parameter outside the chart
        assert gang_of_four(plant, cy).verdict
