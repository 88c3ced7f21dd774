"""gang_of_four and the Youla controller, formed over one polynomial
denominator, agree with the inversion formulas over rational entries, and
the loop maps of a Youla design, read off one point when read, agree
with both; its verdict, decided on their one denominator, agrees too.
gang_of_four divides the gcd of det M and its row out first, reading the
loop and its maps off integers at one point; it agrees on drawn pairs,
on 3x3 and non-square plants, where the read-off is refused and where
the maps need a second point, and runs no gcd for a scalar loop.  The
one loop a restricted-loop design forms from its own fractions (``_fraction_loop``) equals
gang_of_four's on the plant and the design's controller, and the (L, X)
sweep returns a Youla controller pulled back into it.

The oracles below invert I - cy@p and v - k@nl' with RatMat.inv, as the
package did before both were written as adj / det of a polynomial matrix.
"""

import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import twodof.polyalg
import twodof.stabilize
import twodof.synthesis
import twodof.verify
from test_acceptance import criterion_3_instances
from twodof.cli import parse_matrix
from twodof.factor import StableMFD, right_coprime_mfd, stable_mfd
from twodof.polyalg import (
    ONE,
    S,
    ZERO,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    SingularMatrixError,
    _column_fraction,
    _over_lcd,
)
from twodof.stability import is_hurwitz, matrix_is_stable, rh_inf_verdict
from twodof.stabilize import (
    IllPosedLoop,
    InadmissibleParameter,
    TwoDofConfig,
    _youla_feedback,
    all_controllers_from_LX,
    gang_of_four,
    youla_controller,
)
from twodof.synthesis import (
    DesignObstruction,
    denominator_assignment_direct,
    denominator_assignment_unity,
    find_admissible_unity_xprime,
    model_matching,
    unity_feedback_controller,
)

SHAPES = [(1, 1), (2, 2), (2, 1), (1, 2)]
UNSTABLE_2X2 = RatMat([[RatFn(ONE, S - ONE), RatFn(2 * ONE, S + 2 * ONE)],
                       [RatFn(ONE, S + 3 * ONE), RatFn(ONE, S + ONE)]])
K_2X2 = RatMat([[RatFn(S, S + ONE), RatFn(ONE)], [RatFn(ONE, S + 2 * ONE), RatFn(-2 * ONE)]])


def oracle_gang_of_four(p, cy):
    try:
        sens = (RatMat.identity(cy.shape[0]) - cy @ p).inv()
    except SingularMatrixError:
        raise IllPosedLoop("I - cy@p is singular; the loop is ill posed") from None
    return sens, sens @ cy, p @ sens, p @ sens @ cy


def oracle_youla(data, k):
    lhs = data.v - k @ data.nl_prime
    rhs = data.u + k @ data.dl_prime
    return (lhs.inv() @ rhs).scale(-1)


def random_entry(rng, max_den, den_roots, strict):
    dd = rng.randint(1 if strict else 0, max_den)
    den = ONE
    for _ in range(dd):
        den = den * Poly((Fraction(rng.choice(den_roots)), Fraction(1)))
    nd = rng.randint(0, dd - 1) if strict else dd
    return RatFn(Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(nd + 1))), den)


def random_matrix(rng, rows, cols, max_den, den_roots, strict=False):
    return RatMat(
        [[random_entry(rng, max_den, den_roots, strict) for _ in range(cols)] for _ in range(rows)]
    )


def test_loop_maps_equal_the_inversion_formula():
    rng = random.Random(71)
    for trial in range(16):
        rows, cols = SHAPES[trial % len(SHAPES)]
        # strictly proper plants, so v(oo) is invertible and cy is proper
        plant = random_matrix(rng, rows, cols, 2, range(-3, 4), strict=True)
        k = random_matrix(rng, cols, rows, 1, range(1, 6))
        shift = Fraction(1 + trial % 3)
        cy = youla_controller(plant, k, shift=shift)
        assert cy == oracle_youla(stable_mfd(right_coprime_mfd(plant), shift), k)
        loop = gang_of_four(plant, cy)
        assert tuple(loop) == oracle_gang_of_four(plant, cy)
        assert loop.verdict
        # a feedback map that need not stabilize the plant
        other = random_matrix(rng, cols, rows, 1, range(-2, 3))
        try:
            expected = oracle_gang_of_four(plant, other)
        except IllPosedLoop:
            with pytest.raises(IllPosedLoop):
                gang_of_four(plant, other)
            continue
        assert tuple(gang_of_four(plant, other)) == expected


def count_gcds(monkeypatch):
    """The gcd kernel calls the loop's kernel ``polyalg._loop_over`` makes,
    each as its inputs and the ``polyalg._prs_gcd`` calls made inside it
    (the fold the kernel falls back to)."""
    calls, inside, loops = [], [], []
    loop_over, kernel, prs_gcd = twodof.polyalg._loop_over, twodof.polyalg._gcd, twodof.polyalg._prs_gcd

    def counted_loop_over(a, b):
        loops.append(None)
        try:
            return loop_over(a, b)
        finally:
            loops.pop()

    def counted_kernel(*fs):
        if not loops:
            return kernel(*fs)
        calls.append((fs, []))
        inside.append(calls[-1][1])
        try:
            return kernel(*fs)
        finally:
            inside.pop()

    def counted_prs_gcd(a, b):
        if inside:
            inside[-1].append((a, b))
        return prs_gcd(a, b)

    monkeypatch.setattr(twodof.stabilize, "_loop_over", counted_loop_over)
    monkeypatch.setattr(twodof.polyalg, "_gcd", counted_kernel)
    monkeypatch.setattr(twodof.polyalg, "_prs_gcd", counted_prs_gcd)
    return calls


def refuse_the_first_read_off(monkeypatch):
    """Make the first ``polyalg._read_off`` call, the loop's own, refuse
    its candidate; later calls (GCDHEU's, the maps') read off as before."""
    read_off, refused = twodof.polyalg._read_off, []

    def refusing(h, x, values):
        if refused:
            return read_off(h, x, values)
        refused.append(h)
        return [1], None

    monkeypatch.setattr(twodof.polyalg, "_read_off", refusing)


# det M = (s+1)^2 (s^2+3s+1); the entries (s+1)^3, (s+1)(s^2+3s+1) and
# s^2+3s+1 of adj M @ [dc*I | nc] leave it a gcd of 1 with them
COMMON_FACTOR_PLANT = RatMat([[RatFn(ONE, S + 2 * ONE), 0], [0, RatFn(S + ONE, S + 2 * ONE)]])
COMMON_FACTOR_CY = RatMat([[RatFn(ONE, S + ONE), 0], [0, RatFn(ONE, S + ONE)]])


def recorded_points(monkeypatch) -> set:
    """The points x at which ``polyalg._horner`` evaluates while active."""
    points, horner = set(), twodof.polyalg._horner

    def recording(a, u, v):
        points.add(u)
        return horner(a, u, v)

    monkeypatch.setattr(twodof.polyalg, "_horner", recording)
    return points


def test_the_loop_forms_no_polynomial_product_adjugate_or_gcd(monkeypatch):
    # _fraction_loop reads det M, row / g and q off integers at one point:
    # on COMMON_FACTOR_PLANT (g = 1) and on the youla-mimo plants (g of
    # degree 10 to 14) it calls neither PolyMat @, the polynomial adjugate
    # nor the gcd kernel, and the maps, read at one point of their own, are
    # the oracle's
    rng = random.Random(77)
    pairs = [(COMMON_FACTOR_PLANT, COMMON_FACTOR_CY)]
    for text in ROUND_TRIP_PLANTS[:3]:
        plant = parse_matrix(text)
        for _ in range(2):
            pairs.append((plant, youla_controller(plant, random_matrix(rng, 2, 2, 1, range(1, 6)))))
    for plant, cy in pairs:
        args = (*_column_fraction(plant), *_over_lcd(cy))
        calls = []

        def recording(name, fn):
            return lambda *a: calls.append(name) or fn(*a)

        monkeypatch.setattr(PolyMat, "__matmul__", recording("@", PolyMat.__matmul__))
        for name in ("_polymat_det_adj", "_gcd"):
            monkeypatch.setattr(twodof.polyalg, name, recording(name, getattr(twodof.polyalg, name)))
        loop = twodof.stabilize._fraction_loop(*args)
        monkeypatch.undo()
        assert calls == []
        points = recorded_points(monkeypatch)
        maps = loop.maps
        monkeypatch.undo()
        assert len(points) == 1
        assert tuple(maps) == oracle_gang_of_four(plant, cy)


def test_a_refused_read_off_takes_the_gcd_kernel_once(monkeypatch):
    # On UNSTABLE_2X2 and the Youla controller of K_2X2, g has degree 10.
    # With the candidate at the loop's point refused, det M and the eight
    # entries of row are read off their values and take one kernel call,
    # which finds g by one evaluation, with no remainder sequence: the loop
    # is the same.
    cy = youla_controller(UNSTABLE_2X2, K_2X2)
    args = (*_column_fraction(UNSTABLE_2X2), *_over_lcd(cy))
    expected = twodof.stabilize._fraction_loop(*args)
    refuse_the_first_read_off(monkeypatch)
    calls = count_gcds(monkeypatch)
    assert twodof.stabilize._fraction_loop(*args) == expected
    assert [(len(fs), pairs) for fs, pairs in calls] == [(9, [])]
    det_m = twodof.polyalg._polymat_det_adj(args[0].scale(args[2]) - args[3] @ args[1])[0]
    assert (det_m.degree(), expected.q.degree()) == (16, 6)


def test_a_loop_whose_evaluation_gives_no_gcd_folds_pairwise(monkeypatch):
    # with no candidate from GCDHEU, at the loop's point or in the kernel,
    # the kernel folds the primitive remainder sequence over det M and the
    # nonzero entries, one call per entry, to the same maps
    cy = youla_controller(UNSTABLE_2X2, K_2X2)
    refuse_the_first_read_off(monkeypatch)
    monkeypatch.setattr(twodof.polyalg, "_heu_gcd", lambda *fs: None)
    calls = count_gcds(monkeypatch)
    maps = tuple(gang_of_four(UNSTABLE_2X2, cy))
    monkeypatch.undo()
    assert maps == oracle_gang_of_four(UNSTABLE_2X2, cy)
    assert [len(pairs) for _, pairs in calls] == [sum(map(bool, calls[0][0])) - 1]


def test_maps_beyond_the_loops_point_are_read_at_a_second_point(monkeypatch):
    # cy = 0 on (3s+3)/s^2: det M = s^2 and row = [1 | 0] have coefficients
    # at most B = 1, so the loop's point is x = 8 > 2B + 4; the map numerator
    # 3s+3 has 1-norm 6, so the maps are read at the least x = 2**k > 16
    plant, cy = parse_matrix("(3*s+3)/s^2"), parse_matrix("0")
    loop = twodof.stabilize._fraction_loop(*_column_fraction(plant), *_over_lcd(cy))
    points = recorded_points(monkeypatch)
    maps = loop.maps
    monkeypatch.undo()
    assert points == {32}
    assert tuple(maps) == oracle_gang_of_four(plant, cy)


def test_loop_maps_of_larger_and_non_square_plants():
    rng = random.Random(73)
    for rows, cols in [(3, 3), (2, 3), (3, 2)] * 2:
        plant = random_matrix(rng, rows, cols, 2, range(-3, 4), strict=True)
        cy = youla_controller(plant, random_matrix(rng, cols, rows, 1, range(1, 6)))
        assert tuple(gang_of_four(plant, cy)) == oracle_gang_of_four(plant, cy)


def test_a_scalar_loop_runs_no_gcd(monkeypatch):
    plant = RatMat([[RatFn(S + 2 * ONE, (S - ONE) * (S + 3 * ONE))]])
    cy = youla_controller(plant, RatMat([[RatFn(2 * ONE, S + ONE)]]))
    calls = count_gcds(monkeypatch)
    assert tuple(gang_of_four(plant, cy)) == oracle_gang_of_four(plant, cy)
    assert calls == []


def test_loop_maps_and_youla_controller_invert_no_rational_matrix(monkeypatch):
    plant, k = UNSTABLE_2X2, K_2X2
    youla_controller(plant)  # the plant's analysis, cached by a first call, may invert
    calls = []
    original = RatMat.inv

    def inv(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RatMat, "inv", inv)
    cy = youla_controller(plant, k)
    gang_of_four(plant, cy)
    assert calls == []


def test_ill_posed_loop_is_refused():
    one = RatMat([[RatFn(ONE)]])
    with pytest.raises(IllPosedLoop, match=re.escape("I - cy@p is singular; the loop is ill posed")):
        gang_of_four(one, one)


def test_singular_youla_denominator_is_refused():
    # biproper, stable and minimum phase: k = v / nl' is proper and stable
    # and makes v - k@nl' = 0
    plant = RatMat([[RatFn(S + 2 * ONE, S + 3 * ONE)]])
    data = stable_mfd(right_coprime_mfd(plant), 1)
    k = data.v @ data.nl_prime.inv()
    with pytest.raises(
        InadmissibleParameter,
        match=re.escape("this parameter k makes v - k@nl' singular"),
    ):
        youla_controller(plant, k)


def test_youla_loop_maps_equal_gang_of_four_and_the_oracle():
    rng = random.Random(72)
    for trial in range(12):
        rows, cols = SHAPES[trial % len(SHAPES)]
        # strictly proper plants, so v(oo) is invertible and cy is proper
        plant = random_matrix(rng, rows, cols, 2, range(-3, 4), strict=True)
        data = stable_mfd(right_coprime_mfd(plant), Fraction(1 + trial % 3))
        for k in (None, random_matrix(rng, cols, rows, 1, range(1, 6))):
            cy, _, loop = _youla_feedback(data, k)
            expected = gang_of_four(plant, cy)
            assert tuple(loop.maps) == tuple(expected) == oracle_gang_of_four(plant, cy)
            assert loop.maps.verdicts == expected.verdicts
            assert loop.verdict == loop.maps.verdict == expected.verdict


def test_youla_loops_of_drawn_2x2_plants_agree_with_gang_of_four():
    # the Youla loop of a proper stable k and gang_of_four on the same pair
    # give the same maps and verdict, and both call the loop stable
    rng = random.Random(74)
    for _ in range(10):
        plant = random_matrix(rng, 2, 2, 2, range(-3, 4), strict=True)
        k = random_matrix(rng, 2, 2, 1, range(1, 6))
        cy, _, loop = _youla_feedback(stable_mfd(right_coprime_mfd(plant), 1), k)
        expected = gang_of_four(plant, cy)
        assert loop.maps == expected
        assert loop.maps.verdicts == expected.verdicts
        assert loop.verdict == expected.verdict and expected.verdict


# the three plants of the youla-mimo benchmark workload, the first of them
# UNSTABLE_2X2, and the unstable 2x2 plant of test_central_controller
ROUND_TRIP_PLANTS = (
    "1/(s-1), 2/(s+2); 1/(s+3), 1/(s+1)",
    "1/(s-2), 1/(s+1); 1/(s+2), (s-1)/((s+3)*(s+1))",
    "2/(s-1), 1/(s+3); 1/(s+1), 1/(s-2)",
    "1/(s-1), 1/(s+2); 1/(s+3), 1/(s+1)",
)


def test_youla_parameter_round_trips_through_its_controller():
    # K = (v@cy + u) @ (nl'@cy - dl')**-1 recovers the parameter of cy =
    # -(v - K@nl')**-1 @ (u + K@dl'), youla_controller gives cy back, and
    # the reference map of an x' is (v - K@nl')**-1 @ x', here formed by
    # RatMat.inv, not through the adjugate
    rng = random.Random(76)

    def draw(rows, cols, *args):
        # a matrix with no zero entry
        while True:
            mat = random_matrix(rng, rows, cols, *args)
            if all(not e.num.is_zero() for row in mat.rows for e in row):
                return mat

    scalar = draw(1, 1, 2, range(-3, 4), True)
    while matrix_is_stable(scalar):
        scalar = draw(1, 1, 2, range(-3, 4), True)
    plants = [scalar] + [parse_matrix(text) for text in ROUND_TRIP_PLANTS]
    for plant in plants:
        m, outputs = plant.shape[1], plant.shape[0]
        data = stable_mfd(right_coprime_mfd(plant), 1)
        xprime = draw(m, m, 1, range(1, 6))
        res = model_matching(data, data.nprime @ xprime)
        assert res.configuration.cr == data.v.inv() @ res.xprime
        for k in (None, draw(m, outputs, 1, range(1, 6)), draw(m, outputs, 1, range(1, 6))):
            cy, cr, loop = _youla_feedback(data, k, xprime)
            k = RatMat.zeros(m, outputs) if k is None else k
            left = data.nl_prime @ cy - data.dl_prime
            assert (data.v @ cy + data.u) @ left.inv() == k
            assert youla_controller(plant, k) == cy
            assert cr == (data.v - k @ data.nl_prime).inv() @ xprime
            assert loop.verdict


@st.composite
def proper_matrices(draw, rows, cols, strict=False, roots=st.integers(-2, 3)):
    """A rows x cols matrix of proper entries (strictly proper if
    ``strict``), each over a product of up to two factors s + r, r in -2..3
    by default, so poles on the axis and on either side."""
    def entry():
        den = draw(st.lists(roots, min_size=int(strict), max_size=2))
        num = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=len(den) + 1 - strict))
        return RatFn(Poly(num), prod((S + r * ONE for r in den), start=ONE))

    return RatMat([[entry() for _ in range(cols)] for _ in range(rows)])


@st.composite
def plants_and_feedback_maps(draw):
    """(p, cy), both m x m for m = 1 or 2.  When p(oo) has a nonzero first
    entry, about half the draws move cy(oo) so that I - cy(oo)@p(oo) is
    singular: then the loop maps are improper, however stable their
    denominator."""
    m = draw(st.sampled_from((1, 2)))
    plant, cy = draw(proper_matrices(m, m)), draw(proper_matrices(m, m))
    corner = plant.entry(0, 0).at_infinity()
    if corner and draw(st.booleans()):
        edge = [[Fraction(i == j == 0) / corner for j in range(m)] for i in range(m)]
        cy = cy - RatMat(cy.at_infinity()) + RatMat(edge)
    return plant, cy


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(plants_and_feedback_maps())
def test_a_feedback_map_stabilizes_exactly_when_its_youla_parameter_is_proper_and_stable(pair):
    # Youla et al. 1976; Vidyasagar 1985, Thm 5.2.1: a well-posed cy
    # stabilizes p exactly when K(cy) = (v@cy + u)@(nl'@cy - dl')**-1 is
    # proper and stable, and then youla_controller(p, K(cy)) is cy.  The
    # verdict of gang_of_four is read off the formed maps; the designs'
    # loops decide theirs on one denominator first (_Loop.verdict).
    plant, cy = pair
    try:
        maps = gang_of_four(plant, cy)
    except IllPosedLoop:
        assume(False)
    data = stable_mfd(right_coprime_mfd(plant))
    k = (data.v @ cy + data.u) @ (data.nl_prime @ cy - data.dl_prime).inv()
    admissible = rh_inf_verdict(k)
    event(f"{plant.shape[0]}x{plant.shape[0]} {'stable' if maps.verdict else 'unstable'}")
    decided = twodof.stabilize._fraction_loop(*_column_fraction(plant), *_over_lcd(cy)).verdict
    assert bool(maps.verdict) == bool(decided) == bool(admissible)
    if admissible:
        assert youla_controller(plant, k) == cy


@st.composite
def feedback_pairs(draw):
    """(p, cy) with p r x m, r and m in 1..3.  cy is the Youla controller
    of a proper stable parameter on a strictly proper p (which makes it
    proper), a drawn proper m x r matrix, or a map that makes the loop ill
    posed: cy = E_0k / p[k][0] for a nonzero p[k][0], so (I - cy@p) @ e_0
    = 0."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("youla", "drawn", "ill-posed")))
    if kind == "youla":
        plant = draw(proper_matrices(rows, cols, strict=True))
        k = draw(proper_matrices(cols, rows, roots=st.integers(1, 4)))
        try:
            return plant, youla_controller(plant, k)
        except InadmissibleParameter:
            kind = "drawn"  # a singular v - k@nl'
    plant = draw(proper_matrices(rows, cols))
    column = [i for i in range(rows) if not plant.entry(i, 0).is_zero()]
    if kind == "ill-posed" and column:
        k = draw(st.sampled_from(column))
        return plant, RatMat(
            [[plant.entry(k, 0).inv() if (i, j) == (0, k) else 0 for j in range(rows)] for i in range(cols)]
        )
    return plant, draw(proper_matrices(cols, rows))


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(feedback_pairs())
def test_gang_of_four_equals_the_inversion_formula_on_drawn_pairs(pair):
    # the loop read off one point, with its maps, against RatMat.inv of
    # I - cy@p: the same maps, or IllPosedLoop on both sides
    plant, cy = pair
    try:
        expected = oracle_gang_of_four(plant, cy)
    except IllPosedLoop:
        event("ill posed")
        with pytest.raises(IllPosedLoop):
            gang_of_four(plant, cy)
        return
    event(f"{plant.shape[0]}x{plant.shape[1]}")
    assert tuple(gang_of_four(plant, cy)) == expected


def fraction_loops(monkeypatch):
    """The loops ``_fraction_loop`` forms, in order, as they are returned."""
    formed = []
    original = twodof.stabilize._fraction_loop

    def spy(*args):
        formed.append(original(*args))
        return formed[-1]

    for module in (twodof.stabilize, twodof.synthesis):
        monkeypatch.setattr(module, "_fraction_loop", spy)
    return formed


def assert_loop_is_the_reference(formed, plant, controller, verdict):
    """The one loop a design formed from its fractions has the maps, the
    per-map verdicts and the verdict of gang_of_four on (plant,
    controller), its verdict decided on its one denominator equals the
    one read off its maps, and the design returned that verdict."""
    (loop,) = formed
    expected = gang_of_four(plant, controller)
    assert loop.maps == expected
    assert loop.maps.verdicts == expected.verdicts
    assert loop.verdict == loop.maps.verdict == expected.verdict == verdict
    formed.clear()


def test_restricted_loop_designs_form_the_loop_of_gang_of_four(monkeypatch):
    # the scalar examples, then criterion 3's drawn 2x2 instances
    siso = right_coprime_mfd(parse_matrix("1/(s-2)"))
    cases = [
        (siso, PolyMat([[Poly((Fraction(-1, 2), Fraction(-1, 4)))]]), PolyMat([[S + 2 * ONE]])),
        (siso, PolyMat([[Poly((Fraction(-1, 3), Fraction(-1, 3)))]]), PolyMat([[S + 3 * ONE]])),
    ]
    for mfd, d_t in criterion_3_instances():
        if len(cases) == 52:
            break
        try:
            denominator_assignment_unity(mfd, d_t)
            denominator_assignment_direct(mfd, d_t)
        except DesignObstruction:
            continue  # criterion 3 skips the same instances
        cases.append((mfd, d_t, d_t))
    formed = fraction_loops(monkeypatch)
    for mfd, d_unity, d_direct in cases:
        plant = mfd.plant()
        res = denominator_assignment_unity(mfd, d_unity)
        assert all(c.passed for c in res.certificates)
        assert_loop_is_the_reference(formed, plant, res.configuration.cff, res.verdict)
        res = denominator_assignment_direct(mfd, d_direct)
        assert all(c.passed for c in res.certificates)
        assert_loop_is_the_reference(formed, plant, res.configuration.cfb, res.verdict)

    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s-1)*(s+2)/(s-2)^2")), 2)
    witness = RatMat([[RatFn(3 * S - 42 * ONE, (S + ONE) ** 2)]])
    for xprime in (find_admissible_unity_xprime(smfd), witness):
        cff, maps = unity_feedback_controller(smfd, xprime)
        assert_loop_is_the_reference(formed, smfd.plant(), cff, maps.verdict)


def test_lx_sweep_returns_the_pulled_back_youla_controller(monkeypatch):
    # l = d**-1 @ cy @ (I - p@cy)**-1 pulls a stabilizing cy back into the
    # sweep, which must return that cy with the loop of gang_of_four
    rng = random.Random(75)
    formed = fraction_loops(monkeypatch)
    plants = [parse_matrix("1/(s-2)")] + [
        random_matrix(rng, 2, 2, 2, range(-3, 4), strict=True) for _ in range(6)
    ]
    for plant in plants:
        m = plant.shape[0]
        mfd = right_coprime_mfd(plant)
        k = None if m == 1 else random_matrix(rng, m, m, 1, range(1, 6))
        cy = youla_controller(plant, k)
        l = mfd.d.to_ratmat().inv() @ cy @ (RatMat.identity(m) - plant @ cy).inv()
        top = max(e.degree() or 0 for row in mfd.d.rows for e in row)
        x = RatMat.identity(m).scale(RatFn(ONE, (S + ONE) ** top))
        formed.clear()
        controller, verdict = all_controllers_from_LX(mfd, l, x)
        assert controller.cy == cy
        assert_loop_is_the_reference(formed, plant, cy, verdict)
        assert verdict
        assert plant @ gang_of_four(plant, cy).sens @ controller.cr == mfd.n.to_ratmat() @ x


def test_a_wrong_witness_fails_the_bezout_certificate():
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    # a strictly proper nudge keeps cy proper; only u@n' + v@d' = I breaks
    u = data.u + RatMat([[RatFn(ONE, S + ONE), 0], [0, 0]])
    bad = StableMFD(data.nprime, data.dprime, u, data.v, data.shift, data.col_degrees, data.source)
    with pytest.raises(ArithmeticError, match=re.escape("parametrized loop fails")):
        _youla_feedback(bad, K_2X2)


def test_a_wrong_central_witness_fails_the_bezout_certificate():
    # k = 0 reads the witness of the analysis it is given: with u = 5 the
    # design once passed every certificate, yet its loop gave y/r other
    # than the target
    plant, target = parse_matrix("(s+2)/((s-1)*(s+3))"), parse_matrix("(s+2)/(s+1)^2")
    data = stable_mfd(right_coprime_mfd(plant))
    with pytest.raises(ArithmeticError, match=re.escape("parametrized loop fails")):
        model_matching(data._replace(u=RatMat([[RatFn(5)]])), target)


def test_an_unstable_witness_fails_the_loop_verdict():
    # The witness of an unstable parameter, u + k@dl' and v - k@nl' with
    # k = [1/(s-1), 0; 0, 0], still solves u@n' + v@d' = I: den*psi then
    # has the root 1, the verdict falls back to the formed maps, and the
    # refusal names the factor.
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    k = RatMat([[RatFn(ONE, S - ONE), 0], [0, 0]])
    u, v = data.u + k @ data.dl_prime, data.v - k @ data.nl_prime
    bad = StableMFD(data.nprime, data.dprime, u, v, data.shift, data.col_degrees, data.source)
    with pytest.raises(
        ArithmeticError,
        match=re.escape(
            "parametrized compensator failed validation: "
            "unstable; offending factors: s - 1 (right-half-plane root)"
        ),
    ):
        _youla_feedback(bad)


def test_a_cancelled_unstable_factor_is_decided_on_the_reduced_maps():
    # A left pair scaled by (s+1)/(s-1) still solves [-nl' | dl'] @ [d'; n'] = 0,
    # so k = 0 passes both certificates, while den and every entry of
    # [l | r] carry the factor s - 1.  den*psi is not Hurwitz, and the
    # verdict read off the reduced maps is stable.
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    scaled = StableMFD(
        data.nprime, data.dprime, data.u, data.v, data.shift, data.col_degrees, data.source
    )
    g = RatFn(S + ONE, S - ONE)
    object.__setattr__(scaled, "_left", tuple(mat.scale(g) for mat in data._left))
    cy, _, loop = _youla_feedback(scaled, RatMat.zeros(2, 2))
    assert not is_hurwitz(loop.q)
    assert all(e % (S - ONE) == ZERO for row in loop.row.rows for e in row)
    assert "maps" in vars(loop) and loop.verdict
    assert cy == youla_controller(UNSTABLE_2X2)
    assert tuple(loop.maps) == tuple(gang_of_four(UNSTABLE_2X2, cy))


def test_a_wrong_adjugate_fails_the_compensator_certificate(monkeypatch):
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    data.dl_prime  # the left pair, formed before the adjugate is broken
    original = twodof.stabilize._polymat_det_adj

    def wrong(a):
        det, adj = original(a)
        return det, adj.scale(2)

    # every k, the central k = 0 included, takes its adjugate in _youla_feedback
    monkeypatch.setattr(twodof.stabilize, "_polymat_det_adj", wrong)
    fresh = StableMFD(
        data.nprime, data.dprime, data.u, data.v, data.shift, data.col_degrees, data.source
    )
    for smfd, k in ((fresh, None), (data, K_2X2)):
        with pytest.raises(ArithmeticError, match=re.escape("compensator fails")):
            _youla_feedback(smfd, k)


def test_closed_loop_forms_its_maps_through_gang_of_four(monkeypatch):
    cy = youla_controller(UNSTABLE_2X2, K_2X2)
    calls = []
    original = twodof.verify.gang_of_four

    def counted(p, c):
        calls.append((p, c))
        return original(p, c)

    monkeypatch.setattr(twodof.verify, "gang_of_four", counted)
    config = TwoDofConfig(cy=cy, cr=RatMat.identity(2))
    report = twodof.verify.closed_loop(UNSTABLE_2X2, config)
    assert calls == [(UNSTABLE_2X2, cy)]
    assert tuple(mat for _, mat, _ in report.internal_maps) == tuple(
        _youla_feedback(stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1), K_2X2)[2].maps
    )
