"""gang_of_four and the Youla controller, formed over one polynomial
denominator, agree with the inversion formulas over rational entries, and
the loop maps of a Youla design, formed as one product when read, agree
with both; its verdict, decided on their one denominator, agrees too.

The oracles below invert I - cy@p and v - k@nl' with RatMat.inv, as the
package did before both were written as adj / det of a polynomial matrix.
"""

import random
import re
from fractions import Fraction

import pytest

import twodof.factor
import twodof.stabilize
import twodof.verify
from twodof.factor import StableMFD, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, ZERO, Poly, RatFn, RatMat, SingularMatrixError
from twodof.stability import is_hurwitz
from twodof.stabilize import (
    IllPosedLoop,
    InadmissibleParameter,
    TwoDofConfig,
    _youla_feedback,
    gang_of_four,
    youla_controller,
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
    return (lhs.inv() @ rhs).scale(RatFn.of(-1))


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
        match=re.escape("parameter makes v - k@nl' singular; no compensator exists"),
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
            cy, loop = _youla_feedback(data, k)
            expected = gang_of_four(plant, cy)
            assert tuple(loop.maps) == tuple(expected) == oracle_gang_of_four(plant, cy)
            assert loop.maps.verdicts == expected.verdicts
            assert loop.verdict == loop.maps.verdict == expected.verdict


def test_a_wrong_witness_fails_the_bezout_certificate():
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    # a strictly proper nudge keeps cy proper; only u@n' + v@d' = I breaks
    u = data.u + RatMat([[RatFn(ONE, S + ONE), 0], [0, 0]])
    bad = StableMFD(data.nprime, data.dprime, u, data.v, data.shift, data.col_degrees, data.source)
    with pytest.raises(ArithmeticError, match=re.escape("parametrized loop fails")):
        _youla_feedback(bad, K_2X2)


def test_an_unstable_witness_fails_the_loop_verdict():
    # Nothing checks the central witness of a copy of the analysis: den*psi
    # then has the root 1, the verdict falls back to the formed maps, and
    # the refusal names the factor.
    data = stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1)
    u = data.u + RatMat([[RatFn(ONE, S - ONE), 0], [0, 0]])
    bad = StableMFD(data.nprime, data.dprime, u, data.v, data.shift, data.col_degrees, data.source)
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
    cy, loop = _youla_feedback(scaled, RatMat.zeros(2, 2))
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

    monkeypatch.setattr(twodof.stabilize, "_polymat_det_adj", wrong)
    # the central loop's adjugate is the analysis' own (witness_inverse),
    # formed on first use: a copy of the analysis has none yet
    monkeypatch.setattr(twodof.factor, "_polymat_det_adj", wrong)
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
        _youla_feedback(stable_mfd(right_coprime_mfd(UNSTABLE_2X2), 1), K_2X2)[1].maps
    )
