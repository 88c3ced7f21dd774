"""gang_of_four and the Youla controller, formed over one polynomial
denominator, agree with the inversion formulas over rational entries.

The oracles below invert I - cy@p and v - k@nl' with RatMat.inv, as the
package did before both were written as adj / det of a polynomial matrix.
"""

import random
import re
from fractions import Fraction

import pytest

from twodof.polyalg import ONE, S, Poly, RatFn, RatMat, SingularMatrixError
from twodof.stabilize import (
    IllPosedLoop,
    InadmissibleParameter,
    gang_of_four,
    rh_coprime_data,
    youla_controller,
)

SHAPES = [(1, 1), (2, 2), (2, 1), (1, 2)]


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
        assert cy == oracle_youla(rh_coprime_data(plant, shift), k)
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
    plant = RatMat([[RatFn(ONE, S - ONE), RatFn(2 * ONE, S + 2 * ONE)],
                    [RatFn(ONE, S + 3 * ONE), RatFn(ONE, S + ONE)]])
    k = RatMat([[RatFn(S, S + ONE), RatFn(ONE)], [RatFn(ONE, S + 2 * ONE), RatFn(-2 * ONE)]])
    rh_coprime_data(plant, 1)  # the plant's analysis, cached, may invert
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
    data = rh_coprime_data(plant, 1)
    k = data.v @ data.nl_prime.inv()
    with pytest.raises(
        InadmissibleParameter,
        match=re.escape("parameter makes v - k@nl' singular; no compensator exists"),
    ):
        youla_controller(plant, k)
