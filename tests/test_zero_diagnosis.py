"""A refused model matching, diagonal decoupling or inversion names the
plant's unstable zeros from the verdict that refused it.

``synthesis._unstable_zero_diagnosis`` and ``_decoupling_zero_diagnosis``
take their candidate points from the linear factors of the verdict on the
parameter (x, or x' for decoupling), keep those that are roots of the
plant's zero polynomial, and factor nothing of the plant;
``inverse_problem`` lists the roots of every factor the verdict on
x' = n'**-1 names.  The oracles below are the former diagnoses, which read
every unstable zero off ``zeros_and_poles``: each pair must give the same
reasons in the same order, on scalar, 2x2, 2x1 and 1x2 plants for
matching, and on scalar and 2x2 plants for decoupling and inversion.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodof.cli import parse_matrix
from twodof.factor import _fmt_root, right_coprime_mfd, stable_mfd, zeros_and_poles
from twodof.polyalg import ONE, S, ZERO, RatFn, RatMat, SingularMatrixError, _solve_polymat
from twodof.stability import matrix_is_stable, rh_inf_verdict
from twodof.synthesis import (
    DesignObstruction,
    _decoupling_zero_diagnosis,
    _unstable_zero_diagnosis,
    inverse_problem,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=80, database=None)


def oracle_diagnosis(mfd, t):
    """The diagnosis as it read the factored zeros of ``zeros_and_poles``."""
    reasons = []
    for zero in zeros_and_poles(mfd).unstable_zeros():
        z = zero.location
        if not isinstance(z, Fraction):
            continue  # irrational locations are covered by the exact verdict
        vals = t.eval_at(z)
        if any(v is None for row in vals for v in row):
            continue
        if zero.direction is not None and all(isinstance(c, Fraction) for c in zero.direction):
            eta = zero.direction
            combo = [
                sum(eta[i] * vals[i][j] for i in range(len(eta)))
                for j in range(t.shape[1])
            ]
            if any(c != 0 for c in combo):
                reasons.append(
                    f"plant unstable zero at s = {z} is not inherited by the target"
                    f" (direction eta with eta^T N({z}) = 0 has eta^T T({z}) != 0)"
                )
        elif any(v != 0 for row in vals for v in row):
            reasons.append(f"plant unstable zero at s = {z} is not a zero of the target")
    return reasons


# zeros at 0, 1/2, 1 and 2, a stable one, and the irrational pair of s^2 - 2
ZERO_FACTORS = [S, 2 * S - ONE, S - ONE, S - 2 * ONE, S + 3 * ONE, S * S - 2 * ONE]
POLE_FACTORS = [S + ONE, S + 2 * ONE, S - 3 * ONE, S + 4 * ONE]
DIAGONAL = "(s-2)^2/(s+1)^2, 0; 0, (s-1)/(s+1)"


def product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


@st.composite
def plant_entries(draw, zero_factors=ZERO_FACTORS):
    """c * (zero factors) / (pole factors), proper: a factor may repeat."""
    num = product(draw(st.lists(st.sampled_from(zero_factors), max_size=2)))
    extra = draw(st.integers(0, 1))
    den = product(draw(st.lists(
        st.sampled_from(POLE_FACTORS), min_size=num.degree() + extra,
        max_size=num.degree() + extra,
    )))
    return RatFn(num * draw(st.sampled_from([1, -1, 2])), den)


@st.composite
def target_entries(draw):
    """Zero factors the target keeps or drops, over a Hurwitz (s + 1)^k."""
    if draw(st.integers(0, 5)) == 0:
        return RatFn(ZERO)
    num = product(draw(st.lists(st.sampled_from(ZERO_FACTORS), max_size=3)))
    k = num.degree() + draw(st.integers(0, 1))
    return RatFn(num * draw(st.sampled_from([1, 3])), (S + ONE) ** k)


@st.composite
def plants_and_targets(draw):
    rows, cols = draw(st.sampled_from([(1, 1), (2, 2), (2, 1), (1, 2)]))
    plant = RatMat([[draw(plant_entries()) for _ in range(cols)] for _ in range(rows)])
    width = draw(st.integers(1, 2))
    target = RatMat([[draw(target_entries()) for _ in range(width)] for _ in range(rows)])
    return plant, target


# the reason at s = 1, a simple zero, comes before the one at the double
# zero s = 2: against the order of the coefficients, and of the factors
# the verdict on x = diag(.../(s-2)^2, .../(s-1)) names
@example((parse_matrix(DIAGONAL), parse_matrix("1/(s+1), 0; 0, 1/(s+1)")))
# a double zero at s = 2 inherited once: t(2) = 0, so s = 1 alone is named
@example((parse_matrix("(s-2)^2*(s-1)/(s+1)^3"), parse_matrix("(s-2)/(s+1)^2")))
# the pole of x at s = 1 is no zero of this 1x2 plant: no reason
@example((parse_matrix("(s-1)/(s+1), 1/(s+2)"), parse_matrix("1/(s+1)")))
@example((parse_matrix("s*(2*s-1)/(s+1)^2"), parse_matrix("1/(s+1)")))
@example((parse_matrix("(s^2-2)*(s-1)/(s+1)^3"), parse_matrix("1/(s+1)")))
@example((parse_matrix("(s-1)/(s+1), 1/(s+2); 1/(s+3), (s-2)/(s+1)"),
          parse_matrix("1/(s+1), 0; 0, 1/(s+1)")))
@example((parse_matrix("(s-1)/(s+1); (s-1)*(s-2)/(s+2)^2"), parse_matrix("(s-1)/(s+1)^2; 1/(s+1)")))
@SETTINGS
@given(plants_and_targets())
def test_diagnosis_from_the_verdict_matches_the_factored_zeros(case):
    plant, t = case
    mfd = right_coprime_mfd(plant)
    x = _solve_polymat(mfd.n, t)
    if x is None:
        return  # a rank violation is refused before any zero is named
    xv = matrix_is_stable(x)
    reasons = [] if xv else _unstable_zero_diagnosis(mfd, t, xv)
    assert tuple(reasons) == tuple(oracle_diagnosis(mfd, t))


def test_a_simple_zero_is_named_before_a_double_one():
    mfd = right_coprime_mfd(parse_matrix(DIAGONAL))
    t = parse_matrix("1/(s+1), 0; 0, 1/(s+1)")
    x = _solve_polymat(mfd.n, t)
    reasons = _unstable_zero_diagnosis(mfd, t, matrix_is_stable(x))
    assert [r.split(" is ")[0] for r in reasons] == [
        "plant unstable zero at s = 1", "plant unstable zero at s = 2"
    ]


def oracle_decoupling_diagnosis(smfd, targets, xprime):
    """The decoupling diagnosis as it read the factored zeros of
    ``zeros_and_poles``."""
    reasons = []
    for zero in zeros_and_poles(smfd.source).unstable_zeros():
        z = zero.location
        if not isinstance(z, Fraction):
            continue
        misses = [
            i + 1
            for i, tgt in enumerate(targets)
            if tgt.at(z) not in (None, Fraction(0))
            and any(row[i].den(z) == 0 for row in xprime.rows)
        ]
        if misses:
            reasons.append(
                f"plant unstable zero at s = {z} must be a zero of target(s) "
                + ", ".join(str(i) for i in misses)
            )
    return reasons


@st.composite
def square_plants_and_targets(draw):
    size = draw(st.sampled_from([1, 2]))
    plant = RatMat([[draw(plant_entries()) for _ in range(size)] for _ in range(size)])
    return plant, tuple(draw(target_entries()) for _ in range(size))


ONE_OVER = parse_matrix("1/(s+1)").entry(0, 0)


# the simple zero s = 1 before the double zero s = 2, against the order of
# the coefficients and of the factors the verdict on x' names
@example((parse_matrix(DIAGONAL), (ONE_OVER, ONE_OVER)))
# the zero s = 1 sits in column 1 alone: target 2 is not named
@example((parse_matrix("(s-1)/(s+1)^2, 0; 0, 1/(s+2)"), (ONE_OVER, ONE_OVER)))
@example((parse_matrix("(s-1)/(s+1), 1/(s+2); 1/(s+3), (s-2)/(s+1)"), (ONE_OVER, ONE_OVER)))
@SETTINGS
@given(square_plants_and_targets())
def test_decoupling_diagnosis_from_the_verdict_matches_the_factored_zeros(case):
    plant, targets = case
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    try:
        xprime = smfd.nprime.inv() @ RatMat.diag(list(targets))
    except SingularMatrixError:
        return  # a singular plant is refused before any zero is named
    reasons = _decoupling_zero_diagnosis(smfd, targets, xprime, rh_inf_verdict(xprime))
    assert tuple(reasons) == tuple(oracle_decoupling_diagnosis(smfd, targets, xprime))


def oracle_inversion_reasons(smfd):
    """The reasons ``inverse_problem`` gave when it listed the unstable
    zeros of ``zeros_and_poles``, or None when it inverts the plant."""
    try:
        xprime = smfd.nprime.inv()
    except SingularMatrixError:
        return ("plant transfer matrix is singular; no inverse exists",)
    verdict = rh_inf_verdict(xprime)
    control = smfd.dprime @ xprime
    if verdict and control.is_proper():
        return None
    reasons = ["exact inversion impossible for this plant"]
    for zero in zeros_and_poles(smfd.source).unstable_zeros():
        reasons.append(f"plant has an unstable zero at s = {_fmt_root(zero.location)}")
    if not xprime.is_proper() or not control.is_proper():
        reasons.append("plant has positive relative degree (n'**-1 improper)")
    if not verdict.stable:
        reasons.append("parameter verdict: " + verdict.describe())
    return tuple(reasons)


# the zero factors above, with an axis pair and a factor with both an axis
# pair and a right-half-plane root, which the verdict names twice
INVERSION_ZERO_FACTORS = [*ZERO_FACTORS, S * S + ONE, S**4 + S * S - ONE]


@st.composite
def square_plants(draw):
    size = draw(st.sampled_from([1, 2]))
    entries = plant_entries(INVERSION_ZERO_FACTORS)
    return RatMat([[draw(entries) for _ in range(size)] for _ in range(size)])


# the simple zero s = 1 before the double zero s = 2, against the order of
# the coefficients and of the factors the verdict on x' names
@example(parse_matrix(DIAGONAL))
# s^4 + s^2 - 1, named for both reasons, is listed once
@example(parse_matrix("(s^4+s^2-1)*(s-1)/(s+1)^5"))
@example(parse_matrix("(s^2-2)/(s+1)^3"))
@example(parse_matrix("(s-1)^2*(s^2+1)/(s+1)^4, 1/(s+2); 1/(s+3), (s^2-2)/(s+1)^2"))
@example(parse_matrix("(s-1)/(s+1)^2, 0; 0, 1/(s+2)"))
@SETTINGS
@given(square_plants())
def test_inversion_refusal_from_the_verdict_matches_the_factored_zeros(plant):
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    expected = oracle_inversion_reasons(smfd)
    if expected is None:
        return  # the plant is inverted: no zero is named
    with pytest.raises(DesignObstruction) as err:
        inverse_problem(smfd)
    assert err.value.reasons == expected
