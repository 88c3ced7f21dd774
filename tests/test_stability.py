import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_algebra_properties import FractionCounter
from twodof.polyalg import ONE, S, ZERO, Poly, RatFn, RatMat
from twodof.stability import (
    REASON_AXIS,
    REASON_RHP,
    StabilityVerdict,
    _routh_is_hurwitz,
    count_real_roots,
    hurwitz_shift_polynomial,
    irreducible_factors,
    is_hurwitz,
    is_stable,
    matrix_is_stable,
    rh_inf_verdict,
)


def p(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


def test_hurwitz_known_cases():
    assert is_hurwitz((S + ONE) * (S + 2 * ONE))
    assert is_hurwitz(ONE)  # constants have no roots
    assert not is_hurwitz(S - 2 * ONE)
    assert not is_hurwitz(S)  # root on the axis
    assert not is_hurwitz(p(1, 0, 1))  # s^2 + 1
    assert not is_hurwitz(p(1, 0, 2, 0, 1))  # (s^2+1)^2, degenerate Routh row
    assert is_hurwitz(p(1, 3, 3, 1))  # (s+1)^3
    # classic boundary example: s^3 + s^2 + s + 1 = (s+1)(s^2+1)
    assert not is_hurwitz(p(1, 1, 1, 1))


def test_offending_factor_classification():
    q = (S - 2 * ONE) * (S + ONE) * p(4, 0, 1)  # (s-2)(s+1)(s^2+4)
    verdict = is_hurwitz(q)
    assert not verdict
    reasons = {str(factor): reason for factor, reason in verdict.offending_factors}
    assert reasons["s - 2"] == REASON_RHP
    assert reasons["s^2 + 4"] == REASON_AXIS
    assert "s + 1" not in reasons
    # symmetric factors: a positive real root of the even compression w,
    # complex roots of w, and one negative and one positive root of w
    for q, want in (
        (p(-2, 0, 1), [REASON_RHP]),
        (p(1, 0, 0, 0, 1), [REASON_RHP]),
        (p(-1, 0, 1, 0, 1), [REASON_RHP, REASON_AXIS]),
    ):
        verdict = is_hurwitz(q)
        assert verdict.offending_factors == tuple((q, reason) for reason in want)


def test_verdict_bool_and_merge():
    good = StabilityVerdict(True)
    bad = StabilityVerdict(False, ((S - ONE, REASON_RHP),))
    assert good and not bad
    merged = good.merged(bad)
    assert not merged and merged.offending_factors == bad.offending_factors
    twice = bad.merged(bad)
    assert len(twice.offending_factors) == 1  # duplicates collapse


def test_irreducible_factors_exact():
    q = (S + ONE) ** 2 * (S - 3 * ONE) * p(2, 2, 1)
    factors = dict(irreducible_factors(q))
    assert factors[S + ONE] == 2
    assert factors[S - 3 * ONE] == 1
    assert factors[p(2, 2, 1).monic()] == 1


def test_count_real_roots_sturm():
    q = (S - ONE) * (S + 2 * ONE) * (S - 5 * ONE)
    assert count_real_roots(q) == 3
    assert count_real_roots(q, Fraction(0)) == 2  # roots at 1 and 5
    assert count_real_roots(q, Fraction(0), Fraction(2)) == 1
    assert count_real_roots(p(1, 0, 1)) == 0
    assert count_real_roots(p(3)) == 0


def test_random_against_companion_eigenvalues():
    rng = random.Random(101)
    checked = 0
    while checked < 300:
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [Fraction(1)]
        q = Poly(tuple(coeffs))
        roots = np.roots([float(c) for c in reversed(coeffs)])
        if len(roots) and np.max(np.abs(np.real(roots))) < 1e-9:
            continue
        if len(roots) and np.min(np.abs(np.real(roots))) < 1e-9:
            continue  # too close to the axis for the float oracle
        expected = bool(len(roots) == 0 or np.max(np.real(roots)) < 0)
        assert bool(is_hurwitz(q)) == expected, q
        checked += 1


def test_rational_and_matrix_stability():
    assert is_stable(RatFn(S - ONE, S + ONE))  # RHS zeros are fine
    assert not is_stable(RatFn(ONE, S - ONE))
    stable_mat = RatMat([[RatFn(ONE, S + ONE), RatFn(S, (S + 2 * ONE) ** 2)]])
    assert matrix_is_stable(stable_mat)
    mixed = RatMat([[RatFn(ONE, S + ONE), RatFn(ONE, S - 3 * ONE)]])
    verdict = matrix_is_stable(mixed)
    assert not verdict
    assert any(str(f) == "s - 3" for f, _ in verdict.offending_factors)


def test_rh_inf_verdict_improper():
    improper = RatMat([[RatFn(S ** 2, S + ONE)]])
    verdict = rh_inf_verdict(improper)
    assert not verdict
    assert "improper" in verdict.describe()
    assert rh_inf_verdict(RatMat([[RatFn(S, S + ONE)]]))


def test_hurwitz_shift_polynomial():
    assert hurwitz_shift_polynomial(1, 2) == (S + ONE) ** 2
    assert hurwitz_shift_polynomial(Fraction(1, 2), 1) == p(Fraction(1, 2), 1)
    assert hurwitz_shift_polynomial(3, 0) == ONE


@pytest.mark.parametrize("call, message", [
    (lambda: _routh_is_hurwitz(ZERO), "stability of the zero polynomial is undefined"),
    (lambda: is_hurwitz(ZERO), "stability of the zero polynomial is undefined"),
    (lambda: count_real_roots(ZERO), "root count of the zero polynomial is undefined"),
    (lambda: hurwitz_shift_polynomial(0, 1), "shift must be positive for a Hurwitz scaling polynomial"),
], ids=["routh", "hurwitz", "root-count", "shift"])
def test_zero_or_nonpositive_input_is_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


# -- the Routh table over Z against the Fraction table it replaced ------------


def routh_over_fractions(p: Poly) -> bool:
    """The Routh test on the monic polynomial's `Fraction` coefficients."""
    n = p.degree()
    if n == 0:
        return True
    c = list(reversed(p.monic().coeffs))  # descending: c[0] = 1
    row_prev = [c[i] for i in range(0, n + 1, 2)]
    row_cur = [c[i] for i in range(1, n + 1, 2)]
    first_column = [row_prev[0]]
    while row_cur:
        if all(e == 0 for e in row_cur) or row_cur[0] == 0:
            return False  # an all-zero row, or a zero pivot with a nonzero row
        first_column.append(row_cur[0])
        nxt = []
        for i in range(max(len(row_prev) - 1, 0)):
            a = row_prev[i + 1] if i + 1 < len(row_prev) else Fraction(0)
            b = row_cur[i + 1] if i + 1 < len(row_cur) else Fraction(0)
            nxt.append((row_cur[0] * a - row_prev[0] * b) / row_cur[0])
        row_prev, row_cur = row_cur, nxt
    return all(e > 0 for e in first_column)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
positive = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
# stable factors, and factors with a root on the axis or to the right
stable_factor = st.one_of(
    positive.map(lambda a: S + a * ONE),
    st.tuples(positive, positive).map(lambda bc: S * S + bc[0] * S + bc[1] * ONE),
)
marginal_factor = st.sampled_from([S, S * S + ONE, S * S + 4 * ONE, S - ONE, S * S - S + ONE])


@st.composite
def routh_cases(draw):
    if draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=1, max_size=8))
        p = Poly(tuple(coeffs))
        return p if not p.is_zero() else ONE
    factors = draw(st.lists(stable_factor, min_size=1, max_size=4))
    factors += draw(st.lists(marginal_factor, max_size=2))
    p = draw(st.sampled_from([ONE, -ONE, Fraction(3, 7) * ONE]))
    for f in factors:
        p = p * f
    return p


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(routh_cases())
@example(p(1, 1, 1, 1, 1))  # s^4 + s^3 + s^2 + s + 1: a zero pivot, the row nonzero
@example(p(4, 0, 5, 0, 1))  # s^4 + 5*s^2 + 4: an all-zero row
@example(p(2, 1, 2, 1))  # (s^2 + 1)(s + 2): an all-zero row further down
@example(Poly((Fraction(1, 3), Fraction(5, 6), Fraction(1, 2))))  # (s + 1)(s + 2/3) / 2
@example(p(-6, -5, -1))  # -(s + 2)(s + 3): Hurwitz whatever the sign
def test_routh_over_z_matches_the_fraction_table(q):
    assert _routh_is_hurwitz(q) == routh_over_fractions(q)


def test_is_hurwitz_builds_no_fraction(monkeypatch):
    cases = [(S + ONE) ** 3 * (S * S + S + 3 * ONE), (S - 2 * ONE) * (S + ONE) * p(4, 0, 1)]
    counter = FractionCounter(monkeypatch)
    verdicts = [is_hurwitz(q) for q in cases]
    assert counter.count == 0
    assert verdicts[0].stable and not verdicts[1].stable
    assert len(verdicts[1].offending_factors) == 2

