"""Differential test of the in-house factorisation over Z
(``twodof.zfactor`` behind ``stability.irreducible_factors``) against
sympy's ``factor_list``, a test-only oracle: the same monic factors with
the same multiplicities, in the same order."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import random_poly
from twodof.polyalg import ONE, S, ZERO, Poly
from twodof.stability import irreducible_factors

_X = sympy.Symbol("s")


def sympy_factors(p: Poly) -> list[tuple[Poly, int]]:
    expr = sum(sympy.Rational(c.numerator, c.denominator) * _X**k for k, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, _X, domain="QQ"))
    out = []
    for f, mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(f, _X).all_coeffs()]
        out.append((Poly(tuple(reversed(coeffs))).monic(), int(mult)))
    return out


def from_ints(*coeffs: int) -> Poly:
    """Polynomial from integer coefficients, highest power first."""
    return Poly(tuple(Fraction(c) for c in reversed(coeffs)))


def test_criterion_5_polynomials():
    # the draws of test_acceptance's criterion 5 (seed 23, degree 1-8),
    # those it skips for a root near the axis included
    rng = random.Random(23)
    checked = 0
    while checked < 1000:
        poly = random_poly(rng, rng.randint(1, 8))
        assert irreducible_factors(poly.monic()) == sympy_factors(poly), poly
        roots = np.roots([float(poly.coeff(k)) for k in range(poly.degree(), -1, -1)])
        if not any(abs(z.real) < 1e-9 for z in roots):
            checked += 1


HARD = {
    # irreducible, yet split into linear or quadratic factors mod every
    # prime: recombination must reassemble all four
    "s^4 - 10 s^2 + 1": from_ints(1, 0, -10, 0, 1),
    "s^12 + 1": S**12 + ONE,
    **{f"s^{n} - 1": S**n - ONE for n in (2, 4, 6, 12, 15, 24)},
    # leading coefficient divisible by 3, 5 and 7: the first good prime is 11
    "lc 105": from_ints(105, 0, 1) * from_ints(3, -5) * from_ints(35, 2),
    "lc 105, irreducible": from_ints(105, 0, 1, 1),
    "coefficients above 2^64": from_ints(2**70, 3) * from_ints(1, 0, 2**66 + 1)
    * from_ints(1, -(2**65)),
    "linear factor of multiplicity 5": (S - 7 * ONE) ** 5 * (S**2 + ONE),
    "s^3 (s + 1)^2": S**3 * (S + ONE) ** 2,
    "rational coefficients": Poly((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))),
    "constant": Poly((Fraction(-3, 4),)),
    "one": ONE,
    "zero": ZERO,
}


@pytest.mark.parametrize("name", list(HARD))
def test_hard_cases(name):
    assert irreducible_factors(HARD[name]) == sympy_factors(HARD[name])


def test_constants_have_no_factors():
    assert irreducible_factors(Poly((Fraction(7),))) == []
    assert irreducible_factors(ZERO) == []


small_ints = st.integers(min_value=-9, max_value=9)
factors = st.tuples(
    st.lists(small_ints, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=9),  # leading coefficient
    st.integers(min_value=1, max_value=3),  # multiplicity
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.lists(factors, min_size=1, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0),
)
def test_products_with_multiplicities(parts, scale):
    poly = Poly((scale,))
    for low, lead, mult in parts:
        poly = poly * Poly(tuple(Fraction(c) for c in low + [lead])) ** mult
    assert irreducible_factors(poly) == sympy_factors(poly)
