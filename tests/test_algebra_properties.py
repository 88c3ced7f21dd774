"""Property tests of the exact algebra: the ring laws of `Poly`, the field
laws of `RatFn`, `poly_gcd`, and the print/parse round trip of `RatFn`
values well inside the parser's caps (``tests/test_cli.py`` checks the
round trip at the degree cap).  The product, gcd and normalisation run
over Z; they are also checked against the plain `Fraction` algorithms
(schoolbook product, Euclid's gcd, division by the gcd), kept here as
oracles, and the Bareiss kernel against Gauss-Jordan over `RatFn`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from test_polyalg import oracle_inv_det, polymat_det_cofactor
from twodof.cli import parse_matrix, parse_rational
from twodof.polyalg import ONE, ZERO, Poly, PolyMat, RatFn, poly_divmod, poly_gcd, polymat_det

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def polys(max_degree=4):
    return st.lists(coefficients, max_size=max_degree + 1).map(
        lambda cs: Poly(tuple(cs))
    )


nonzero_polys = polys().filter(lambda p: not p.is_zero())


@st.composite
def ratfns(draw, max_degree=3):
    den = draw(polys(max_degree).filter(lambda p: not p.is_zero()))
    return RatFn(draw(polys(max_degree)), den)


@SETTINGS
@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and -(-a) == a


@SETTINGS
@given(polys(6), nonzero_polys)
def test_poly_division(a, b):
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()


@SETTINGS
@given(polys(), polys(), nonzero_polys)
def test_poly_gcd_is_monic_and_divides_both(a, b, h):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a * h, b * h)
    assert g.leading == 1
    assert poly_divmod(a * h, g)[1].is_zero()
    assert poly_divmod(b * h, g)[1].is_zero()
    assert poly_divmod(g, h.monic())[1].is_zero()  # a common factor divides the gcd


@SETTINGS
@given(ratfns(), ratfns(), ratfns())
def test_ratfn_field_laws(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RatFn(ZERO) and a * RatFn(ONE) == a
    if not a.is_zero():
        assert a * a.inv() == RatFn(ONE)
        assert (b / a) * a == b
    assert a.den.leading == 1  # canonical form: monic denominator
    assert poly_gcd(a.num, a.den).is_constant() or a.is_zero()


@SETTINGS
@given(ratfns(max_degree=6))
def test_printed_ratfn_parses_back(value):
    assert parse_rational(str(value)) == value



# -- the integer kernel against the Fraction algorithms it replaced -----------


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out))


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def normalised(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den in lowest terms with a monic denominator, by division."""
    if num.is_zero():
        return ZERO, ONE
    g = euclid_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    lc = den.leading
    return Poly(tuple(c / lc for c in num.coeffs)), Poly(tuple(c / lc for c in den.coeffs))


@st.composite
def mixed_polys(draw, max_degree=5):
    """Integer content times coefficients over mixed denominators, with
    either sign of the leading coefficient."""
    size = draw(st.integers(0, max_degree + 1))
    nums = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    content = draw(st.sampled_from([1, 2, 6, 15])) * draw(st.sampled_from([1, -1]))
    return Poly(tuple(Fraction(content * n, d) for n, d in zip(nums, dens)))


nonzero_mixed = mixed_polys().filter(lambda p: not p.is_zero())


@SETTINGS
@given(mixed_polys(), mixed_polys())
def test_product_matches_schoolbook(a, b):
    assert a * b == schoolbook_mul(a, b)


@SETTINGS
@given(mixed_polys(), mixed_polys(), nonzero_mixed)
def test_gcd_matches_euclid(a, b, h):
    if a.is_zero() and b.is_zero():
        return
    a, b = schoolbook_mul(a, h), schoolbook_mul(b, h)
    assert poly_gcd(a, b) == euclid_gcd(a, b)


@SETTINGS
@given(mixed_polys(), nonzero_mixed, nonzero_mixed)
def test_ratfn_normalisation_matches_division(num, den, h):
    num, den = schoolbook_mul(num, h), schoolbook_mul(den, h)
    value = RatFn(num, den)
    assert (value.num, value.den) == normalised(num, den)


def test_bareiss_divides_by_pivots_with_integer_content():
    # the first pivot 2s + 4 = 2(s + 2) divides every later entry of the
    # 2x2; in the 3x3 the second pivot 4s + 12 = 4(s + 3) is divided out too
    for text in ["2*s+4, 1; s, 3", "2*s+4, 2, 1; s, 3, s; 1, s, 2*s+2"]:
        a = parse_matrix(text)
        num = PolyMat([[e.num for e in row] for row in a.rows])
        inv, det, _ = oracle_inv_det(a)
        assert a.inv() == inv and a.det() == det
        assert polymat_det(num) == polymat_det_cofactor(num) == det.num
