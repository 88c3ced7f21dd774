"""Property tests of the exact algebra: the ring laws of `Poly`, the field
laws of `RatFn`, `poly_gcd`, and the print/parse round trip of `RatFn`
values well inside the parser's caps (``tests/test_cli.py`` checks the
round trip at the degree cap)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from twodof.cli import parse_rational
from twodof.polyalg import ONE, ZERO, Poly, RatFn, poly_divmod, poly_gcd

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

