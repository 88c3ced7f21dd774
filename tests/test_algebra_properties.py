"""Property tests of the exact algebra: the ring laws of `Poly`, the field
laws of `RatFn`, `poly_gcd`, and the print/parse round trip of `RatFn`
values well inside the parser's caps (``tests/test_cli.py`` checks the
round trip at the degree cap).  `Poly` stores integers over one
denominator, and its arithmetic, gcd and normalisation run over Z; they
are also checked against the plain `Fraction` algorithms (coefficientwise
sum, schoolbook product, division by the leading coefficient, Euclid's
gcd, division by the gcd), kept here as oracles, the Bareiss kernel
against Gauss-Jordan over `RatFn`, ``_rref_z`` and ``_null_vector`` against
Gauss-Jordan over `Fraction`, `RatMat @` against sums of `RatFn` products, the
Bezout witnesses read off the Hermite certificate against the least-degree
search by `poly_row_diophantine`, `hermite` over Z[s] against the `Poly`
loop it replaced, GCDHEU against the primitive remainder sequence, and
`parse_rational` against sympy."""

import copy
import fractions
import math
import pickle
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from test_polyalg import oracle_inv_det, polymat_det_cofactor
from twodof import polyalg
from twodof.cli import ParseError, load_problem, parse_matrix, parse_rational
from twodof.factor import (
    RightMFD,
    _certified,
    poly_row_diophantine,
    right_coprime_mfd,
    stable_mfd,
)
from twodof.polyalg import (
    ONE,
    S,
    ZERO,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    SingularMatrixError,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    polymat_det,
    vstack,
)
from twodof.stabilize import (
    IllPosedLoop,
    _rh_data_cached,
    _youla_feedback,
    gang_of_four,
    solve_bezout,
    youla_controller,
)
from twodof.synthesis import model_matching
from twodof.verify import closed_loop

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)

# The 217 values of st.fractions(min_value=-9, max_value=9, max_denominator=6),
# simplest first (denominator, then size, positive first): sampled_from draws
# and shrinks them at a fraction of that strategy's cost.
COEFFICIENT_VALUES = sorted(
    {Fraction(p, q) for q in range(1, 7) for p in range(-9 * q, 9 * q + 1)},
    key=lambda x: (x.denominator, abs(x), x < 0),
)
coefficients = st.sampled_from(COEFFICIENT_VALUES)


@SETTINGS
@given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
def test_sampled_coefficients_are_the_fraction_strategys_values(x):
    assert x in COEFFICIENT_VALUES
    assert len(COEFFICIENT_VALUES) == len(set(COEFFICIENT_VALUES)) == 217
    assert COEFFICIENT_VALUES[:4] == [0, 1, -1, 2]
    assert all(-9 <= v <= 9 and v.denominator <= 6 for v in COEFFICIENT_VALUES)


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



# Expression texts of the parser's grammar: literals (up to the 100-digit
# cap), s, unsigned exponents, parenthesized groups and a leading '-' on an
# expression.  Every product, quotient and power is drawn, so '/' by a zero
# value occurs, and the parser must refuse it.
atoms = st.one_of(
    st.just("s"), st.integers(0, 12).map(str), st.integers(0, 10**100 - 1).map(str)
)


def expression_texts(inner):
    base = st.one_of(atoms, inner.map(lambda e: f"({e})"))
    factor = st.tuples(base, st.sampled_from(["", "", "^0", "^1", "^2", "^3"])).map("".join)
    tail = st.lists(st.tuples(st.sampled_from(["*", "/"]), factor).map("".join), max_size=2)
    term = st.tuples(factor, tail).map(lambda t: t[0] + "".join(t[1]))
    more = st.lists(st.tuples(st.sampled_from([" + ", " - "]), term).map("".join), max_size=2)
    return st.tuples(st.sampled_from(["", "-"]), term, more).map(
        lambda t: t[0] + t[1] + "".join(t[2])
    )


@SETTINGS
@given(st.recursive(atoms, expression_texts, max_leaves=12))
@example("(s+1)^40/(s+1)^40*s")
@example("-1/4*s - 1/2 + (3*s^2 - 1)/(2*s)")
@example("0^0 - (s-s)^0")
@example("s/(s/0)")
@example("s/0^1")
def test_parse_matches_sympy(text):
    import sympy

    s = sympy.Symbol("s")
    source = text.replace("^", "**")
    # a '/' by a zero value, found on the unevaluated tree (a/b is a*b**-1)
    tree = sympy.parse_expr(source, local_dict={"s": s}, evaluate=False)
    divides_by_zero = any(
        isinstance(node, sympy.Pow) and node.exp == -1 and sympy.cancel(node.base.doit()) == 0
        for node in sympy.preorder_traversal(tree)
    )
    try:
        value = parse_rational(text)
    except ParseError as err:
        if "exceeds the cap" in str(err):
            reject()  # drawn past the degree cap: out of this test's range
        assert "zero denominator" in str(err) and divides_by_zero, text
        return
    assert not divides_by_zero, text
    expected = sympy.cancel(sympy.together(sympy.parse_expr(source, local_dict={"s": s})))
    num, den = (sympy.Poly(p, s, domain="QQ") for p in sympy.fraction(expected))
    lc = den.LC()
    assert (value.num.coeffs, value.den.coeffs) == tuple(
        tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.quo_ground(lc).all_coeffs()))
        if not p.is_zero else ()
        for p in (num, den)
    ), text


# -- the integer kernel against the Fraction algorithms it replaced -----------


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out))


def coefficientwise_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(tuple(a.coeff(k) + b.coeff(k) for k in range(n)))


def divided_monic(a: Poly) -> Poly:
    return Poly(tuple(c / a.leading for c in a.coeffs)) if a.coeffs else a


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
    expected = euclid_gcd(a, b)
    assert poly_gcd(a, b) == expected
    with mock.patch.object(polyalg, "_heu_gcd", lambda *fs: None):  # the PRS alone
        assert poly_gcd(a, b) == expected


# Integer pairs on which GCDHEU takes each of its paths, with the
# evaluation points of each of its calls (``heu_points``): a gcd
# 10**9*s + 7 longer than the first point x, which the square-root cut
# keeps near 99 * sqrt(2 * 10**9) * 2**2, found at the second point;
# contents (6 and 1) taken out where the cut acts, the outer call handing
# the primitive parts to a nested one; a second and a third evaluation
# point; a third point that proves the gcd constant; and four more pairs,
# found at the first or the second point, the last with a gcd of 1.
GCDHEU_PATHS = [
    ([7, 10**9 + 7, 10**9], [21, 10**10, 10**18]),  # 2 points
    ([21, 10**10, 10**18], [7, 10**9 + 7, 10**9]),  # 2 points
    ([39732, -82578, 70860, -26550], [1892, 2014, -1648, -10284, 7965]),  # 0, nested 1
    ([-7553, 10323, -3010], [0, 0, 83, -35]),  # 2 points
    ([220, -1469, -1785], [-11, 63, 159, 107, -170]),  # 3 points
    ([626, 313, -313, -626], [28796, 5321]),  # 3 points, gcd 1
    ([28, -46, -28, 46], [-84, 222, -138]),  # 1 point
    ([30432, 81416, 76946, 16411, -9513], [-48, -44, -19, -29, -63]),  # 1 point
    ([1980, 990, 1980], [0, 2, 1, 0, -1, -2]),  # 2 points
    ([-18432, 18368, 17344, 6432], [0, 0, -32, 0, -32]),  # 2 points, gcd 1
]
GCDHEU_POINTS = [[2], [2], [1, 0], [2], [3], [3], [1], [1], [2], [2]]


@pytest.mark.parametrize("a, b", GCDHEU_PATHS)
def test_gcd_returns_cofactors_on_every_heuristic_path(a, b, monkeypatch):
    counts = heu_points(monkeypatch)
    g, qa, qb = polyalg._gcd(a, b)
    assert counts == GCDHEU_POINTS[GCDHEU_PATHS.index((a, b))]
    assert g == polyalg._primitive(g) == polyalg._prs_gcd(a, b)
    assert polyalg._mul(g, qa) == a and polyalg._mul(g, qb) == b
    assert polyalg._heu_gcd(a, b) == (g, qa, qb)
    expected = euclid_gcd(Poly(tuple(a)), Poly(tuple(b)))
    assert polyalg._from_z(g, g[-1]) == expected


# Pairs by how GCDHEU finds the cofactors at its first point x: certified
# by their size, with no division ((s+1)(s+2) and (s+1)(s+3), x = 280); by
# trial division where the bound fails, b's coefficients 10**30 times a's;
# and at the bound itself.  For a = (s+1)(s+2) and b = 71s^2 - 140s + 70,
# x = 280 and the candidate s + 1 leaves the cofactor 70s + 70 read off
# b(x), with 2 * |s + 1|_1 * 70 = 2 * |b| = x: only a strict bound refuses
# it, as s + 1 does not divide b (their gcd is 1).
CERTIFIED, DIVIDED = "certified", "divided"
CERTIFICATE_PATHS = [
    ([2, 3, 1], [3, 4, 1], CERTIFIED),
    ([2, 3, 1], polyalg._mul([1, 1], [10**30 + 7, -3 * 10**29, 11]), DIVIDED),
    ([2, 3, 1], [70, -140, 71], DIVIDED),
]


@pytest.mark.parametrize("a, b, route", CERTIFICATE_PATHS)
def test_heuristic_cofactors_are_certified_by_a_coefficient_bound(a, b, route, monkeypatch):
    divisions = []
    exact_quo = polyalg._exact_quo

    def counted(f, g):
        divisions.append((f, g))
        return exact_quo(f, g)

    monkeypatch.setattr(polyalg, "_exact_quo", counted)
    g, qa, qb = polyalg._heu_gcd(a, b)
    assert g == polyalg._prs_gcd(a, b)
    assert polyalg._mul(g, qa) == a and polyalg._mul(g, qb) == b
    assert (route == DIVIDED) == bool(divisions)


# Lists on which the kernel takes each of its paths, with the evaluation
# points of each GCDHEU call and the route of its quotients: certified;
# divided (b's coefficients 10**30 times the others'); with zero inputs,
# the first of them zero in the fifth list; found at the second point,
# where the first, x = 45 << 3 = 360, leaves a candidate that does not
# divide every input (the gcd is 2s - 1); and one nonzero input, whose
# primitive part is its gcd with no GCDHEU call.
PRIMITIVE = "primitive part"
GCDHEU_LISTS = [
    [[2, 3, 1], [3, 4, 1], [0, 1, 1]],
    [[2, 3, 1], polyalg._mul([1, 1], [10**30 + 7, -3 * 10**29, 11]), [0, 5, 5]],
    [[2, 3, 1], [], [0, 2, 2], [], [4, 4]],
    [[0, 5, -8, -4], [5, -8, -4], [5, -15, 13, -6]],
    [[], [0, 2, 2], [4, 4]],
    [[], [-6, -3], []],
]
GCDHEU_LIST_ROUTES = [
    ([1], CERTIFIED), ([1], DIVIDED), ([1], CERTIFIED), ([2], DIVIDED), ([1], CERTIFIED), ([], PRIMITIVE)
]


def assert_gcd_of_all(fs, found):
    """``found`` is (g, f1 / g, ...) with g the primitive gcd of fs by a
    fold of the primitive remainder sequence (a zero input's quotient is
    zero)."""
    live = [f for f in fs if f]
    g = reduce(polyalg._prs_gcd, live[1:], polyalg._primitive(live[0]))
    assert found[0] == g and len(found) == len(fs) + 1
    assert all(polyalg._mul(g, q) == f for f, q in zip(fs, found[1:]))


@pytest.mark.parametrize("fs", GCDHEU_LISTS)
def test_gcd_of_several_polynomials_on_every_path(fs, monkeypatch):
    points, route = GCDHEU_LIST_ROUTES[GCDHEU_LISTS.index(fs)]
    counts = heu_points(monkeypatch)
    divisions = []
    exact_quo = polyalg._exact_quo

    def counted(f, g):
        divisions.append((f, g))
        return exact_quo(f, g)

    monkeypatch.setattr(polyalg, "_exact_quo", counted)
    found = polyalg._gcd(*fs)
    assert_gcd_of_all(fs, found)
    assert counts == points and (route == DIVIDED) == bool(divisions)
    # with no candidate from GCDHEU, the fold of the primitive remainder
    # sequence over the nonzero inputs gives the same gcd and quotients
    monkeypatch.setattr(polyalg, "_heu_gcd", lambda *_: None)
    assert polyalg._gcd(*fs) == found


@st.composite
def polys_with_a_common_factor(draw):
    """1 to 5 integer polynomials g * f, any of them zero as long as one is
    not, each f with coefficients up to 10**e, e drawn in 0..30 for each,
    so the inputs' sizes lie up to 10**30 apart."""
    small = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(polyalg._trim)
    g = draw(small.filter(bool))
    fs, n = [], draw(st.integers(1, 5))
    live = draw(st.integers(0, n - 1))  # the input kept nonzero
    for i in range(n):
        e = draw(st.integers(0, 30))
        f = polyalg._trim(draw(st.lists(st.integers(-(10**e), 10**e), max_size=5)))
        fs.append(polyalg._mul(g, f or [1] if i == live else f))
    return fs


@SETTINGS
@given(polys_with_a_common_factor())
def test_gcd_of_several_polynomials_matches_the_remainder_sequence(fs):
    assert_gcd_of_all(fs, polyalg._gcd(*fs))


@st.composite
def big_gcd_products(draw):
    """(g * f1, g * f2) over Z with g's coefficients larger than those of
    f1 and f2: g is drawn with coefficients up to 10**12, or as a power of
    s + 1 (coefficients up to 2**deg), times an integer content."""
    small = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(polyalg._trim)
    f1, f2 = draw(small.filter(bool)), draw(small.filter(bool))
    if draw(st.booleans()):
        g = draw(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=4))
        g = polyalg._trim(g) or [1]
    else:
        k = draw(st.integers(1, 12))
        g = [math.comb(k, i) for i in range(k + 1)]
    g = [draw(st.sampled_from([1, -2, 6])) * x for x in g]
    return polyalg._mul(g, f1), polyalg._mul(g, f2)


@SETTINGS
@given(big_gcd_products())
@example(([21, 10**10, 10**18], [7, 10**9 + 7, 10**9]))
def test_gcd_matches_the_remainder_sequence(pair):
    a, b = pair
    g = polyalg._prs_gcd(a, b)
    assert polyalg._gcd(a, b) == (g, polyalg._exact_quo(a, g), polyalg._exact_quo(b, g))


# -- one denominator shared by a matrix, and identities at one point --------


@st.composite
def shared_denominator_matrices(draw):
    """(mat, den): 1 x 1 to 3 x 3 polynomial matrices and a nonzero den
    with rational coefficients and any leading coefficient, constant ones
    included.  Each entry is zero, constant, drawn, drawn times a factor g
    that den holds in about half the draws, or drawn times 10**3 to 10**12,
    past den's coefficients."""
    g = draw(nonzero_mixed)
    den = draw(nonzero_mixed)
    if draw(st.booleans()):
        den = den * g
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kinds = st.sampled_from(["zero", "constant", "drawn", "shared", "large"])

    def entry():
        kind, e = draw(kinds), draw(mixed_polys(max_degree=3))
        if kind == "zero":
            return ZERO
        if kind == "constant":
            return Poly((draw(coefficients),))
        if kind == "shared":
            return e * g
        return e * 10 ** draw(st.integers(3, 12)) if kind == "large" else e

    return PolyMat([[entry() for _ in range(cols)] for _ in range(rows)]), den


@SETTINGS
@given(shared_denominator_matrices())
@example((PolyMat.zeros(2, 3), S * S - 3 * S + ONE))
@example((PolyMat([[ONE, -2 * ONE], [ZERO, Poly((Fraction(1, 3),))]]), (S + ONE) * (S - 2 * ONE)))
@example((PolyMat([[S + ONE, S * S - ONE]]), Poly((Fraction(5, 2),))))
def test_a_matrix_over_one_denominator_is_each_entry_normalised(case):
    mat, den = case
    over = polyalg._over(mat, den)
    assert over.rows == tuple(tuple(RatFn(e, den) for e in row) for row in mat.rows)
    assert [(v.num, v.den) for row in over.rows for v in row] == [
        normalised(e, den) for row in mat.rows for e in row
    ]


def gcd_kernel_calls(monkeypatch) -> list:
    """The inputs of each ``polyalg._gcd`` call while active."""
    calls, kernel = [], polyalg._gcd
    monkeypatch.setattr(polyalg, "_gcd", lambda *fs: calls.append(fs) or kernel(*fs))
    return calls


def test_the_shared_point_reads_gcds_and_cofactors_off_one_evaluation(monkeypatch):
    # (s+1)(s+2) and s+1 share s+1 with den = (s+1)(s+3), s - 4 shares
    # nothing: every pair is decided at the one point, with no gcd call
    den = (S + ONE) * (S + 3 * ONE)
    calls = gcd_kernel_calls(monkeypatch)
    over = polyalg._over(PolyMat([[(S + ONE) * (S + 2 * ONE), S + ONE, S - 4 * ONE]]), den)
    monkeypatch.undo()
    assert over.rows[0] == (
        RatFn(S + 2 * ONE, S + 3 * ONE), RatFn(ONE, S + 3 * ONE), RatFn(S - 4 * ONE, den)
    )
    assert calls == []


def test_a_shared_candidate_that_fails_its_certificate_takes_the_gcd_kernel(monkeypatch):
    # den = -6s^2 - 6s and the entry 3s - 16 are coprime; at the point
    # x = 512, the least 2**k > 2 * (16 << 3) + 4, the values of the entry
    # and of the monic s^2 + s have the gcd 304 = 16 * 19 above x / 2, read
    # off as s - 208, which divides neither.  Its cofactors 5 and 2s - 160
    # fail the size bound, so the entry, over den's leading coefficient,
    # takes _gcd, once; taken uncertified they would give a wrong value.
    den = -6 * S * S - 6 * S
    calls = gcd_kernel_calls(monkeypatch)
    over = polyalg._over(PolyMat([[3 * S - 16 * ONE, ZERO]]), den)
    monkeypatch.undo()
    assert over.rows[0] == (RatFn(3 * S - 16 * ONE, den), RatFn(ZERO))
    assert calls == [((16, -3), (0, 1, 1))]


def test_a_common_root_beyond_the_coefficients_is_found_at_the_shared_point():
    # den = (s - 100)(s + 1) has the root bound 1 + 100 = 101.  At a point
    # x below twice that bound (s - 100)(x) can divide the values' gcd and
    # still lie below x / 2, as at x = 129, where the gcd is 29: the pair
    # would pass for coprime.  At the shared point s - 100 cancels.
    den = (S - 100 * ONE) * (S + ONE)
    over = polyalg._over(PolyMat([[S - 100 * ONE, ONE]]), den)
    assert over.rows[0] == (RatFn(ONE, S + ONE), RatFn(ONE, den))


@st.composite
def values_sharing_factors(draw):
    """(den, nums, scales, shift): den = g1 * g2 * f with rational
    coefficients; 2 to 12 integer numerators, each zero, drawn, or drawn
    times g1, g2 or g1 * g2, so that several share each factor with den;
    a nonzero integer scale for each; and the bits the point takes above
    the least one the values allow (0, or den's length as ``_over`` takes)."""
    g1, g2, f = (draw(nonzero_mixed) for _ in range(3))
    den = g1 * g2 * f
    factors = {"zero": ZERO, "drawn": ONE, "g1": g1, "g2": g2, "both": g1 * g2}
    nums = [(draw(mixed_polys(max_degree=3)) * factors[draw(st.sampled_from(list(factors)))])._z
            for _ in range(draw(st.integers(2, 12)))]
    scales = [draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1])) for _ in nums]
    return den, nums, scales, draw(st.sampled_from([0, len(den._z)]))


@SETTINGS
@given(values_sharing_factors())
# 3s - 16 and s^2 + s at x = 512: the candidate s - 208 fails its certificate
@example((-6 * S * S - 6 * S, [(-16, 3), ()], [1, 1], 3))
# 4s + 4 over s + 1 at x = 16: the gcd s + 1 is read, but 2 * 2 * 4 = x
@example((2 * S + 2 * ONE, [(), (4, 4), (4, 4)], [1, 1, 3], 0))
# s + 200 and s^2 - 128 at x = 512: 712 divides both values, and the
# cofactor s - 144 read off 368 fails its certificate
@example((S * S - 128 * ONE, [(200, 1)], [1], 0))
# s + 1 and s + 2 over (s + 1)(s + 2): two gcds, each read once
@example(((S + ONE) * (S + 2 * ONE), [(1, 1), (2, 1)], [1, 1], 0))
def test_the_read_off_tail_reads_each_gcd_once_and_each_entry_over_den(case):
    # _values_over reads g = gcd(N, den), its value and den / g once for
    # each gcd h of the values above x / 2 (g = 1 below), and each entry
    # N / (c * den) off its value
    den, nums, scales, shift = case
    x = polyalg._point(max(max(map(abs, z), default=0) for z in (den._z, *nums)) << shift)
    values = [polyalg._horner(z, x, 1) for z in nums]
    dv = polyalg._horner(polyalg._monic_z(den._z)._z, x, 1)
    calls, read_off, gcd = [], polyalg._read_off, polyalg._gcd

    def kernel(*fs):  # an entry that fails its certificate: _gcd's own read-offs
        with mock.patch.object(polyalg, "_read_off", read_off):
            return gcd(*fs)

    with mock.patch.object(polyalg, "_read_off", lambda h, *rest: calls.append(h) or read_off(h, *rest)), \
            mock.patch.object(polyalg, "_gcd", kernel):
        over = polyalg._values_over(x, den, values, scales, 1)
    assert sorted(calls) == sorted({h for v in values if v and (h := math.gcd(v, dv)) > x >> 1})
    assert [e for row in over.rows for e in row] == [
        RatFn(polyalg._from_z(z), den * c) for z, c in zip(nums, scales)
    ]


@st.composite
def products_over_one_denominator(draw):
    """(a, b, den): a is r x m and b is m x n (1 to 3 each) with rational
    entries, each zero, drawn, or drawn times a factor g of den, and den
    with a leading coefficient other than 1 or -1 and a stored denominator
    ``_d`` other than 1, constant ones included."""
    g = draw(nonzero_mixed)
    den = draw(mixed_polys(max_degree=3).filter(lambda p: not p.is_zero())) * g
    if den._d == 1 or abs(den.leading) == 1:
        reject()
    r, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    kinds = st.sampled_from(["zero", "drawn", "shared"])

    def entry():
        kind, e = draw(kinds), draw(mixed_polys(max_degree=3))
        return ZERO if kind == "zero" else e * g if kind == "shared" else e

    a = PolyMat([[entry() for _ in range(m)] for _ in range(r)])
    return a, PolyMat([[entry() for _ in range(n)] for _ in range(m)]), den


@SETTINGS
@given(products_over_one_denominator())
def test_a_product_over_one_denominator_is_the_product_over_it(case):
    # _over_product reads a @ b / den off the factors' values; the loops
    # hand it integer factors only, so the draws give it rational ones
    a, b, den = case
    product = polyalg._over_product(a, b, den)
    assert product == polyalg._over(a @ b, den)
    assert product.rows == tuple(tuple(RatFn(e, den) for e in row) for row in (a @ b).rows)


@st.composite
def identity_triples(draw):
    """(a, b, f, c) with a @ b == f * c, f nonzero: a is r x m, b is m x n
    (1 to 3 each) with rational entries, and c = a0 @ b for a = a0 scaled
    by f, or f = 1 and a = a0."""
    r, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    entries = mixed_polys(max_degree=3)
    a0 = PolyMat([[draw(entries) for _ in range(m)] for _ in range(r)])
    b = PolyMat([[draw(entries) for _ in range(n)] for _ in range(m)])
    f = draw(nonzero_mixed) if draw(st.booleans()) else ONE
    return a0.scale(f), b, f, a0 @ b


@SETTINGS
@given(identity_triples(), st.data())
def test_an_identity_is_decided_at_one_point(triple, data):
    a, b, f, c = triple
    assert polyalg._is_product(a, b, f, c)
    # one coefficient of one entry of c off by 1 / d, d its denominator
    i, j = data.draw(st.integers(0, c.shape[0] - 1)), data.draw(st.integers(0, c.shape[1] - 1))
    e = c.rows[i][j]
    z = list(e._z) + [0]
    z[data.draw(st.integers(0, len(z) - 1))] += data.draw(st.sampled_from([1, -1]))
    rows = [list(row) for row in c.rows]
    rows[i][j] = polyalg._lowest(z, e._d)
    assert not polyalg._is_product(a, b, f, PolyMat(rows))
    # any other c: the kernel agrees with forming both sides
    other = PolyMat([[data.draw(mixed_polys(max_degree=3)) for _ in row] for row in c.rows])
    assert polyalg._is_product(a, b, f, other) == (a @ b == other.scale(f))


@pytest.mark.parametrize("k", [3, 10, 64, 300])
def test_a_difference_that_vanishes_at_half_the_point_is_refused(k):
    # a @ b = s - 3 * 2**(k-2) against c = 2**(k-2): every coefficient of
    # either side is at most B = 3 * 2**(k-2), so the kernel compares at
    # x = _point(B), the least 2**j > 2B + 4: 2**(k+1) from k = 4 on.  The
    # difference s - 2**k vanishes at x / 2 there, where a point one bit
    # short would compare.
    a = PolyMat([[S - 3 * 2 ** (k - 2) * ONE]])
    c = PolyMat([[Poly((2 ** (k - 2),))]])
    assert not polyalg._is_product(a, PolyMat([[ONE]]), ONE, c)
    assert polyalg._is_product(a, PolyMat([[ONE]]), ONE, a)


def test_an_identity_of_mismatched_shapes():
    a, b = PolyMat([[S, ONE]]), PolyMat([[ONE], [S]])
    assert polyalg._is_product(a, b, ONE, PolyMat([[2 * S]]))
    assert not polyalg._is_product(a, b, ONE, PolyMat([[2 * S, ZERO]]))
    with pytest.raises(polyalg.ShapeError):
        polyalg._is_product(a, a, ONE, PolyMat([[S]]))


def heu_points(monkeypatch) -> list[int]:
    """The number of evaluation points of each GCDHEU call, while active:
    the distinct x at which a `_heu_gcd` call evaluates its inputs.  A call
    that evaluates at no point must hand its inputs' primitive parts to a
    nested call, else the count has gone blind."""
    counts: list[int] = []
    points: list[set] = []
    horner = polyalg._horner

    kernel = polyalg._heu_gcd

    def counted(*fs):
        points.append(set())
        nested = len(counts)
        try:
            return kernel(*fs)
        finally:
            seen = points.pop()
            if not seen and len(counts) == nested:
                pytest.fail(f"a _heu_gcd call recorded no evaluation point: {fs}")
            counts.append(len(seen))

    def recording_horner(a, u, v):
        if points and v == 1:
            points[-1].add(u)
        return horner(a, u, v)

    monkeypatch.setattr(polyalg, "_heu_gcd", counted)
    monkeypatch.setattr(polyalg, "_horner", recording_horner)
    return counts


def test_heuristic_gcd_rarely_needs_a_second_point(monkeypatch):
    # Scalar model matching from text on plants with three integer poles
    # and two integer zeros, and the Youla loops of 2 x 2 plants with drawn
    # parameters.  The first point makes room for the 2**deg growth of a
    # divisor's coefficients; at the smaller point 2 * min(|a|, |b|) + 29
    # (cut to 99 times its square root) 133 of these 476 calls needed a
    # second point.  The loops' gcds and maps and every matrix over one
    # denominator are read off a point of their own (polyalg._loop_over,
    # polyalg._over_product, polyalg._over), which calls GCDHEU only for a
    # candidate that fails its certificate: these 15 plants make 342 calls.
    rng = random.Random(22)
    counts = heu_points(monkeypatch)

    def factors(roots):
        return "*".join(f"(s-{r})" if r > 0 else f"(s+{-r})" for r in roots)

    for _ in range(15):
        poles = [rng.randint(1, 4)] + rng.sample(range(-6, 0), 2)
        zeros = rng.sample([z for z in range(-7, 6) if z not in poles and z != 0], 2)
        gain, sigma = rng.choice([-3, -2, 2, 3]), rng.randint(1, 4)
        plant = parse_matrix(f"{gain}*{factors(zeros)}/({factors(poles)})")
        t = parse_matrix(f"{gain}*{factors(zeros)}/(s+{sigma})^3")
        res = model_matching(stable_mfd(right_coprime_mfd(plant)), t)
        assert res.verdict.stable and closed_loop(plant, res.configuration).t_yr == t
    # strictly proper, with unstable poles: every proper stable k gives a
    # proper cy
    plants_2x2 = ["3/(s-3), 1/(s+2); 1/(s+4), 2/(s+1)",
                  "1/(s-2), 1/(s+1); 1/(s+2), (s-1)/((s+3)*(s+1))"]
    for plant in map(parse_matrix, plants_2x2):
        for _ in range(3):
            entries = [
                f"({rng.choice([-3, -2, -1, 1, 2, 3])}*s + {rng.randint(0, 4)})/(s + {rng.randint(1, 5)})"
                for _ in range(4)
            ]
            k = parse_matrix(f"{entries[0]}, {entries[1]}; {entries[2]}, {entries[3]}")
            assert gang_of_four(plant, youla_controller(plant, k)).verdict.stable
    assert len(counts) >= 300
    assert sum(n > 1 for n in counts) * 100 <= len(counts), counts


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
        # the 2x2's adjugate takes cofactors, the 3x3's the elimination
        det_num, adj_num = polyalg._polymat_det_adj(num)
        assert det_num == det.num and num @ adj_num == PolyMat.identity(num.shape[0]).scale(det_num)
        assert polyalg._over(adj_num, det_num) == inv


@st.composite
def square_polymats(draw):
    """1x1 to 4x4 polynomial matrices, on both sides of the cofactor /
    elimination switch; about half singular, their last row a polynomial
    combination of the others (zero for a 1x1)."""
    n = draw(st.integers(1, 4))
    rows = [[draw(polys(2)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        weights = [draw(polys(1)) for _ in range(n - 1)]
        rows[-1] = [sum((w * row[j] for w, row in zip(weights, rows)), ZERO) for j in range(n)]
    return PolyMat(rows)


@SETTINGS
@given(square_polymats())
def test_cofactor_adjugate_matches_the_elimination(a):
    n = a.shape[0]
    det = polymat_det_cofactor(a)
    if det.is_zero():
        with pytest.raises(SingularMatrixError):
            polyalg._polymat_det_adj(a)
        return
    det_adj = polyalg._polymat_det_adj(a)
    assert det_adj[0] == det == polymat_det(a) and a @ det_adj[1] == PolyMat.identity(n).scale(det)
    # cy = e @ p**-1 with e = diag(1, 0, ...) makes I - cy@p singular
    p = a.to_ratmat()
    cy = RatMat.diag([RatFn(ONE)] + [RatFn(ZERO)] * (n - 1)) @ p.inv()
    with pytest.raises(IllPosedLoop):
        gang_of_four(p, cy)


def gauss_jordan(a_rows, rhs):
    """Gauss-Jordan elimination over `Fraction`, each pivot row scaled to a
    leading 1: (particular, basis) read off the reduced row echelon form,
    free unknowns at 0 in the particular solution, or None when
    inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(a_rows)]
    pivots = []
    for col in range(n):
        k = len(pivots)
        if k == len(aug):
            break
        piv = next((i for i in range(k, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][col]
        top = aug[k] = [e * inv for e in aug[k]]
        for i, row in enumerate(aug):
            f = row[col]
            if i != k and f:
                aug[i] = [e - f * g for e, g in zip(row, top)]
        pivots.append(col)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        particular[col] = row[n]
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            vec[col] = -row[fc]
        basis.append(vec)
    return particular, basis


def assert_same_solution(a_rows, rhs):
    """The elimination over Z, ``_rref_z``, of [A | b] cleared to integers
    row by row, read as ``poly_row_diophantine`` reads it (an unknown is
    row[n] / row[col] of its pivot row, and 0 if free), and ``_null_vector``
    of A, against the elimination over `Fraction`."""
    expected = gauss_jordan(a_rows, rhs)
    n = len(a_rows[0])
    # b alone, then riding after A's first column, a consistent right-hand side
    for ride in (0, 1):
        aug = []
        for row, b in zip(a_rows, rhs):
            xs = [Fraction(x) for x in (*row, *row[:ride], b)]
            lcd = math.lcm(*(x.denominator for x in xs))
            aug.append([int(x * lcd) for x in xs])
        pivots = polyalg._rref_z(aug, n)
        if expected is None:
            assert pivots is None
        else:
            particular = [Fraction(0)] * n
            for row, col in zip(aug, pivots):
                particular[col] = Fraction(row[n + ride], row[col])
            assert particular == expected[0]
    # the first null vector of A is the first basis vector of [A | 0]
    basis = gauss_jordan(a_rows, [0] * len(a_rows))[1]
    vec = polyalg._null_vector(a_rows)
    assert vec == (basis[0] if basis else None)
    assert vec is None or all(type(x) is Fraction for x in vec)
    return expected


@st.composite
def linear_systems(draw):
    """[A | b] over mixed denominators and either sign: A full rank or
    rank-deficient (a row or a column combined from two others), with zero
    columns or all zero; a zero, consistent or arbitrary (mostly
    inconsistent) right-hand side; integral entries given as `int` or as
    `Fraction`."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(
        lambda num, den, keep: Fraction(num * keep, den),
        st.integers(-9, 9).filter(bool), st.integers(1, 6), st.sampled_from([1, 1, 1, 0]),
    )
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        x, y = draw(coefficients), draw(coefficients)
        a[-1] = [x * u + y * v for u, v in zip(a[0], a[1])]
    if n >= 3 and draw(st.booleans()):
        x, y, j = draw(coefficients), draw(coefficients), draw(st.integers(2, n - 1))
        for row in a:
            row[j] = x * row[0] + y * row[1]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = Fraction(0)
    if draw(st.sampled_from([False] * 9 + [True])):
        a = [[Fraction(0)] * n for _ in range(m)]
    kind = draw(st.sampled_from(["consistent", "zero", "arbitrary"]))
    if kind == "consistent":
        z = [draw(coefficients) for _ in range(n)]
        rhs = [sum((u * v for u, v in zip(row, z)), Fraction(0)) for row in a]
    elif kind == "zero":
        rhs = [Fraction(0)] * m
    else:
        rhs = [draw(coefficients) for _ in range(m)]
    if draw(st.booleans()):
        a = [[int(x) if x.denominator == 1 else x for x in row] for row in a]
        rhs = [int(x) if x.denominator == 1 else x for x in rhs]
    return a, rhs


@SETTINGS
@given(linear_systems())
def test_linsolve_over_z_matches_the_fraction_elimination(system):
    assert_same_solution(*system)


F = Fraction
LINEAR_SYSTEMS = [
    # all-zero systems, consistent and not
    ([[0, 0], [0, 0]], [0, 0], "solved"),
    ([[0, 0], [0, 0]], [0, 1], None),
    # rank-deficient and inconsistent
    ([[1, 2], [2, 4]], [3, 7], None),
    ([[F(1, 2), F(1, 3)], [F(3, 2), 1]], [1, 3], "solved"),
    # zero columns around the pivots, negative pivots, mixed denominators,
    # and a third row that is the sum of the first two
    ([[0, -3, 0, F(5, 4)], [0, F(-2, 7), 0, 1], [0, F(-23, 7), 0, F(9, 4)]], [F(-1, 2), 2, F(3, 2)], "solved"),
    ([[-6, F(4, 9)], [F(-3, 10), -1]], [F(7, 3), -4], "solved"),
    # more rows than columns, consistent
    ([[2], [-4], [F(1, 3)]], [F(2, 5), F(-4, 5), F(1, 15)], "solved"),
    # a free column before the last pivot: the null vector is (-2, 1, 0)
    ([[1, 2, 3], [2, 4, 7]], [1, 3], "solved"),
]


@pytest.mark.parametrize("a_rows, rhs, outcome", LINEAR_SYSTEMS)
def test_linsolve_over_z_on_named_systems(a_rows, rhs, outcome):
    solved = assert_same_solution(a_rows, rhs)
    assert (solved is None) == (outcome is None)


def entrywise_product(a: RatMat | PolyMat, b: RatMat | PolyMat) -> tuple:
    """a @ b as sums of entry products, each partial sum normalised."""
    (r, k), c = a.shape, b.shape[1]
    zero = type(a).zeros(1, 1).entry(0, 0)
    return tuple(
        tuple(sum((a.rows[i][t] * b.rows[t][j] for t in range(k)), zero) for j in range(c))
        for i in range(r)
    )


SHARED_DENOMINATORS = [ONE, S + 1, S - 2, (S + 1) * (S - 2), 2 * S + 3, S * S + 1]


@st.composite
def matrix_pairs(draw):
    """Operands of r x k @ k x c, each of 1 to 3, of one kind.  An entry is
    zero or, in a `PolyMat`, a polynomial over mixed denominators; in a
    `RatMat`, over a denominator from a shared list or a `RatFn` of its own."""
    kind = draw(st.sampled_from([RatMat, PolyMat]))
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def entry():
        kind_of_entry = draw(st.sampled_from(["zero", "shared", "own"]))
        if kind_of_entry == "zero":
            return ZERO
        if kind is PolyMat:
            return draw(mixed_polys(3))
        if kind_of_entry == "shared":
            return RatFn(draw(mixed_polys(3)), draw(st.sampled_from(SHARED_DENOMINATORS)))
        return draw(ratfns())

    return (
        kind([[entry() for _ in range(k)] for _ in range(r)]),
        kind([[entry() for _ in range(c)] for _ in range(k)]),
    )


def assert_canonical_ratfn(e: RatFn) -> None:
    assert_canonical(e.num)
    assert_canonical(e.den)
    assert e.den.leading == 1
    if e.is_zero():
        assert e.den == ONE
    else:
        assert poly_gcd(e.num, e.den) == ONE


def assert_product_matches(a: RatMat | PolyMat, b: RatMat | PolyMat) -> None:
    expected = entrywise_product(a, b)
    # each entry is one dot product over Z[s]: no Poly is summed on the way
    with mock.patch.object(Poly, "__add__", side_effect=AssertionError("Poly sum")):
        product = a @ b
    assert type(product) is type(a)
    assert product.rows == expected
    for row in product.rows:
        for e in row:
            if isinstance(e, RatFn):
                assert_canonical_ratfn(e)
            else:
                assert_canonical(e)


@SETTINGS
@given(matrix_pairs())
def test_ratmat_product_matches_the_entrywise_sums(pair):
    assert_product_matches(*pair)


@pytest.mark.parametrize(
    "a, b",
    [
        ("(s+1)/(s-2)", "(s-2)/(s+1)"),  # 1x1 operands that cancel to 1
        ("0", "1/(s+3)"),  # a zero operand
        ("1/(s+1), 1/(s+1)", "1/(s-2); -1/(s-2)"),  # shared denominators that sum to 0
        ("1/(s+1), 2/(s+2), 3/(s+3)", "s; 1; 2*s"),  # coprime row denominators, 1x3 @ 3x1
        ("1/(2*s+1); s/3", "(s+4)/(s^2+1), 0"),  # 2x1 @ 1x2, rational content
    ],
)
def test_ratmat_product_on_named_operands(a, b):
    assert_product_matches(parse_matrix(a), parse_matrix(b))


# -- the stored form: integers over one denominator ---------------------------


def assert_canonical(p: Poly) -> None:
    """Trimmed integers over a positive denominator, in lowest terms."""
    z, d = p._z, p._d
    assert type(z) is tuple and all(type(x) is int for x in z)
    assert type(d) is int and d > 0
    assert not z or z[-1] != 0
    assert math.gcd(d, *z) == 1
    assert p.coeffs == tuple(Fraction(x, d) for x in z)


@st.composite
def same_or_other(draw):
    """A pair of polynomials that are often equal, each written with its own
    denominators, content and trailing zeros."""
    a = draw(mixed_polys())
    if draw(st.booleans()):
        return a, draw(mixed_polys())
    k = draw(st.sampled_from([2, 3, 7]))
    written = [Fraction(c.numerator * k, c.denominator * k) for c in a.coeffs]
    zeros = [Fraction(0)] * draw(st.integers(0, 2))
    return a, Poly(tuple(written + zeros))


@SETTINGS
@given(same_or_other())
def test_equality_and_hash_follow_the_coefficients(pair):
    a, b = pair
    assert_canonical(a)
    assert_canonical(b)
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(mixed_polys(), mixed_polys())
def test_arithmetic_matches_the_fraction_oracles(a, b):
    results = [a + b, a - b, a * b, -a, a.monic(), a.derivative(), a.reflect(), a**3]
    for r in results:
        assert_canonical(r)
    assert a + b == coefficientwise_add(a, b)
    assert a - b == coefficientwise_add(a, Poly(tuple(-c for c in b.coeffs)))
    assert a * b == schoolbook_mul(a, b)
    assert a.monic() == divided_monic(a)
    assert a**3 == schoolbook_mul(a, schoolbook_mul(a, a))
    assert a.derivative() == Poly(tuple(k * c for k, c in enumerate(a.coeffs))[1:])
    assert a.reflect() == Poly(tuple(-c if k % 2 else c for k, c in enumerate(a.coeffs)))
    point = Fraction(-3, 2)
    assert a(point) == sum((c * point**k for k, c in enumerate(a.coeffs)), Fraction(0))
    if not b.is_zero():
        q, r = poly_divmod(a, b)
        assert_canonical(q)
        assert_canonical(r)
        value = RatFn(a, b)
        assert_canonical(value.num)
        assert_canonical(value.den)


@SETTINGS
@given(mixed_polys())
def test_poly_survives_copy_and_pickle(p):
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is Poly and q == p and hash(q) == hash(p)
        assert (q._z, q._d) == (p._z, p._d)
    value = RatFn(p, S + ONE)
    assert pickle.loads(pickle.dumps(value)) == copy.deepcopy(value) == value


def test_poly_is_immutable():
    p = Poly((Fraction(1, 2), Fraction(3)))
    for name in ("coeffs", "_z", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (1,))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == Poly((Fraction(1, 2), Fraction(3)))


@SETTINGS
@given(ratfns(max_degree=4))
def test_ratfn_survives_copy_and_pickle(value):
    for q in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(q) is RatFn and q == value and hash(q) == hash(value)
        assert (q.num, q.den) == (value.num, value.den)


def test_ratfn_is_immutable_and_takes_keywords():
    value = RatFn(num=S - ONE, den=2 * S + 4)
    assert value == RatFn(S - ONE, 2 * S + 4) and value.den == S + 2 * ONE
    assert RatFn(num=S) == RatFn(S, ONE) and RatFn(3) == RatFn(Poly((3,)))
    for name in ("num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, ONE)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == RatFn(S - ONE, 2 * S + 4)


@SETTINGS
@given(mixed_polys(), st.integers(-2, 8))
def test_coefficients_read_as_fractions(p, k):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert type(p.coeff(k)) is Fraction
    if not p.is_zero():
        assert type(p.leading) is Fraction and p.leading == p.coeffs[-1]


def test_poly_rejects_inexact_coefficients():
    for bad in (0.5, True, "1"):
        with pytest.raises(TypeError):
            Poly((Fraction(1), bad))


class FractionCounter:
    """Counts `Fraction` objects built while active (patched ``__new__``)."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            self.count += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)


def test_poly_arithmetic_builds_no_fraction(monkeypatch):
    a = Poly((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)))
    b = Poly((Fraction(2), Fraction(-1, 3), Fraction(0), Fraction(7, 5)))
    counter = FractionCounter(monkeypatch)
    a + b, a - b, a * b, -a, a**4, 3 * a, a + 1
    a.monic(), a.derivative(), a.reflect(), divmod(b, a), b // a, b % a
    poly_gcd(a * b, b), poly_lcm(a, b), RatFn(a * b, b * (S + ONE))
    a == b, hash(a), a.degree(), a.is_constant()
    assert counter.count == 0


def test_parsing_builds_no_fraction(monkeypatch):
    counter = FractionCounter(monkeypatch)
    parse_matrix("(s+1)/((s-2)*(s+3)), 3*s^2 - 4; 1/(2*s+5), -(s-1)^2/7")
    assert counter.count == 0


def test_plant_analysis_builds_few_fractions(monkeypatch):
    # The coprime fraction, its column reduction and the Bezout witnesses
    # eliminate over Z.  The Fractions left are a few scalar reads (the
    # shift, the Hermite pivots, column_reduce's leading coefficients and
    # its null vector); at the elimination over Fraction this was 171.
    plant = parse_matrix("(s+1)/((s-2)*(s+3))")
    counter = FractionCounter(monkeypatch)
    stable_mfd(right_coprime_mfd(plant))
    assert counter.count <= 17


class RatFnCounter:
    """Counts `RatFn` normalisations while active: ``polyalg._normalise``,
    which every `RatFn` and every entry of ``polyalg._over`` passes."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = polyalg._normalise

        def counting(*args):
            self.count += 1
            return original(*args)

        monkeypatch.setattr(polyalg, "_normalise", counting)

    def take(self) -> int:
        count, self.count = self.count, 0
        return count


def test_youla_loop_normalises_its_maps_only_when_read(monkeypatch):
    # A Youla loop's verdict is decided on its one denominator den*psi, and
    # its four maps are normalised only when read.  On a fresh 2x2 analysis
    # a controller with a given k normalises the 4 entries of cy and the 4
    # of the left row [-nl' | dl'] (24 while the 16 map entries were
    # normalised with it); gang_of_four still normalises its 16.
    plant = parse_matrix("1/(s-1), 2/(s+2); 1/(s+3), 1/(s+1)")
    k = parse_matrix("s/(s+1), 1; 1/(s+2), -2")
    _rh_data_cached.cache_clear()
    data = _rh_data_cached(plant, Fraction(1))  # the analysis youla_controller reads
    counter = RatFnCounter(monkeypatch)
    cy = youla_controller(plant, k)
    assert counter.take() == 8
    gang_of_four(plant, cy)
    assert counter.take() == 16
    _, _, loop = _youla_feedback(data, k)
    assert loop.verdict and counter.take() == 4
    maps = loop.maps
    assert counter.take() == 16
    assert loop.maps is maps and counter.take() == 0
    assert tuple(maps) == tuple(gang_of_four(plant, cy))


def test_gang_of_four_normalises_over_det_m_less_dc(monkeypatch):
    # g = gcd(det M, every entry of adj M @ [dc*I | nc]) cancels from every
    # map, so the 16 map entries are read over det M / g, of degree 6 here,
    # the degree of the maps' lcm (10 over det M / dc, 16 over det M)
    plant = parse_matrix("1/(s-1), 2/(s+2); 1/(s+3), 1/(s+1)")
    cy = youla_controller(plant, parse_matrix("s/(s+1), 1; 1/(s+2), -2"))
    d, n = polyalg._column_fraction(plant)
    dc, nc = polyalg._over_lcd(cy)
    det_m, adj_m = polyalg._polymat_det_adj(d.scale(dc) - nc @ n)
    row = adj_m @ polyalg.hstack(PolyMat.diag([dc, dc]), nc)
    g = reduce(poly_gcd, (e for r in row.rows for e in r), det_m)
    dens = []
    original = polyalg._values_over

    def recording(x, den, values, *rest):
        dens.extend([den] * len(values))
        return original(x, den, values, *rest)

    monkeypatch.setattr(polyalg, "_values_over", recording)
    maps = gang_of_four(plant, cy)
    monkeypatch.undo()
    lcm = reduce(poly_lcm, (e.den for mat in maps for r in mat.rows for e in r))
    assert (det_m.degree(), dc.degree(), g.degree(), lcm.degree()) == (16, 6, 10, 6)
    assert [den.degree() for den in dens] == [det_m.degree() - g.degree()] * 16


def test_model_matching_normalises_no_loop_map(monkeypatch):
    # the design reads only the central loop's verdict: 9 normalisations on
    # example_match.ini's analysis, 13 while the loop's maps were formed
    problems = Path(__file__).resolve().parent.parent / "problems"
    problem = load_problem(str(problems / "example_match.ini"))
    smfd = stable_mfd(right_coprime_mfd(problem.plant), 2)
    t = parse_matrix(problem.design["t"])
    model_matching(smfd, t)  # the analysis forms and keeps what a design reads
    counter = RatFnCounter(monkeypatch)
    model_matching(smfd, t)
    assert counter.count == 9


@st.composite
def plants(draw):
    """1 x 1 to 2 x 2 rational matrices, zero entries and shared factors
    of numerators and denominators included."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return RatMat([[draw(ratfns(max_degree=2)) for _ in range(cols)] for _ in range(rows)])


@SETTINGS
@given(plants())
def test_hermite_transform_certifies_the_coprime_fraction(plant):
    mfd = right_coprime_mfd(plant)
    assert mfd.w @ vstack(mfd.d, mfd.n) == PolyMat.identity(plant.shape[1])
    assert mfd.plant() == plant
    assert _certified(mfd.n, mfd.d) is not None


@SETTINGS
@given(plants())
@example(parse_matrix("(s+1)^2/(s+2)"))
@example(parse_matrix("1/(s+1), s^2/(s-1); 2, 1/s"))
def test_stable_mfd_refuses_exactly_the_improper_plants(plant):
    # the column degrees of n against those of the column-reduced d decide
    # properness, for the fraction right_coprime_mfd builds and for one
    # built by hand
    mfd = right_coprime_mfd(plant)
    for source in (mfd, RightMFD(mfd.n, mfd.d)):
        if plant.is_proper():
            assert stable_mfd(source).plant() == plant
        else:
            with pytest.raises(ValueError, match="plant must be proper"):
                stable_mfd(source)


def escalation_witness(mfd, rhs_at):
    """The least-degree search the witnesses are read off by division,
    kept as an oracle: (alpha, beta, k) from poly_row_diophantine at the
    degree bound k = 0, 1, ... until one is feasible."""
    for k in range(60):
        solved = poly_row_diophantine(mfd.n, mfd.d, [rhs_at(k)], k)
        if solved is not None:
            return (*solved[0], k)
    raise AssertionError("no witness of degree below 60")


@SETTINGS
@given(plants())
# 3 takes the one elimination (its kernel row has degree 0); the others
# are read off by division alone
@example(parse_matrix("3"))
@example(parse_matrix("(s+1)/(s-2)"))
@example(parse_matrix("(s-1)^2/(s+1)^2"))
@example(parse_matrix("5/s^3"))
# rows that are not unique at one degree share one elimination: every row
# of a static gain's witnesses at k = 0, both rows of this plant's (x1, x2)
# at k = 1
@example(parse_matrix("3, 1; 1, 2"))
@example(parse_matrix("(s+2)/(s-1), 0; 1/(s+1), (s+3)/(s+4)"))
def test_witnesses_by_division_match_the_escalation_search(plant):
    mfd = right_coprime_mfd(plant)
    m = plant.shape[1]
    unit = [[ONE if j == i else ZERO for j in range(m)] for i in range(m)]
    expected = [escalation_witness(mfd, lambda k: unit[i])[:2] for i in range(m)]
    # with the fraction's certificate, and certified by a Hermite elimination
    for source in (mfd, RightMFD(mfd.n, mfd.d)):
        x1, x2 = solve_bezout(source)
        assert [(list(a), list(b)) for a, b in zip(x2.rows, x1.rows)] == expected
    if not plant.is_proper():
        return  # stable_mfd refuses it
    for shift in (1, 2, Fraction(1, 2)):
        smfd = stable_mfd(mfd, shift)
        hand_built = stable_mfd(RightMFD(mfd.n, mfd.d), shift)
        assert (hand_built.u, hand_built.v) == (smfd.u, smfd.v)
        for i, psi in enumerate(smfd.scaling):
            alpha, beta, k = escalation_witness(
                smfd.source, lambda k: [(S + shift) ** k * psi * e for e in unit[i]]
            )
            phi = (S + shift) ** k
            assert list(smfd.u.rows[i]) == [RatFn(a, phi) for a in alpha]
            assert list(smfd.v.rows[i]) == [RatFn(b, phi) for b in beta]


# -- hermite over Z[s] against the Poly loop it replaced ----------------------


def poly_loop_hermite(a: PolyMat) -> tuple[PolyMat, PolyMat]:
    """The row Hermite form by Euclid steps over `Poly` entries, kept as an
    oracle: the same pivots (lowest degree, topmost on ties) and the same
    quotients as `polyalg.hermite`."""
    m, n = a.shape
    rows = [list(r) for r in a.rows]
    u = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]

    def combine(i, j, q):
        rows[i] = [e - q * f for e, f in zip(rows[i], rows[j])]
        u[i] = [e - q * f for e, f in zip(u[i], u[j])]

    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        placed = False
        while True:
            cand = [i for i in range(pivot_row, m) if not rows[i][col].is_zero()]
            if not cand:
                break
            best = min(cand, key=lambda i: rows[i][col].degree())
            rows[best], rows[pivot_row] = rows[pivot_row], rows[best]
            u[best], u[pivot_row] = u[pivot_row], u[best]
            lower = [i for i in range(pivot_row + 1, m) if not rows[i][col].is_zero()]
            if not lower:
                placed = True
                break
            for i in lower:
                combine(i, pivot_row, poly_divmod(rows[i][col], rows[pivot_row][col])[0])
        if placed:
            inv = 1 / rows[pivot_row][col].leading
            rows[pivot_row] = [e * inv for e in rows[pivot_row]]
            u[pivot_row] = [e * inv for e in u[pivot_row]]
            for i in range(pivot_row):
                if not rows[i][col].is_zero():
                    q = poly_divmod(rows[i][col], rows[pivot_row][col])[0]
                    if not q.is_zero():
                        combine(i, pivot_row, q)
            pivot_row += 1
    return PolyMat(rows), PolyMat(u)


@st.composite
def hermite_stacks(draw):
    """1 x 1 to 3 x 3 polynomial matrices over Q: rational coefficients,
    a common factor of every entry (a non-coprime stack), a row that is a
    multiple of another (rank deficient) and zero columns."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = [[draw(mixed_polys(3)) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        common = draw(nonzero_mixed)
        entries = [[e * common for e in row] for row in entries]
    if rows > 1 and draw(st.booleans()):
        factor = draw(mixed_polys(2))
        entries[-1] = [e * factor for e in entries[0]]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in entries:
            row[j] = ZERO
    return PolyMat(entries)


@settings(SETTINGS, max_examples=100)
@given(hermite_stacks())
@example(PolyMat([[ZERO]]))
@example(PolyMat([[2 * S + 4], [3 * S**2 - 12], [Poly((Fraction(1, 2),))]]))
@example(PolyMat([[S - 1, S**2], [2 * S - 2, 2 * S**2], [ZERO, S + 1]]))
def test_hermite_over_z_matches_the_poly_loop(a):
    h, u = polyalg.hermite(a)
    assert (h, u) == poly_loop_hermite(a)
    assert u @ a == h
    det_u = polymat_det(u)
    assert det_u.is_constant() and not det_u.is_zero()
    m, n = a.shape
    pivots = []
    for row in h.rows:
        nonzero = [j for j in range(n) if not row[j].is_zero()]
        if not nonzero:
            continue
        pivots.append(nonzero[0])
        assert row[nonzero[0]].leading == 1  # monic pivot
    # echelon: pivot columns increase and the zero rows are at the bottom
    assert pivots == sorted(set(pivots))
    assert all(not e.is_zero() for e in (h.rows[i][j] for i, j in enumerate(pivots)))
    assert all(all(e.is_zero() for e in row) for row in h.rows[len(pivots):])
    for i, j in enumerate(pivots):
        for above in range(i):
            e = h.rows[above][j]
            assert e.is_zero() or e.degree() < h.rows[i][j].degree()
