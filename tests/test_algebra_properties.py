"""Property tests of the exact algebra: the ring laws of `Poly`, the field
laws of `RatFn`, `poly_gcd`, and the print/parse round trip of `RatFn`
values well inside the parser's caps (``tests/test_cli.py`` checks the
round trip at the degree cap).  `Poly` stores integers over one
denominator, and its arithmetic, gcd and normalisation run over Z; they
are also checked against the plain `Fraction` algorithms (coefficientwise
sum, schoolbook product, division by the leading coefficient, Euclid's
gcd, division by the gcd), kept here as oracles, the Bareiss kernel
against Gauss-Jordan over `RatFn`, `linsolve_exact` against Gauss-Jordan
over `Fraction`, `RatMat @` against sums of `RatFn` products, and the
Bezout witnesses read off the Hermite certificate against the least-degree
search by `poly_row_diophantine`."""

import copy
import fractions
import math
import pickle
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_polyalg import oracle_inv_det, polymat_det_cofactor
from twodof import polyalg
from twodof.cli import load_problem, parse_matrix, parse_rational
from twodof.factor import (
    RightMFD,
    _hermite_certificate,
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
    poly_divmod,
    poly_gcd,
    poly_lcm,
    polymat_det,
    vstack,
)
from twodof.stabilize import (
    _rh_data_cached,
    _youla_feedback,
    gang_of_four,
    solve_bezout,
    youla_controller,
)
from twodof.synthesis import model_matching

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
    with mock.patch.object(polyalg, "_heu_gcd", lambda a, b: None):  # the PRS alone
        assert poly_gcd(a, b) == expected


# Integer pairs on which GCDHEU needs a cofactor (of the first input, with
# a gcd of content 2, and of the second), a fourth evaluation point, or a
# fifth one that proves the gcd constant.
GCDHEU_PATHS = [
    ([28, -46, -28, 46], [-84, 222, -138]),
    ([30432, 81416, 76946, 16411, -9513], [-48, -44, -19, -29, -63]),
    ([1980, 990, 1980], [0, 2, 1, 0, -1, -2]),
    ([-18432, 18368, 17344, 6432], [0, 0, -32, 0, -32]),
]


@pytest.mark.parametrize("a, b", GCDHEU_PATHS)
def test_gcd_returns_cofactors_on_every_heuristic_path(a, b):
    g, qa, qb = polyalg._gcd(a, b)
    assert g == polyalg._primitive(g) == polyalg._prs_gcd(a, b)
    assert polyalg._mul(g, qa) == a and polyalg._mul(g, qb) == b
    assert polyalg._heu_gcd(a, b) == (g, qa, qb)
    expected = euclid_gcd(Poly(tuple(a)), Poly(tuple(b)))
    assert polyalg._from_z(g, g[-1]) == expected


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


def gauss_jordan(a_rows, rhs):
    """Gauss-Jordan elimination over `Fraction`, each pivot row scaled to a
    leading 1: the reduced row echelon form that ``linsolve_exact`` reads
    its (particular, basis) from, or None when inconsistent."""
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
    expected = gauss_jordan(a_rows, rhs)
    solved = polyalg.linsolve_exact(a_rows, rhs)
    assert solved == expected
    if solved is not None:
        particular, basis = solved
        assert all(type(x) is Fraction for x in particular)
        assert all(type(x) is Fraction for vec in basis for x in vec)
    return solved


@st.composite
def linear_systems(draw):
    """[A | b] over mixed denominators and either sign, often rank-deficient
    (a row combined from two others), with zero columns, all-zero A, a
    zero, consistent or arbitrary (mostly inconsistent) right-hand side, and
    integral entries given as `int` or as `Fraction`."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(
        lambda num, den, keep: Fraction(num * keep, den),
        st.integers(-9, 9).filter(bool), st.integers(1, 6), st.sampled_from([1, 1, 1, 0]),
    )
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        x, y = draw(coefficients), draw(coefficients)
        a[-1] = [x * u + y * v for u, v in zip(a[0], a[1])]
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
    """Counts `RatFn` normalisations while active (patched ``__init__``)."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = RatFn.__init__

        def counting_init(ratfn, *args, **kwargs):
            self.count += 1
            original(ratfn, *args, **kwargs)

        monkeypatch.setattr(RatFn, "__init__", counting_init)

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
    _, loop = _youla_feedback(data, k)
    assert loop.verdict and counter.take() == 4
    maps = loop.maps
    assert counter.take() == 16
    assert loop.maps is maps and counter.take() == 0
    assert tuple(maps) == tuple(gang_of_four(plant, cy))


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
    assert _hermite_certificate(mfd.n, mfd.d) is not None


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
    degree bounds k = 0, 1, ... until one is feasible."""
    for k in range(60):
        solved = poly_row_diophantine(mfd.n, mfd.d, rhs_at(k), k, k)
        if solved is not None:
            return (*solved, k)
    raise AssertionError("no witness of degree below 60")


@SETTINGS
@given(plants())
# 3 takes the one elimination (its kernel row has degree 0); the others
# are read off by division alone
@example(parse_matrix("3"))
@example(parse_matrix("(s+1)/(s-2)"))
@example(parse_matrix("(s-1)^2/(s+1)^2"))
@example(parse_matrix("5/s^3"))
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
