import random
from fractions import Fraction

import pytest

from twodof.polyalg import (
    ONE,
    S,
    ZERO,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    ShapeError,
    SingularMatrixError,
    hermite,
    hstack,
    linsolve_exact,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    polymat_det,
    polymat_det_cofactor,
    vstack,
)


def p(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


def random_poly(rng, max_deg=4, zero_ok=True):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg + 1)]
    poly = Poly(tuple(coeffs))
    if not zero_ok and poly.is_zero():
        return ONE
    return poly


def test_poly_basics():
    q = p(2, 0, 1)  # s^2 + 2
    assert q.degree() == 2
    assert q.coeff(0) == 2 and q.coeff(1) == 0 and q.coeff(2) == 1
    assert q.coeff(17) == 0
    assert ZERO.degree() is None
    assert Poly((Fraction(0), Fraction(0))) == ZERO
    assert (S + ONE)(Fraction(2)) == 3
    assert q(Fraction(3)) == 11


def test_poly_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        assert a * ONE == a


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        a = random_poly(rng, max_deg=6)
        b = random_poly(rng, max_deg=4, zero_ok=False)
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()
    with pytest.raises(ZeroDivisionError):
        poly_divmod(ONE, ZERO)


def test_poly_gcd_and_lcm():
    a = (S + ONE) * (S + 2 * ONE)
    b = (S + ONE) * (S - ONE)
    g = poly_gcd(a, b)
    assert g == S + ONE
    lcm = poly_lcm(a, b)
    assert lcm == ((S + ONE) * (S + 2 * ONE) * (S - ONE)).monic()
    rng = random.Random(13)
    for _ in range(100):
        f = random_poly(rng, 3, zero_ok=False)
        g1 = random_poly(rng, 3, zero_ok=False)
        h = random_poly(rng, 2, zero_ok=False)
        d = poly_gcd(f * h, g1 * h)
        _, rem = poly_divmod(d, h.monic())
        assert rem.is_zero()  # common factor h divides the gcd


def test_poly_power_and_derivative():
    q = (S + ONE) ** 3
    assert q == p(1, 3, 3, 1)
    assert q.derivative() == p(3, 6, 3)
    assert (S ** 0) == ONE


def test_ratfn_canonical_form():
    # denominators are made monic, fractions reduced
    r = RatFn(p(2, 2), p(0, 4))  # (2s+2)/(4s)
    assert r.den.monic() == r.den
    assert r == RatFn(p(1, 1), p(0, 2))
    assert RatFn(p(-3), p(0, 0, 1)).den == S ** 2
    with pytest.raises(ZeroDivisionError):
        RatFn(ONE, ZERO)


def test_ratfn_field_identities():
    rng = random.Random(17)
    for _ in range(150):
        a = RatFn(random_poly(rng, 3), random_poly(rng, 3, zero_ok=False))
        b = RatFn(random_poly(rng, 3), random_poly(rng, 3, zero_ok=False))
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatFn(ZERO)
        if not b.num.is_zero():
            assert (a / b) * b == a
        assert -(-a) == a


def test_ratfn_properness():
    assert RatFn(ONE, S + ONE).is_proper()
    assert RatFn(S + 2 * ONE, S + ONE).is_proper()
    assert not RatFn(S ** 2, S + ONE).is_proper()
    assert RatFn(S + 2 * ONE, S + ONE).at_infinity() == 1
    assert RatFn(ONE, S + ONE).at_infinity() == 0
    with pytest.raises(ValueError):
        RatFn(S ** 2, S + ONE).at_infinity()


def test_ratfn_evaluation():
    r = RatFn(S - ONE, (S + ONE) ** 2)
    assert r.at(Fraction(0)) == -1
    assert r.at(Fraction(1)) == 0
    assert r.at(Fraction(-1)) is None  # pole


def test_linsolve_exact():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        x_true = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        rhs = [sum(a[i][j] * x_true[j] for j in range(m)) for i in range(n)]
        solved = linsolve_exact(a, rhs)
        assert solved is not None
        x, null = solved
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(m)) == rhs[i]
        for vec in null:
            for i in range(n):
                assert sum(a[i][j] * vec[j] for j in range(m)) == 0
    # inconsistent system
    assert linsolve_exact([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None


def test_polymat_shapes_and_mul():
    a = PolyMat([[S, ONE], [ZERO, S + ONE]])
    i2 = PolyMat.identity(2)
    assert a @ i2 == a
    assert (a @ a).shape == (2, 2)
    with pytest.raises(ShapeError):
        a @ PolyMat([[ONE, ZERO]])
    assert a.column_degrees() == [1, 1]
    assert PolyMat.zeros(2, 3).shape == (2, 3)


def test_hermite_form_structure():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = PolyMat(
            [[random_poly(rng, 2) for _ in range(cols)] for _ in range(rows)]
        )
        h, u = hermite(a)
        assert u @ a == h
        det_u = polymat_det(u)
        assert det_u.degree() == 0 and not det_u.is_zero()  # unimodular
        # pivot columns strictly increase; zero rows at the bottom
        last_pivot = -1
        seen_zero_row = False
        for i in range(rows):
            row_cols = [j for j in range(cols) if not h.entry(i, j).is_zero()]
            if not row_cols:
                seen_zero_row = True
                continue
            assert not seen_zero_row
            assert row_cols[0] > last_pivot
            last_pivot = row_cols[0]


def test_polymat_determinants_agree():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        a = PolyMat([[random_poly(rng, 2) for _ in range(n)] for _ in range(n)])
        assert polymat_det(a) == polymat_det_cofactor(a)
    assert polymat_det(PolyMat.identity(3)) == ONE


def test_ratmat_inverse_roundtrip():
    rng = random.Random(31)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        a = RatMat(
            [
                [
                    RatFn(random_poly(rng, 2), random_poly(rng, 2, zero_ok=False))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        try:
            inv = a.inv()
        except SingularMatrixError:
            continue
        assert a @ inv == RatMat.identity(n)
        assert inv @ a == RatMat.identity(n)
        done += 1


def test_ratmat_det_and_rank():
    a = RatMat(
        [
            [RatFn(ONE, S + ONE), RatFn(ONE, S + 2 * ONE)],
            [RatFn(ZERO), RatFn(ONE, S + 3 * ONE)],
        ]
    )
    assert a.det() == RatFn(ONE, (S + ONE) * (S + 3 * ONE))
    assert a.rank() == 2
    b = RatMat([[RatFn(ONE), RatFn(ONE)], [RatFn(ONE), RatFn(ONE)]])
    assert b.rank() == 1
    with pytest.raises(SingularMatrixError):
        b.inv()


def test_ratmat_properness_and_eval():
    a = RatMat([[RatFn(ONE, S + ONE), RatFn(S, S + ONE)]])
    assert a.is_proper()
    vals = a.eval_at(Fraction(1))
    assert vals == ((Fraction(1, 2), Fraction(1, 2)),)
    improper = RatMat([[RatFn(S ** 2, S + ONE)]])
    assert not improper.is_proper()


def test_stack_helpers():
    a = RatMat.identity(2)
    b = RatMat.zeros(2, 1)
    assert hstack(a, b).shape == (2, 3)
    assert vstack(a, a).shape == (4, 2)
    with pytest.raises(ShapeError):
        hstack(a, RatMat.zeros(3, 1))
    with pytest.raises(ShapeError):
        vstack(a, RatMat.zeros(2, 3))


# -- the shared Gauss-Jordan kernel, against independent oracles ---------------


def random_polymat_of_rank(rng, rows, cols, rank):
    """A rows x cols polynomial matrix b @ c of rank at most ``rank``."""
    if rank == 0:
        return PolyMat.zeros(rows, cols)
    b = PolyMat([[random_poly(rng, 1) for _ in range(rank)] for _ in range(rows)])
    c = PolyMat([[random_poly(rng, 1) for _ in range(cols)] for _ in range(rank)])
    return b @ c


def test_ratmat_det_matches_bareiss_including_singular():
    rng = random.Random(37)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        a = random_polymat_of_rank(rng, n, n, rng.randint(0, n))
        expected = polymat_det(a)
        singular += expected.is_zero()
        assert a.to_ratmat().det() == RatFn(expected), a
    assert singular >= 15


def test_ratmat_rank_matches_hermite():
    rng = random.Random(41)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = random_polymat_of_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))
        h, _ = hermite(a)
        nonzero_rows = sum(any(not e.is_zero() for e in row) for row in h.rows)
        assert a.to_ratmat().rank() == nonzero_rows, a


def test_linsolve_exact_rank_deficient_against_sympy_rref():
    import sympy

    rng = random.Random(43)
    deficient = inconsistent = 0
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(m, n))
        left = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
        a = [
            [sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
            for i in range(m)
        ]
        if rng.random() < 0.7:  # a consistent right-hand side a @ z
            z = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = [sum((a[i][j] * z[j] for j in range(n)), Fraction(0)) for i in range(m)]
        else:
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        _, pivots = sympy.Matrix(a).rref()
        aug_rank = sympy.Matrix([row + [b] for row, b in zip(a, rhs)]).rank()
        solved = linsolve_exact(a, rhs)
        if aug_rank > len(pivots):
            assert solved is None
            inconsistent += 1
            continue
        particular, basis = solved
        free = [j for j in range(n) if j not in pivots]
        deficient += bool(free)
        for i in range(m):
            assert sum(a[i][j] * particular[j] for j in range(n)) == rhs[i]
        assert all(particular[j] == 0 for j in free)
        assert len(basis) == n - len(pivots)
        for fc, vec in zip(free, basis):
            assert [vec[j] for j in free] == [Fraction(j == fc) for j in free]
            for i in range(m):
                assert sum(a[i][j] * vec[j] for j in range(n)) == 0
    assert deficient >= 20 and inconsistent >= 10
