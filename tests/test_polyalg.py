import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from twodof.factor import RightMFD
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
    _polymat_det_adj,
    common_denominator,
    hermite,
    hstack,
    linsolve_exact,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    polymat_det,
    vstack,
)
from twodof.stability import matrix_is_stable
from twodof.synthesis import DesignObstruction, check_realizable


def p(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


def minor(a, i, j):
    r, c = a.shape
    return PolyMat(
        tuple(tuple(a.rows[k][t] for t in range(c) if t != j) for k in range(r) if k != i)
    )


def polymat_det_cofactor(a):
    """Cofactor-expansion determinant; an independent oracle for small sizes."""
    if a.shape[0] == 1:
        return a.rows[0][0]
    total = ZERO
    for j, e in enumerate(a.rows[0]):
        term = e * polymat_det_cofactor(minor(a, 0, j))
        total = total + (term if j % 2 == 0 else -term)
    return total


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


def test_polymat_adjugate_agrees_with_cofactors():
    rng = random.Random(30)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        a = PolyMat([[random_poly(rng, 2) for _ in range(n)] for _ in range(n)])
        det = polymat_det_cofactor(a)
        if det.is_zero():
            with pytest.raises(SingularMatrixError):
                _polymat_det_adj(a)
            continue
        cofactor_adj = PolyMat(
            [
                [
                    polymat_det_cofactor(minor(a, j, i)) * (-1) ** (i + j) if n > 1 else ONE
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        assert _polymat_det_adj(a) == (det, cofactor_adj)
        done += 1
    # a zero leading entry forces a row swap, which flips the sign
    swapped = PolyMat([[ZERO, S], [ONE, S + ONE]])
    assert _polymat_det_adj(swapped) == (-S, PolyMat([[S + ONE, -S], [-ONE, ZERO]]))


def test_common_denominator():
    entries = [RatFn(ONE, S + ONE), RatFn(S, (S + ONE) * (S - 2 * ONE)), RatFn(3 * ONE)]
    den, nums = common_denominator(entries)
    assert den == (S + ONE) * (S - 2 * ONE)
    assert [RatFn(num, den) for num in nums] == entries


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


@pytest.mark.parametrize(
    "kind, ring",
    [pytest.param(PolyMat, lambda e: e, id="PolyMat"), pytest.param(RatMat, RatFn, id="RatMat")],
)
def test_the_grid_behaves_alike_for_both_kinds(kind, ring):
    rows = [[S, ONE, ZERO], [2 * ONE, S + 1, S * S]]
    a = kind(rows)
    assert a.rows == tuple(tuple(ring(e) for e in row) for row in rows)
    assert kind([[S, 1, 0], [2, S + 1, S * S]]) == a
    assert hash(kind(rows)) == hash(a)
    assert a.shape == (2, 3) and a.entry(1, 2) == ring(S * S)
    assert not a.is_zero() and kind.zeros(2, 3).is_zero()
    assert kind.identity(2) == kind([[1, 0], [0, 1]])
    assert kind.diag([S, 2]) == kind([[S, 0], [0, 2]])
    assert a.transpose() == kind([[S, 2], [1, S + 1], [0, S * S]])
    assert a + a == a.scale(2) == kind([[2 * S, 2, 0], [4, 2 * S + 2, 2 * S * S]])
    assert a - a == -a + a == kind.zeros(2, 3)
    assert -a == a.scale(-1)
    assert a.scale(S) == kind([[S * S, S, 0], [2 * S, S * S + S, S**3]])
    assert str(a) == repr(a) == "[s, 1, 0; 2, s + 1, s^2]"
    assert hstack(a, a) == kind([row + row for row in rows])
    assert vstack(a, a) == kind(rows + rows)
    assert pickle.loads(pickle.dumps(a)) == copy.deepcopy(a) == a
    with pytest.raises(ShapeError):
        a + a.transpose()
    for bad in ([], [[]], [[S], [S, ONE]]):
        with pytest.raises(ShapeError):
            kind(bad)
    for name in ("rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())


def test_the_two_kinds_of_matrix_do_not_mix():
    p = PolyMat([[S, ONE]])
    r = p.to_ratmat()
    assert p != r and tuple(e.num for e in r.rows[0]) == p.rows[0]
    for stack in (hstack, vstack):
        for x, y in ((p, r), (r, p)):
            with pytest.raises(TypeError):
                stack(x, y)


# -- the elimination kernels, against independent oracles --------------------


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


# -- rational-matrix solves, against Gauss-Jordan over RatFn entries ----------


def gauss_jordan_ratfn(rows, ncols):
    """Gauss-Jordan elimination over the function field: reduce the first
    ``ncols`` columns of the RatFn row list ``rows`` in place to reduced
    row echelon form, later columns riding along.  Returns the pivot
    columns, the pivots and the sign of the row swaps.  The package
    eliminates over one polynomial denominator instead; this is its oracle.
    """
    cols, pivots, sign = [], [], 1
    for col in range(ncols):
        row = len(cols)
        if row == len(rows):
            break
        piv = next((i for i in range(row, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            sign = -sign
        pivot = rows[row][col]
        rows[row] = [e / pivot for e in rows[row]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != row and not f.is_zero():
                rows[i] = [e - f * g for e, g in zip(rows[i], rows[row])]
        cols.append(col)
        pivots.append(pivot)
    return cols, pivots, sign


def oracle_rank(a):
    return len(gauss_jordan_ratfn([list(row) for row in a.rows], a.shape[1])[0])


def oracle_inv_det(a):
    """(inverse or None when singular, det, whether the row swaps flip the
    sign) of a square matrix."""
    n = a.shape[0]
    aug = [list(row) + [RatFn(ONE if i == j else ZERO) for j in range(n)]
           for i, row in enumerate(a.rows)]
    cols, pivots, sign = gauss_jordan_ratfn(aug, n)
    if len(cols) < n:
        return None, RatFn(ZERO), sign < 0
    det = math.prod(pivots, start=RatFn(ONE))
    return RatMat([row[n:] for row in aug]), -det if sign < 0 else det, sign < 0


def oracle_realizable_x(n, t):
    """x with n @ x = t (free rows zero) by RatFn Gauss-Jordan of [n | t],
    or None when t is outside the range of n."""
    m = n.shape[1]
    aug = [[RatFn(e) for e in nr] + list(tr) for nr, tr in zip(n.rows, t.rows)]
    cols, _, _ = gauss_jordan_ratfn(aug, m)
    if any(not e.is_zero() for row in aug[len(cols):] for e in row[m:]):
        return None
    x = [[RatFn(ZERO)] * t.shape[1] for _ in range(m)]
    for row, col in zip(aug, cols):
        x[col] = row[m:]
    return RatMat(x)


def random_ratmat_of_rank(rng, rows, cols, rank):
    """diag(r) @ b @ c @ diag(q) for b @ c of rank at most ``rank`` and
    nonzero rational r, q; entries zeroed at random (the leading one in a
    third of the draws) force row swaps."""
    base = random_polymat_of_rank(rng, rows, cols, rank)
    if rng.random() < 0.35:
        base = PolyMat([[ZERO if (i, j) == (0, 0) else e for j, e in enumerate(row)]
                        for i, row in enumerate(base.rows)])
    scale_r = [RatFn(ONE, random_poly(rng, 2, zero_ok=False)) for _ in range(rows)]
    scale_q = [RatFn(random_poly(rng, 1, zero_ok=False), random_poly(rng, 1, zero_ok=False))
               for _ in range(cols)]
    return RatMat(
        [
            [
                RatFn(ZERO) if rng.random() < 0.15 else RatFn(e) * scale_r[i] * scale_q[j]
                for j, e in enumerate(row)
            ]
            for i, row in enumerate(base.rows)
        ]
    )


def test_ratmat_solves_match_ratfn_gauss_jordan():
    rng = random.Random(47)
    singular = deficient = flipped = 0
    for _ in range(120):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.6:
            cols = rows
        a = random_ratmat_of_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))
        rank = oracle_rank(a)
        assert a.rank() == rank, a
        deficient += rank < min(rows, cols)
        if rows != cols:
            continue
        inv, det, swap = oracle_inv_det(a)
        flipped += swap
        assert a.det() == det, a
        if inv is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                a.inv()
        else:
            assert a.inv() == inv, a
    assert singular >= 30 and deficient >= 40 and flipped >= 15


def test_check_realizable_matches_ratfn_gauss_jordan():
    rng = random.Random(53)
    stable_den = (S + ONE) * (S + 2 * ONE) * (S + 3 * ONE)
    compared = violations = obstructed = 0
    for case in range(90):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        rank = rng.randint(0, min(rows, cols))
        if case % 2:
            n = random_polymat_of_rank(rng, rows, cols, rank)
        else:  # constant numerators keep x as stable and proper as t
            n = PolyMat([[Poly.constant(rng.randint(-2, 2)) for _ in range(cols)]
                         for _ in range(rows)])
        width = rng.randint(1, 2)
        if rng.random() < 0.7:  # t = n @ x0 lies in the range of n
            x0 = RatMat([[RatFn(random_poly(rng, 1), stable_den) for _ in range(width)]
                         for _ in range(cols)])
            t = n.to_ratmat() @ x0
        else:
            t = RatMat([[RatFn(random_poly(rng, 1), stable_den) for _ in range(width)]
                        for _ in range(rows)])
        expected = oracle_realizable_x(n, t)
        try:
            got, _, _ = check_realizable(RightMFD(n, PolyMat.identity(cols)), t)
        except DesignObstruction as exc:
            obstruction = exc
        else:
            assert expected is not None, (n, t)
            compared += 1
            assert got == expected, (n, t)
            continue
        if expected is None:
            violations += 1
            assert "rank violation" in str(obstruction), (n, t)
        else:
            obstructed += 1
            verdict = matrix_is_stable(expected)
            assert verdict.stable == all(
                "parameter x is unstable" not in r for r in obstruction.reasons
            ), (n, t)
            if not verdict:
                assert "parameter x is unstable: " + verdict.describe() in obstruction.reasons
            assert expected.is_proper() == (
                "parameter x is improper (relative-degree violation)" not in obstruction.reasons
            ), (n, t)
            assert not (verdict and expected.is_proper()), (n, t)
    assert compared >= 40 and violations >= 8 and obstructed >= 4
