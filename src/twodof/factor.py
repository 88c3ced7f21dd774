"""Coprime polynomial matrix fractions and their stable rational refinements.

A rational transfer matrix P is written as a right fraction P = N * D**-1
with N, D polynomial and right coprime, or as a left fraction
P = Dl**-1 * Nl.  Dividing the columns of a column-reduced right fraction
by powers of a fixed Hurwitz factor (s + shift) yields a fraction
P = N' * D'**-1 whose factors are themselves proper and stable, together
with a Bezout witness U*N' + V*D' = I certifying coprimeness over the
proper stable rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polyalg import (
    ONE,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    S,
    ShapeError,
    SingularMatrixError,
    hermite,
    linsolve_exact,
    poly_gcd,
    poly_lcm,
    polymat_det,
    vstack,
)
from .stability import hurwitz_shift_polynomial, irreducible_factors, is_hurwitz

__all__ = [
    "RightMFD",
    "LeftMFD",
    "StableMFD",
    "PoleInfo",
    "ZeroInfo",
    "ZeroReport",
    "right_coprime_mfd",
    "left_coprime_mfd",
    "is_right_coprime",
    "is_left_coprime",
    "column_reduce",
    "stable_mfd",
    "poly_row_diophantine",
    "zeros_and_poles",
]


@dataclass(frozen=True)
class RightMFD:
    """Right polynomial fraction P = n * d**-1 with d nonsingular."""

    n: PolyMat
    d: PolyMat

    def __post_init__(self) -> None:
        if self.n.shape[1] != self.d.shape[0] or self.d.shape[0] != self.d.shape[1]:
            raise ShapeError(
                f"incompatible fraction shapes {self.n.shape} and {self.d.shape}"
            )

    @property
    def outputs(self) -> int:
        return self.n.shape[0]

    @property
    def inputs(self) -> int:
        return self.n.shape[1]

    def plant(self) -> RatMat:
        return self.n.to_ratmat() @ self.d.to_ratmat().inv()


@dataclass(frozen=True)
class LeftMFD:
    """Left polynomial fraction P = dl**-1 * nl with dl nonsingular."""

    dl: PolyMat
    nl: PolyMat

    def __post_init__(self) -> None:
        if self.dl.shape[0] != self.dl.shape[1] or self.dl.shape[1] != self.nl.shape[0]:
            raise ShapeError(
                f"incompatible fraction shapes {self.dl.shape} and {self.nl.shape}"
            )

    def plant(self) -> RatMat:
        return self.dl.to_ratmat().inv() @ self.nl.to_ratmat()


@dataclass(frozen=True)
class StableMFD:
    """Fraction P = nprime * dprime**-1 over the proper stable rationals.

    ``u`` and ``v`` witness coprimeness: u @ nprime + v @ dprime == I.
    ``col_degrees`` records the column degrees of the underlying
    polynomial denominator, i.e. the powers of (s + shift) divided out.
    """

    nprime: RatMat
    dprime: RatMat
    u: RatMat
    v: RatMat
    shift: Fraction
    col_degrees: tuple[int, ...]
    source: RightMFD

    def plant(self) -> RatMat:
        return self.nprime @ self.dprime.inv()


def _column_lcd(p: RatMat, j: int) -> Poly:
    den = ONE
    for i in range(p.shape[0]):
        den = poly_lcm(den, p.entry(i, j).den)
    return den


def right_coprime_mfd(p: RatMat) -> RightMFD:
    """Extract a right coprime, column-reduced fraction of a rational matrix."""
    rows, cols = p.shape
    d0_cols = [_column_lcd(p, j) for j in range(cols)]
    d0 = PolyMat.diag(d0_cols)
    n0 = PolyMat(
        [
            [
                p.entry(i, j).num * (d0_cols[j] // p.entry(i, j).den)
                for j in range(cols)
            ]
            for i in range(rows)
        ]
    )
    stacked = vstack(d0, n0)
    h, _ = hermite(stacked)
    gcrd = PolyMat([[h.entry(i, j) for j in range(cols)] for i in range(cols)])
    gcrd_inv = gcrd.to_ratmat().inv()
    d = (d0.to_ratmat() @ gcrd_inv).to_polymat()
    n = (n0.to_ratmat() @ gcrd_inv).to_polymat()
    n, d = column_reduce(n, d)
    return RightMFD(n, d)


def left_coprime_mfd(p: RatMat) -> LeftMFD:
    """Extract a left coprime, row-reduced fraction of a rational matrix."""
    right = right_coprime_mfd(p.transpose())
    return LeftMFD(dl=right.d.transpose(), nl=right.n.transpose())


def is_right_coprime(n: PolyMat, d: PolyMat) -> bool:
    """Whether the only common right divisors of n and d are unimodular."""
    cols = d.shape[1]
    h, _ = hermite(vstack(d, n))
    top = PolyMat([[h.entry(i, j) for j in range(cols)] for i in range(cols)])
    det = polymat_det(top)
    return det.is_constant() and not det.is_zero()


def is_left_coprime(dl: PolyMat, nl: PolyMat) -> bool:
    return is_right_coprime(nl.transpose(), dl.transpose())


def column_reduce(n: PolyMat, d: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Right-multiply both factors by a unimodular matrix until the
    highest-column-degree coefficient matrix of ``d`` is nonsingular."""
    if polymat_det(d).is_zero():
        raise SingularMatrixError("denominator matrix is singular")
    m = d.shape[0]
    p = n.shape[0]
    dcols = [[d.entry(i, j) for i in range(m)] for j in range(m)]
    ncols = [[n.entry(i, j) for i in range(p)] for j in range(m)]
    while True:
        degs = [max(e.degree() or 0 for e in col if not e.is_zero()) for col in dcols]
        gamma = [[dcols[j][i].coeff(degs[j]) for j in range(m)] for i in range(m)]
        solved = linsolve_exact(gamma, [Fraction(0)] * m)
        if solved is None:
            raise ArithmeticError("homogeneous system reported inconsistent")
        _, nullspace = solved
        if not nullspace:
            break
        c = nullspace[0]
        target = max(
            (j for j in range(m) if c[j] != 0), key=lambda j: (degs[j], j)
        )
        for vec in (dcols, ncols):
            new_col = [e * c[target] for e in vec[target]]
            for j in range(m):
                if j == target or c[j] == 0:
                    continue
                mult = Poly.constant(c[j]) * S ** (degs[target] - degs[j])
                new_col = [e + mult * g for e, g in zip(new_col, vec[j])]
            vec[target] = new_col
    d_out = PolyMat([[dcols[j][i] for j in range(m)] for i in range(m)])
    n_out = PolyMat([[ncols[j][i] for j in range(m)] for i in range(p)])
    return n_out, d_out


def poly_row_diophantine(
    nmat: PolyMat,
    dmat: PolyMat,
    rhs_row: Sequence[Poly],
    bound: int,
) -> tuple[list[Poly], list[Poly]] | None:
    """Solve alpha @ nmat + beta @ dmat = rhs for row vectors of
    polynomials with every entry of degree at most ``bound``.

    Returns ``(alpha, beta)`` or ``None`` when no solution of that
    degree exists.
    """
    p, m = nmat.shape
    if dmat.shape != (m, m) or len(rhs_row) != m:
        raise ShapeError("incompatible shapes in row equation")
    width = bound + 1
    unknowns = (p + m) * width

    def coeff_of(entry: int, power: int, j: int, t: int) -> Fraction:
        # contribution of unknown coefficient (entry, power) to s^t of column j
        if entry < p:
            src = nmat.entry(entry, j)
        else:
            src = dmat.entry(entry - p, j)
        return src.coeff(t - power) if t >= power else Fraction(0)

    max_src = 0
    for i in range(p):
        for j in range(m):
            max_src = max(max_src, nmat.entry(i, j).degree() or 0)
    for i in range(m):
        for j in range(m):
            max_src = max(max_src, dmat.entry(i, j).degree() or 0)
    top = bound + max_src
    for r in rhs_row:
        top = max(top, r.degree() or 0)

    a_rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(m):
        for t in range(top + 1):
            a_rows.append(
                [
                    coeff_of(e, c, j, t)
                    for e in range(p + m)
                    for c in range(width)
                ]
            )
            rhs.append(rhs_row[j].coeff(t))
    solved = linsolve_exact(a_rows, rhs)
    if solved is None:
        return None
    z, _ = solved
    polys = [
        Poly(tuple(z[e * width : (e + 1) * width])) for e in range(p + m)
    ]
    return polys[:p], polys[p:]


def stable_mfd(mfd: RightMFD, shift: Fraction | int = 1) -> StableMFD:
    """Divide the columns of a right coprime fraction by powers of
    (s + shift), producing proper stable factors and a Bezout witness."""
    sigma = Fraction(shift)
    if sigma <= 0:
        raise ValueError("shift must be positive")
    n, d = column_reduce(mfd.n, mfd.d)
    if not is_right_coprime(n, d):
        raise ValueError("matrix fraction is not right coprime")
    m = d.shape[0]
    p = n.shape[0]
    degs = d.column_degrees()
    col_degrees = tuple(deg if deg is not None else 0 for deg in degs)
    psis = [hurwitz_shift_polynomial(sigma, deg) for deg in col_degrees]
    nprime = RatMat(
        [[RatFn(n.entry(i, j), psis[j]) for j in range(m)] for i in range(p)]
    )
    dprime = RatMat(
        [[RatFn(d.entry(i, j), psis[j]) for j in range(m)] for i in range(m)]
    )

    base = max(1, max(col_degrees, default=1))
    alpha_rows: list[list[Poly]] = []
    beta_rows: list[list[Poly]] = []
    row_phis: list[Poly] = []
    for i in range(m):
        # rows are independent: escalate each one's degree bound on its own
        solved_row = None
        for k in range(0, base + 41):
            phi_k = hurwitz_shift_polynomial(sigma, k)
            rhs = [
                phi_k * psis[i] if j == i else Poly.constant(0) for j in range(m)
            ]
            solved = poly_row_diophantine(n, d, rhs, k)
            if solved is not None:
                solved_row = (solved[0], solved[1], phi_k)
                break
        if solved_row is None:
            raise ArithmeticError(
                "no Bezout witness found; fraction may not be coprime"
            )
        alpha, beta, phi_k = solved_row
        alpha_rows.append(alpha)
        beta_rows.append(beta)
        row_phis.append(phi_k)
    u = RatMat(
        [[RatFn(a, phi) for a in row] for row, phi in zip(alpha_rows, row_phis)]
    )
    v = RatMat(
        [[RatFn(b, phi) for b in row] for row, phi in zip(beta_rows, row_phis)]
    )
    if u @ nprime + v @ dprime != RatMat.identity(m):
        raise ArithmeticError("Bezout witness fails u @ n' + v @ d' = I")
    return StableMFD(nprime, dprime, u, v, sigma, col_degrees, RightMFD(n, d))


@dataclass(frozen=True)
class ZeroInfo:
    location: Fraction | complex
    multiplicity: int
    factor: Poly
    unstable: bool
    direction: tuple[Fraction, ...] | tuple[complex, ...] | None = None


@dataclass(frozen=True)
class PoleInfo:
    location: Fraction | complex
    multiplicity: int
    factor: Poly
    unstable: bool


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple[ZeroInfo, ...]
    poles: tuple[PoleInfo, ...]
    zero_polynomial: Poly
    pole_polynomial: Poly

    def unstable_zeros(self) -> tuple[ZeroInfo, ...]:
        return tuple(z for z in self.zeros if z.unstable)

    def unstable_poles(self) -> tuple[PoleInfo, ...]:
        return tuple(z for z in self.poles if z.unstable)


def _refined_roots(q: Poly) -> list[complex]:
    import numpy as np

    deg = q.degree() or 0
    if deg == 0:
        return []
    if deg == 1:
        return [complex(-q.coeff(0) / q.coeff(1))]
    coeffs = [float(q.coeff(k)) for k in range(deg, -1, -1)]
    roots = [complex(r) for r in np.roots(coeffs)]
    dq = q.derivative()
    refined = []
    for z in roots:
        for _ in range(60):
            fz = q(z)
            if abs(fz) <= 1e-13:
                break
            dz = dq(z)
            if dz == 0:
                break
            z = z - fz / dz
        refined.append(z)
    return refined


def _factor_roots(q: Poly) -> list[Fraction | complex]:
    if (q.degree() or 0) == 1:
        return [-q.coeff(0) / q.coeff(1)]
    return list(_refined_roots(q))


def _root_unstable(root: Fraction | complex, factor_hurwitz: bool) -> bool:
    if factor_hurwitz:
        return False
    if isinstance(root, Fraction):
        return root >= 0
    return root.real > -1e-9


def _left_null_direction(
    n: PolyMat, root: Fraction | complex
) -> tuple[Fraction, ...] | tuple[complex, ...] | None:
    p, m = n.shape
    if isinstance(root, Fraction):
        vals = [[n.entry(i, j)(root) for i in range(p)] for j in range(m)]
        solved = linsolve_exact(vals, [Fraction(0)] * m)
        if solved is None:
            return None
        _, basis = solved
        if not basis:
            return None
        return tuple(basis[0])
    import numpy as np

    mat = np.array(
        [[complex(n.entry(i, j)(root)) for j in range(m)] for i in range(p)]
    )
    _, sing, vh = np.linalg.svd(mat.T)
    scale = float(sing[0]) if len(sing) and sing[0] > 0 else 1.0
    null_rows = [
        i
        for i in range(vh.shape[0])
        if i >= len(sing) or sing[i] <= 1e-9 * scale
    ]
    if not null_rows:
        null_rows = [vh.shape[0] - 1]
    vec = vh[null_rows[0]].conj()
    return tuple(complex(x) for x in vec)


def zeros_and_poles(mfd: RightMFD) -> ZeroReport:
    """Transmission zeros and poles of a right coprime fraction, with
    exact left null directions at the unstable zeros."""
    n, d = mfd.n, mfd.d
    p, m = n.shape
    rank = n.to_ratmat().rank()
    if rank == 0:
        zero_poly = ONE
    else:
        zero_poly = Poly.constant(0)
        for rows in itertools.combinations(range(p), rank):
            for cols in itertools.combinations(range(m), rank):
                sub = PolyMat([[n.entry(i, j) for j in cols] for i in rows])
                minor = polymat_det(sub)
                if minor.is_zero():
                    continue
                zero_poly = minor if zero_poly.is_zero() else poly_gcd(zero_poly, minor)
                if zero_poly.is_constant():
                    break
            if not zero_poly.is_zero() and zero_poly.is_constant():
                break
        zero_poly = ONE if zero_poly.is_constant() else zero_poly.monic()
    pole_poly = polymat_det(d).monic()

    zeros: list[ZeroInfo] = []
    if not zero_poly.is_constant():
        for factor, mult in irreducible_factors(zero_poly):
            hurwitz = bool(is_hurwitz(factor))
            for root in _factor_roots(factor):
                unstable = _root_unstable(root, hurwitz)
                direction = _left_null_direction(n, root) if unstable else None
                zeros.append(ZeroInfo(root, mult, factor, unstable, direction))
    poles: list[PoleInfo] = []
    if not pole_poly.is_constant():
        for factor, mult in irreducible_factors(pole_poly):
            hurwitz = bool(is_hurwitz(factor))
            for root in _factor_roots(factor):
                poles.append(
                    PoleInfo(root, mult, factor, _root_unstable(root, hurwitz))
                )
    return ZeroReport(tuple(zeros), tuple(poles), zero_poly, pole_poly)
