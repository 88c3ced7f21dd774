"""Coprime polynomial matrix fractions and their stable rational refinements.

A rational transfer matrix P is written as a right fraction P = N * D**-1
with N, D polynomial and right coprime, or as a left fraction
P = Dl**-1 * Nl.  One Hermite transform gives the right fraction with a
certificate W @ [D; N] = I of its coprimeness (``RightMFD.w``).  Dividing
the columns of a column-reduced right fraction by powers of a fixed
Hurwitz factor (s + shift) yields a fraction P = N' * D'**-1 whose factors
are themselves proper and stable, together with a Bezout witness
U*N' + V*D' = I certifying coprimeness over the proper stable rationals.
``StableMFD`` holds that fraction and is the one analysis of a plant:
what the designs need beyond it (the plant, D'**-1, the proper-stable
left fraction) it computes once, on first use.  Every polynomial
coefficient-matching problem is solved by ``poly_row_diophantine``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .polyalg import (
    ONE,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    S,
    ZERO,
    ShapeError,
    SingularMatrixError,
    _column_fraction,
    _lowest,
    _over_lcd,
    _polymat_det_adj,
    _rref_z,
    hermite,
    hstack,
    linsolve_exact,
    poly_gcd,
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
    "stable_left_mfd",
    "poly_row_diophantine",
    "zeros_and_poles",
]


@dataclass(frozen=True)
class RightMFD:
    """Right polynomial fraction P = n * d**-1 with d nonsingular.

    ``w``, when given, certifies that n and d are right coprime by the
    generalized Bezout identity w @ [d; n] == I (Kailath, Linear Systems,
    1980, ch. 6), checked here: a failing ``w`` raises ValueError."""

    n: PolyMat
    d: PolyMat
    w: PolyMat | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n.shape[1] != self.d.shape[0] or self.d.shape[0] != self.d.shape[1]:
            raise ShapeError(
                f"incompatible fraction shapes {self.n.shape} and {self.d.shape}"
            )
        identity = PolyMat.identity(self.d.shape[0])
        if self.w is not None and self.w @ vstack(self.d, self.n) != identity:
            raise ValueError("coprimeness certificate fails w @ [d; n] = I")

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
    """Fraction P = nprime * dprime**-1 over the proper stable rationals:
    the one analysis of a plant that every design reads.

    ``u`` and ``v`` witness coprimeness: u @ nprime + v @ dprime == I.
    ``col_degrees`` records the column degrees of the polynomial fraction
    ``source`` = n * d**-1 (with its certificate ``w`` when it came from
    ``right_coprime_mfd``), i.e. the powers of (s + shift) divided out.
    The plant, d**-1 and d'**-1 (from one inversion of d), the polynomial
    left coprime fraction of the plant, the proper-stable left pair
    P = dl_prime**-1 @ nl_prime, the three polynomial factors of the Youla
    loop (``witness_row``, ``left_row`` and ``stacked``), the central
    loop's v**-1 (``witness_inverse``) and the unstable part of det d are
    computed on first use and kept.
    """

    nprime: RatMat
    dprime: RatMat
    u: RatMat
    v: RatMat
    shift: Fraction
    col_degrees: tuple[int, ...]
    source: RightMFD

    def plant(self) -> RatMat:
        """n @ d**-1, formed on first call and kept."""
        return self._plant

    @cached_property
    def scaling(self) -> tuple[Poly, ...]:
        """The column divisors (s + shift)**col_degrees[j]:
        d' = d @ diag(scaling)**-1."""
        return tuple(hurwitz_shift_polynomial(self.shift, deg) for deg in self.col_degrees)

    @cached_property
    def d_inv(self) -> RatMat:
        """d**-1 for the polynomial denominator d of ``source``."""
        return self.source.d.to_ratmat().inv()

    @cached_property
    def _plant(self) -> RatMat:
        return self.source.n.to_ratmat() @ self.d_inv

    @cached_property
    def dprime_inv(self) -> RatMat:
        """d'**-1 = diag(scaling) @ d**-1."""
        rows = zip(self.d_inv.rows, self.scaling)
        return RatMat([[e * psi for e in row] for row, psi in rows])

    @cached_property
    def left(self) -> LeftMFD:
        """The plant's left coprime polynomial fraction (``left_coprime_mfd``)."""
        return left_coprime_mfd(self.plant())

    @cached_property
    def _left(self) -> tuple[RatMat, RatMat]:
        return _stable_left(self.left, self.shift)

    @property
    def dl_prime(self) -> RatMat:
        """Denominator of the proper-stable left fraction (``stable_left_mfd``)."""
        return self._left[0]

    @property
    def nl_prime(self) -> RatMat:
        """Numerator of the proper-stable left fraction (``stable_left_mfd``)."""
        return self._left[1]

    @cached_property
    def stacked(self) -> tuple[Poly, PolyMat]:
        """(psi, [d^; n^]) with [d'; n'] = [d^; n^] / psi, psi the monic lcd
        of d' and n': the left factor of the Youla loop maps."""
        return _over_lcd(vstack(self.dprime, self.nprime))

    @cached_property
    def witness_row(self) -> tuple[Poly, PolyMat]:
        """(phi, [v^ | u^]) with [v | u] = [v^ | u^] / phi, phi the monic lcd."""
        return _over_lcd(hstack(self.v, self.u))

    @cached_property
    def witness_inverse(self) -> tuple[Poly, PolyMat]:
        """(det l, adj l) for l = phi * v of ``witness_row``: v**-1 = phi *
        adj l / det l.  Raises SingularMatrixError when v is singular."""
        m = self.dprime.shape[0]
        return _polymat_det_adj(PolyMat(tuple(row[:m] for row in self.witness_row[1].rows)))

    @cached_property
    def left_row(self) -> tuple[Poly, PolyMat]:
        """(psi, w) with [-nl' | dl'] = w / psi, psi the monic lcd: a Youla
        parameter k turns [v | u] into [v | u] + k @ [-nl' | dl']."""
        return _over_lcd(hstack(-self.nl_prime, self.dl_prime))

    @cached_property
    def unstable_denominator(self) -> Poly:
        """Product of the irreducible factors of det d that are not Hurwitz,
        with their multiplicities: the plant's unstable pole polynomial."""
        out = ONE
        for factor, mult in irreducible_factors(polymat_det(self.source.d)):
            if not is_hurwitz(factor):
                out = out * factor**mult
        return out


def right_coprime_mfd(p: RatMat) -> RightMFD:
    """Extract a right coprime, column-reduced fraction of a rational matrix,
    certified by one Hermite transform: u @ [d0; n0] = [r; 0] for the
    column fraction p = n0 @ d0**-1 gives [d; n] = [d0; n0] @ r**-1, exact
    polynomial division by det r, and the top rows w of u satisfy
    w @ [d; n] = I (``RightMFD.w``)."""
    cols = p.shape[1]
    d0_cols, n0 = _column_fraction(p)
    stacked = vstack(PolyMat.diag(d0_cols), n0)
    h, u = hermite(stacked)
    det, adj = _polymat_det_adj(PolyMat(tuple(row[:cols] for row in h.rows[:cols])))
    quotients = [[divmod(e, det) for e in row] for row in (stacked @ adj).rows]
    if any(not r.is_zero() for row in quotients for _, r in row):
        raise ArithmeticError("Hermite pivot block does not divide [d0; n0]")
    d, n = (
        PolyMat([[q for q, _ in row] for row in rows])
        for rows in (quotients[:cols], quotients[cols:])
    )
    return RightMFD(*_column_reduce(n, d, PolyMat(u.rows[:cols])))


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
    return _column_reduce(n, d, None)[:2]


def _column_reduce(
    n: PolyMat, d: PolyMat, w: PolyMat | None
) -> tuple[PolyMat, PolyMat, PolyMat | None]:
    """``column_reduce`` carrying a certificate w @ [d; n] = I along: each
    column operation on [d; n] is undone by a row operation on w."""
    if polymat_det(d).is_zero():
        raise SingularMatrixError("denominator matrix is singular")
    m = d.shape[0]
    p = n.shape[0]
    dcols = [[d.entry(i, j) for i in range(m)] for j in range(m)]
    ncols = [[n.entry(i, j) for i in range(p)] for j in range(m)]
    wrows = None if w is None else [list(row) for row in w.rows]
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
        mults = {
            j: Poly.constant(c[j]) * S ** (degs[target] - degs[j])
            for j in range(m)
            if j != target and c[j] != 0
        }
        for vec in (dcols, ncols):
            new_col = [e * c[target] for e in vec[target]]
            for j, mult in mults.items():
                new_col = [e + mult * g for e, g in zip(new_col, vec[j])]
            vec[target] = new_col
        if wrows is not None:
            # column target became c_t*col_t + sum_j mult_j*col_j: the
            # inverse divides row target by c_t, then takes mult_j times
            # it from row j
            wrows[target] = [e * (1 / c[target]) for e in wrows[target]]
            for j, mult in mults.items():
                wrows[j] = [e - mult * g for e, g in zip(wrows[j], wrows[target])]
    d_out = PolyMat([[dcols[j][i] for j in range(m)] for i in range(m)])
    n_out = PolyMat([[ncols[j][i] for j in range(m)] for i in range(p)])
    return n_out, d_out, None if wrows is None else PolyMat(wrows)


def poly_row_diophantine(
    nmat: PolyMat,
    dmat: PolyMat,
    rhs_row: Sequence[Poly],
    alpha_bound: int,
    beta_bound: int,
) -> tuple[list[Poly], list[Poly]] | None:
    """Solve alpha @ nmat + beta @ dmat = rhs for row vectors of
    polynomials by equating coefficients, with every entry of alpha of
    degree at most ``alpha_bound`` and every entry of beta of degree at
    most ``beta_bound``.

    Returns ``(alpha, beta)`` or ``None`` when no solution of those
    degrees exists.  The unknowns are the coefficients of alpha's entries,
    then beta's, each from s^0 up.
    """
    p, m = nmat.shape
    if dmat.shape != (m, m) or len(rhs_row) != m:
        raise ShapeError("incompatible shapes in row equation")
    blocks = ((nmat, p, alpha_bound), (dmat, m, beta_bound))
    top = max(r.degree() or 0 for r in rhs_row)
    for mat, rows, bound in blocks:
        for i in range(rows):
            for j in range(m):
                top = max(top, bound + (mat.entry(i, j).degree() or 0))

    # The equations of column j, over the lcm of the denominators there,
    # are rows of integers read from the stored numerators.
    bounds = [bound for _, rows, bound in blocks for _ in range(rows)]
    aug: list[list[int]] = []
    for j in range(m):
        polys = [mat.entry(i, j) for mat, rows, _ in blocks for i in range(rows)]
        polys.append(rhs_row[j])
        lcd = math.lcm(*(e._d for e in polys))
        zs = [[x * (lcd // e._d) for x in e._z] for e in polys]
        rhs_z = zs.pop()
        for t in range(top + 1):
            row = [
                z[t - c] if 0 <= t - c < len(z) else 0
                for z, bound in zip(zs, bounds)
                for c in range(bound + 1)
            ]
            row.append(rhs_z[t] if t < len(rhs_z) else 0)
            aug.append(row)
    n = sum(bound + 1 for bound in bounds)
    pivots = _rref_z(aug, n)
    if pivots is None:
        return None
    # unknown col is row[n] / row[col] of its pivot row, and 0 if free
    value = {col: (row[n], row[col]) for row, col in zip(aug, pivots)}
    out, col = [], 0
    for bound in bounds:
        pairs = [value.get(c, (0, 1)) for c in range(col, col + bound + 1)]
        lcd = math.lcm(*(q for _, q in pairs))
        out.append(_lowest([x * (lcd // q) for x, q in pairs], lcd))
        col += bound + 1
    return out[:p], out[p:]


def _least_degree_solve(
    nmat: PolyMat, dmat: PolyMat, rhs_at: Callable[[int], Sequence[Poly]], limit: int
) -> tuple[list[Poly], list[Poly], int] | None:
    """``poly_row_diophantine`` at the least degree bound k <= limit for
    which alpha @ nmat + beta @ dmat = rhs_at(k) has a solution, as
    (alpha, beta, k), or None."""
    for k in range(limit + 1):
        solved = poly_row_diophantine(nmat, dmat, rhs_at(k), k, k)
        if solved is not None:
            return (*solved, k)
    return None


def stable_mfd(mfd: RightMFD, shift: Fraction | int = 1) -> StableMFD:
    """Divide the columns of a right coprime fraction by powers of
    (s + shift), producing proper stable factors and a Bezout witness.
    Coprimeness is read off the fraction's certificate ``w`` when it has
    one, else checked by a Hermite elimination."""
    sigma = Fraction(shift)
    if sigma <= 0:
        raise ValueError("shift must be positive")
    source = RightMFD(*_column_reduce(mfd.n, mfd.d, mfd.w))
    n, d = source.n, source.d
    if source.w is None and not is_right_coprime(n, d):
        raise ValueError("matrix fraction is not right coprime")
    m = d.shape[0]
    col_degrees = tuple(deg if deg is not None else 0 for deg in d.column_degrees())
    psis = [hurwitz_shift_polynomial(sigma, deg) for deg in col_degrees]
    nprime, dprime = (
        RatMat([[RatFn(e, psi) for e, psi in zip(row, psis)] for row in mat.rows])
        for mat in (n, d)
    )

    base = max(1, max(col_degrees, default=1))
    solutions = []
    for i in range(m):
        # rows are independent: each is solved at its own least degree
        rhs_at = lambda k: [
            hurwitz_shift_polynomial(sigma, k) * psis[i] if j == i else ZERO for j in range(m)
        ]
        solved = _least_degree_solve(n, d, rhs_at, base + 40)
        if solved is None:
            raise ArithmeticError("no Bezout witness found; fraction may not be coprime")
        solutions.append(solved)
    alphas, betas, degrees = zip(*solutions)
    phis = [hurwitz_shift_polynomial(sigma, k) for k in degrees]
    # u = diag(phi)**-1 @ alpha and v = diag(phi)**-1 @ beta, so this is
    # u @ n' + v @ d' = I times diag(phi) on the left and diag(psi) on the right
    rhs = PolyMat.diag([phi * psi for phi, psi in zip(phis, psis)])
    if PolyMat(alphas) @ n + PolyMat(betas) @ d != rhs:
        raise ArithmeticError("Bezout witness fails u @ n' + v @ d' = I")
    u, v = (
        RatMat([[RatFn(e, phi) for e in row] for row, phi in zip(mat, phis)])
        for mat in (alphas, betas)
    )
    return StableMFD(nprime, dprime, u, v, sigma, col_degrees, source)


def stable_left_mfd(p: RatMat, shift: Fraction | int = 1) -> tuple[RatMat, RatMat]:
    """Left fraction p = dl'**-1 @ nl' over the proper stable rationals,
    returned as (dl', nl'): each row of a left coprime fraction is divided
    by (s + shift) to the power of the row degree of dl."""
    return _stable_left(left_coprime_mfd(p), shift)


def _stable_left(left: LeftMFD, shift: Fraction | int) -> tuple[RatMat, RatMat]:
    psis = [hurwitz_shift_polynomial(shift, deg or 0) for deg in left.dl.row_degrees()]
    dl_prime, nl_prime = (
        RatMat([[RatFn(e, psi) for e in row] for row, psi in zip(mat.rows, psis)])
        for mat in (left.dl, left.nl)
    )
    return dl_prime, nl_prime


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
    rank = n.rank()
    if rank == 0:
        zero_poly = ONE
    else:
        zero_poly = ZERO
        for rows, cols in itertools.product(
            itertools.combinations(range(p), rank), itertools.combinations(range(m), rank)
        ):
            minor = polymat_det(PolyMat([[n.entry(i, j) for j in cols] for i in rows]))
            if not minor.is_zero():
                zero_poly = minor if zero_poly.is_zero() else poly_gcd(zero_poly, minor)
                if zero_poly.is_constant():
                    break
        zero_poly = ONE if zero_poly.is_constant() else zero_poly.monic()
    pole_poly = polymat_det(d).monic()

    def roots(poly: Poly):
        """(root, multiplicity, factor, unstable) of each root of poly."""
        for factor, mult in [] if poly.is_constant() else irreducible_factors(poly):
            hurwitz = bool(is_hurwitz(factor))
            for root in _factor_roots(factor):
                yield root, mult, factor, _root_unstable(root, hurwitz)

    zeros = tuple(
        ZeroInfo(*info, _left_null_direction(n, info[0]) if info[3] else None)
        for info in roots(zero_poly)
    )
    poles = tuple(PoleInfo(*info) for info in roots(pole_poly))
    return ZeroReport(zeros, poles, zero_poly, pole_poly)
