"""Coprime polynomial matrix fractions and their stable rational refinements.

A rational transfer matrix P is written as a right fraction P = N * D**-1
with N, D polynomial and right coprime, or as a left fraction
P = Dl**-1 * Nl.  One Hermite transform gives the right fraction with a
certificate W @ [D; N] = I of its coprimeness (``RightMFD.w``) and a
row-reduced basis L of the left kernel of [D; N] (``RightMFD.kernel``).
Dividing the columns of a column-reduced right fraction by powers of a
fixed Hurwitz factor (s + shift) yields a fraction P = N' * D'**-1 whose
factors are themselves proper and stable, together with a Bezout witness
U*N' + V*D' = I certifying coprimeness over the proper stable rationals.
Each row of a witness is read off W and L by division, with at most one
coefficient-matching elimination (``poly_row_diophantine``) per row.
``StableMFD`` holds that fraction and is the one analysis of a plant:
what the designs need beyond it (the plant, D'**-1, the proper-stable
left fraction) it computes once, on first use.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

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
    _mul,
    _over_lcd,
    _polymat_det_adj,
    _rref_z,
    _trim,
    _z_line,
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
    "column_reduce",
    "stable_mfd",
    "stable_left_mfd",
    "poly_row_diophantine",
    "zeros_and_poles",
]


class RightMFD:
    """Right polynomial fraction P = n * d**-1 with d nonsingular.

    ``w``, when given, certifies that n and d are right coprime by the
    generalized Bezout identity w @ [d; n] == I (Kailath, Linear Systems,
    1980, ch. 6), checked here: a failing ``w`` raises ValueError.  With
    it ``right_coprime_mfd`` keeps ``kernel``, a row-reduced basis of the
    left kernel of [d; n]; a fraction that carries one is column reduced.
    Equality and hashing follow n and d alone."""

    __slots__ = ("n", "d", "w", "kernel")

    def __init__(
        self, n: PolyMat, d: PolyMat, w: PolyMat | None = None, kernel: PolyMat | None = None
    ) -> None:
        if n.shape[1] != d.shape[0] or d.shape[0] != d.shape[1]:
            raise ShapeError(f"incompatible fraction shapes {n.shape} and {d.shape}")
        if w is not None and w @ vstack(d, n) != PolyMat.identity(d.shape[0]):
            raise ValueError("coprimeness certificate fails w @ [d; n] = I")
        self.n, self.d, self.w, self.kernel = n, d, w, kernel

    def __eq__(self, other) -> bool:
        if other.__class__ is not RightMFD:
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    @property
    def outputs(self) -> int:
        return self.n.shape[0]

    @property
    def inputs(self) -> int:
        return self.n.shape[1]

    def plant(self) -> RatMat:
        return self.n.to_ratmat() @ self.d.to_ratmat().inv()


class LeftMFD:
    """Left polynomial fraction P = dl**-1 * nl with dl nonsingular."""

    __slots__ = ("dl", "nl")

    def __init__(self, dl: PolyMat, nl: PolyMat) -> None:
        if dl.shape[0] != dl.shape[1] or dl.shape[1] != nl.shape[0]:
            raise ShapeError(f"incompatible fraction shapes {dl.shape} and {nl.shape}")
        self.dl, self.nl = dl, nl

    def plant(self) -> RatMat:
        return self.dl.to_ratmat().inv() @ self.nl.to_ratmat()


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

    # the instance dict holds the values formed on first use
    __slots__ = ("nprime", "dprime", "u", "v", "shift", "col_degrees", "source", "__dict__")

    def __init__(
        self,
        nprime: RatMat,
        dprime: RatMat,
        u: RatMat,
        v: RatMat,
        shift: Fraction,
        col_degrees: tuple[int, ...],
        source: RightMFD,
    ) -> None:
        self.nprime, self.dprime, self.u, self.v = nprime, dprime, u, v
        self.shift, self.col_degrees, self.source = shift, col_degrees, source

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
        return stable_left_mfd(self.left, self.shift)

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
    column fraction p = n0 @ d0**-1 gives [d; n] = [d0; n0] @ r**-1 (exact
    division by det r, and none when r is I, as for every scalar plant),
    the certificate w = u[:m] of w @ [d; n] = I and the kernel u[m:]."""
    cols = p.shape[1]
    d0_cols, n0 = _column_fraction(p)
    d, n = PolyMat.diag(d0_cols), n0
    h, u = hermite(vstack(d, n))
    if PolyMat(h.rows[:cols]) != PolyMat.identity(cols):
        det, adj = _polymat_det_adj(PolyMat(h.rows[:cols]))
        quotients = [[divmod(e, det) for e in row] for row in (vstack(d, n) @ adj).rows]
        if any(not rem.is_zero() for row in quotients for _, rem in row):
            raise ArithmeticError("Hermite pivot block does not divide [d0; n0]")
        d, n = (
            PolyMat([[q for q, _ in row] for row in rows])
            for rows in (quotients[:cols], quotients[cols:])
        )
    return RightMFD(*_column_reduce(n, d, PolyMat(u.rows[:cols])), _reduce(u.rows[cols:]))


def left_coprime_mfd(p: RatMat) -> LeftMFD:
    """Extract a left coprime, row-reduced fraction of a rational matrix."""
    right = right_coprime_mfd(p.transpose())
    return LeftMFD(dl=right.d.transpose(), nl=right.n.transpose())


def _hermite_certificate(n: PolyMat, d: PolyMat) -> RightMFD | None:
    """n @ d**-1 with w = u[:m] and the kernel u[m:] of the Hermite transform
    u @ [d; n] = [r; 0], or None when r is not I: its pivots are monic, so
    r is I exactly when n and d are right coprime."""
    m = d.shape[1]
    h, u = hermite(vstack(d, n))
    if PolyMat(h.rows[:m]) != PolyMat.identity(m):
        return None
    return RightMFD(n, d, PolyMat(u.rows[:m]), _reduce(u.rows[m:]))


def column_reduce(n: PolyMat, d: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Right-multiply both factors by a unimodular matrix until the
    highest-column-degree coefficient matrix of ``d`` is nonsingular."""
    return _column_reduce(n, d, None)[:2]


def _column_reduce(
    n: PolyMat, d: PolyMat, w: PolyMat | None
) -> tuple[PolyMat, PolyMat, PolyMat | None]:
    """``column_reduce`` carrying a certificate w @ [d; n] = I along."""
    if polymat_det(d).is_zero():
        raise SingularMatrixError("denominator matrix is singular")
    m = d.shape[0]
    wrows = None if w is None else [list(row) for row in w.rows]
    rows = _reduce(vstack(d, n).transpose().rows, m, wrows).transpose().rows
    return PolyMat(rows[m:]), PolyMat(rows[:m]), None if w is None else PolyMat(wrows)


def _reduce(
    rows: Sequence[Sequence[Poly]], lead: int | None = None, wrows: list | None = None
) -> PolyMat:
    """Row-reduce independent polynomial rows by unimodular row operations:
    combine them until the coefficients of s**deg of their first ``lead``
    entries (all by default), deg a row's degree over those entries, are
    linearly independent.  Each operation is undone on the rows ``wrows``."""
    vecs = [list(row) for row in rows]
    lead = lead or len(vecs[0])
    while len(vecs) > 1:  # one nonzero row is reduced
        degs = [max(e.degree() for e in vec[:lead] if not e.is_zero()) for vec in vecs]
        gamma = [[vec[i].coeff(deg) for vec, deg in zip(vecs, degs)] for i in range(lead)]
        solved = linsolve_exact(gamma, [Fraction(0)] * lead)
        if solved is None:
            raise ArithmeticError("homogeneous system reported inconsistent")
        _, nullspace = solved
        if not nullspace:
            break
        c = nullspace[0]
        used = [j for j in range(len(vecs)) if c[j] != 0]
        target = max(used, key=lambda j: (degs[j], j))
        mults = {
            j: Poly.constant(c[j]) * S ** (degs[target] - degs[j]) for j in used if j != target
        }
        new_vec = [e * c[target] for e in vecs[target]]
        for j, mult in mults.items():
            new_vec = [e + mult * g for e, g in zip(new_vec, vecs[j])]
        vecs[target] = new_vec
        if wrows is not None:
            # row target became c_t*row_t + sum_j mult_j*row_j: the
            # inverse divides row target of w by c_t, then takes mult_j
            # times it from row j
            wrows[target] = [e * (1 / c[target]) for e in wrows[target]]
            for j, mult in mults.items():
                wrows[j] = [e - mult * g for e, g in zip(wrows[j], wrows[target])]
    return PolyMat(vecs)


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


def _least_degree_witness(
    mfd: RightMFD, rhs: list[Poly], shift: Fraction | None, limit: int
) -> tuple[list[Poly], list[Poly], int] | None:
    """(alpha, beta, k) with alpha @ n + beta @ d = (s + shift)**k * rhs (rhs
    when shift is None) and entries of degree at most k, at the least such
    k <= limit, as ``poly_row_diophantine(n, d, rhs_k, k, k)`` gives it; or
    None.  Each solution [beta | alpha] is rhs_k @ w plus a combination of
    kernel rows, and cancelling the top coefficients of x = rhs_k @ w by
    kernel rows, while they lie in the span of those rows' leading ones,
    leaves x of least degree (predictable-degree property; Forney, SIAM J.
    Control 13, 1975).  Below the least kernel row degree x is the only
    solution; from there on the elimination runs once, for its choice of
    free coefficients.  The division runs over Z, with x = xz / den."""
    m = mfd.d.shape[0]
    rows = [_z_line(row)[0] for row in mfd.kernel.rows]
    mus = [max(map(len, zs)) - 1 for zs in rows]
    xz, den = _z_line((PolyMat([rhs]) @ mfd.w).rows[0])
    k = 0
    while True:
        top = max(map(len, xz)) - 1
        use = [i for i, mu in enumerate(mus) if mu <= top]
        # y @ (the s**mu coefficients of the rows in use) = those of s**top in x
        aug = [
            [rows[i][j][mus[i]] if mus[i] < len(rows[i][j]) else 0 for i in use]
            + [z[top] if top < len(z) else 0]
            for j, z in enumerate(xz)
        ]
        pivots = _rref_z(aug, len(use)) if use else None
        if pivots is not None:
            q = math.lcm(*(row[col] for row, col in zip(aug, pivots)))
            xz = [[v * q for v in z] + [0] * (top + 1 - len(z)) for z in xz]
            for row, col in zip(aug, pivots):
                y, i = row[-1] * (q // row[col]), use[col]
                for z, lz in zip(xz, rows[i]):
                    for t, v in enumerate(lz, top - mus[i]):
                        z[t] -= y * v
            g = math.gcd(den * q, *(v for z in xz for v in z))
            den = den * q // g
            xz = [_trim([v // g for v in z]) for z in xz]
        elif top <= k:
            break
        else:  # no solution of degree k: on to k + 1, with rhs_k times s + shift
            k = top if shift is None else k + 1
            if k > limit:
                return None
            if shift is not None:
                xz = [_mul(z, [shift.numerator, shift.denominator]) for z in xz]
                den *= shift.denominator
    if k < min(mus):
        x = [_lowest(z, den) for z in xz]
        return x[m:], x[:m], k
    scale = ONE if shift is None else hurwitz_shift_polynomial(shift, k)
    solved = poly_row_diophantine(mfd.n, mfd.d, [scale * e for e in rhs], k, k)
    return None if solved is None else (*solved, k)


def stable_mfd(mfd: RightMFD, shift: Fraction | int = 1) -> StableMFD:
    """Divide the columns of a right coprime fraction by powers of
    (s + shift), producing proper stable factors and a Bezout witness whose
    rows are read off ``w`` and ``kernel`` by division, with at most one
    elimination each (``_least_degree_witness``).  A fraction with a kernel
    is taken as it is; any other is column reduced and certified by a
    Hermite elimination.  A fraction of an improper plant is refused: with
    d column reduced, n @ d**-1 is proper exactly when no column of n has
    a higher degree than the same column of d (Kailath, Linear Systems,
    1980, section 6.3)."""
    sigma = Fraction(shift)
    if sigma <= 0:
        raise ValueError("shift must be positive")
    source = mfd if mfd.kernel is not None else _hermite_certificate(*column_reduce(mfd.n, mfd.d))
    if source is None:
        raise ValueError("matrix fraction is not right coprime")
    n, d = source.n, source.d
    m = d.shape[0]
    col_degrees = tuple(deg if deg is not None else 0 for deg in d.column_degrees())
    if any((deg or 0) > top for deg, top in zip(n.column_degrees(), col_degrees)):
        raise ValueError("plant must be proper")
    psis = [hurwitz_shift_polynomial(sigma, deg) for deg in col_degrees]
    nprime, dprime = (
        RatMat([[RatFn(e, psi) for e, psi in zip(row, psis)] for row in mat.rows])
        for mat in (n, d)
    )

    base = max(1, max(col_degrees, default=1))
    solutions = []
    for i in range(m):
        # rows are independent: each is solved at its own least degree
        rhs = [psis[i] if j == i else ZERO for j in range(m)]
        solved = _least_degree_witness(source, rhs, sigma, base + 40)
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


def stable_left_mfd(left: LeftMFD, shift: Fraction | int = 1) -> tuple[RatMat, RatMat]:
    """The left fraction dl**-1 @ nl over the proper stable rationals,
    returned as (dl', nl'): each row of the left coprime fraction ``left``
    is divided by (s + shift) to the power of the row degree of dl."""
    psis = [hurwitz_shift_polynomial(shift, deg or 0) for deg in left.dl.row_degrees()]
    dl_prime, nl_prime = (
        RatMat([[RatFn(e, psi) for e in row] for row, psi in zip(mat.rows, psis)])
        for mat in (left.dl, left.nl)
    )
    return dl_prime, nl_prime


class ZeroInfo:
    __slots__ = ("location", "multiplicity", "factor", "unstable", "direction")

    def __init__(
        self,
        location: Fraction | complex,
        multiplicity: int,
        factor: Poly,
        unstable: bool,
        direction: tuple[Fraction, ...] | tuple[complex, ...] | None = None,
    ) -> None:
        self.location, self.multiplicity, self.factor = location, multiplicity, factor
        self.unstable, self.direction = unstable, direction


class PoleInfo:
    __slots__ = ("location", "multiplicity", "factor", "unstable")

    def __init__(
        self, location: Fraction | complex, multiplicity: int, factor: Poly, unstable: bool
    ) -> None:
        self.location, self.multiplicity = location, multiplicity
        self.factor, self.unstable = factor, unstable


class ZeroReport:
    __slots__ = ("zeros", "poles", "zero_polynomial", "pole_polynomial")

    def __init__(
        self,
        zeros: tuple[ZeroInfo, ...],
        poles: tuple[PoleInfo, ...],
        zero_polynomial: Poly,
        pole_polynomial: Poly,
    ) -> None:
        self.zeros, self.poles = zeros, poles
        self.zero_polynomial, self.pole_polynomial = zero_polynomial, pole_polynomial

    def unstable_zeros(self) -> tuple[ZeroInfo, ...]:
        return tuple(z for z in self.zeros if z.unstable)


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
