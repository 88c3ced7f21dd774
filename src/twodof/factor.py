"""Coprime polynomial matrix fractions and their stable rational refinements.

A rational transfer matrix P is written as a right fraction P = N * D**-1
with N, D polynomial and right coprime, or as a left fraction
P = Dl**-1 * Nl.  ``_certified`` alone certifies a right fraction, one
built by hand too, by the Hermite transform of its [D; N]: a row-reduced
basis L of its left kernel, rows primitive over Z (``RightMFD.kernel``),
and W @ [D; N] = I, W reduced modulo L once (``RightMFD.w``).
Dividing the columns of a column-reduced right fraction by powers of a
fixed Hurwitz factor (s + shift) yields a fraction P = N' * D'**-1 whose
factors are themselves proper and stable, together with a Bezout witness
U*N' + V*D' = I certifying coprimeness over the proper stable rationals.
Each row of a witness is read off W and L by division, with at most one
coefficient-matching elimination (``poly_row_diophantine``) per degree.
``StableMFD`` holds that fraction and is the one analysis of a plant:
what the designs need beyond it (D'**-1, the proper-stable left
fraction) it computes once, on first use.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, reduce

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
    _from_z,
    _is_product,
    _lowest,
    _mul,
    _null_vector,
    _over_lcd,
    _polymat_det_adj,
    _row_lowest,
    _rref_z,
    _trim,
    _Value,
    _z_line,
    hermite,
    hstack,
    poly_gcd,
    polymat_det,
    vstack,
)
from .stability import _routh_is_hurwitz, hurwitz_shift_polynomial, irreducible_factors

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


class RightMFD(_Value):
    """Right polynomial fraction P = n * d**-1 with d nonsingular.

    ``w`` and ``kernel`` are None unless ``_certified`` read them off the
    Hermite transform of this [d; n]: ``kernel`` is a row-reduced basis of
    its left kernel, rows primitive over Z, and ``w``, reduced modulo it,
    certifies right coprimeness by w @ [d; n] == I (Kailath, Linear Systems,
    1980, ch. 6); the fractions of ``right_coprime_mfd`` are column reduced.  None
    of the four is assigned after that, so no certificate is swapped in.
    Equality and hashing follow n and d alone."""

    __slots__ = ("n", "d", "w", "kernel")

    def __init__(self, n: PolyMat, d: PolyMat) -> None:
        if n.shape[1] != d.shape[0] or d.shape[0] != d.shape[1]:
            raise ShapeError(f"incompatible fraction shapes {n.shape} and {d.shape}")
        _attach(self, n=n, d=d, w=None, kernel=None)

    def __setstate__(self, state) -> None:  # copy, deepcopy and pickle
        _attach(self, **state[1])

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


def _attach(mfd: RightMFD, **slots) -> None:
    """Set the named slots of mfd by their descriptors."""
    for name, value in slots.items():
        getattr(RightMFD, name).__set__(mfd, value)


class LeftMFD:
    """Left polynomial fraction P = dl**-1 * nl with dl nonsingular."""

    __slots__ = ("dl", "nl")

    def __init__(self, dl: PolyMat, nl: PolyMat) -> None:
        if dl.shape[0] != dl.shape[1] or dl.shape[1] != nl.shape[0]:
            raise ShapeError(f"incompatible fraction shapes {dl.shape} and {nl.shape}")
        self.dl, self.nl = dl, nl

    def plant(self) -> RatMat:
        return self.dl.to_ratmat().inv() @ self.nl.to_ratmat()


class StableMFD(namedtuple("StableMFD", "nprime dprime u v shift col_degrees source")):
    """Fraction P = nprime * dprime**-1 over the proper stable rationals:
    the one analysis of a plant that every design reads.

    ``u`` and ``v`` witness coprimeness: u @ nprime + v @ dprime == I.
    ``col_degrees`` records the column degrees of the certified polynomial
    fraction ``source`` = n * d**-1, i.e. the powers of (s + shift) divided out.
    d**-1 and d'**-1 (from one inversion of d), the polynomial left coprime
    fraction of the plant, the proper-stable left pair
    P = dl_prime**-1 @ nl_prime, the three polynomial factors of the Youla
    loop (``witness_row``, ``left_row`` and ``stacked``) and the unstable
    part of det d are computed on first use and kept in the instance dict.
    """

    def plant(self) -> RatMat:
        """n @ d**-1."""
        return self.source.n.to_ratmat() @ self.d_inv

    @cached_property
    def scaling(self) -> tuple[Poly, ...]:
        """The column divisors (s + shift)**col_degrees[j]:
        d' = d @ diag(scaling)**-1."""
        return tuple(hurwitz_shift_polynomial(self.shift, deg) for deg in self.col_degrees)

    def x_of(self, xprime: RatMat) -> RatMat:
        """x = diag(scaling)**-1 @ x': the parameter of n @ x that n' @ x' is."""
        return RatMat(tuple(tuple(e / psi for e in row) for row, psi in zip(xprime.rows, self.scaling)))

    def xprime_of(self, x: RatMat) -> RatMat:
        """x' = diag(scaling) @ x, the inverse of ``x_of``."""
        return RatMat(tuple(tuple(e * psi for e in row) for row, psi in zip(x.rows, self.scaling)))

    @cached_property
    def d_inv(self) -> RatMat:
        """d**-1 for the polynomial denominator d of ``source``."""
        return self.source.d.to_ratmat().inv()

    @cached_property
    def dprime_inv(self) -> RatMat:
        """d'**-1 = diag(scaling) @ d**-1."""
        return self.xprime_of(self.d_inv)

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
            if not _routh_is_hurwitz(factor):
                out = out * factor**mult
        return out


def _certified(n: PolyMat, d: PolyMat, u: PolyMat | None = None) -> RightMFD:
    """n @ d**-1 certified by the Hermite transform u @ [d; n] = [r; 0],
    formed here unless given: the kernel u[m:], row reduced with each row
    primitive over Z, and w = u[:m] reduced modulo it once (``_divided_row``).
    w @ [d; n] is r, so a fraction that is not right coprime (r is not I)
    raises ValueError."""
    m, stacked = d.shape[0], vstack(d, n)
    if u is None:
        u = hermite(stacked)[1]
    # each row primitive before row reduction too, as the transform's are long
    rows = [list(map(_from_z, _row_lowest(_z_line(row)[0], 0)[0])) for row in u.rows[m:]]
    kernel = [_row_lowest(_z_line(row)[0], 0)[0] for row in _reduce(rows)]
    mus = [max(map(len, zs)) - 1 for zs in kernel]
    reduced = (_divided_row(kernel, mus, row, None, math.inf) for row in u.rows[:m])
    w = PolyMat(tuple(tuple(_lowest(z, den) for z in xz) for xz, den, _ in reduced))
    if not _is_product(w, stacked, ONE, PolyMat.identity(m)):
        raise ValueError("fraction is not right coprime: its certificate fails w @ [d; n] = I")
    mfd = RightMFD(n, d)
    _attach(mfd, w=w, kernel=PolyMat(tuple(tuple(map(_from_z, zs)) for zs in kernel)))
    return mfd


def right_coprime_mfd(p: RatMat) -> RightMFD:
    """Extract a right coprime, column-reduced fraction of a rational matrix,
    certified by its own Hermite transform: u @ [d0; n0] = [r; 0] for the
    column fraction p = n0 @ d0**-1 serves when r is I, as for every scalar
    plant (d0, a diagonal of monic lcds, is column reduced); else
    [d; n] = [d0; n0] @ r**-1 (exact division by det r) is column reduced
    and ``_certified`` eliminates it once more."""
    cols = p.shape[1]
    d, n = _column_fraction(p)
    h, u = hermite(vstack(d, n))
    if PolyMat(h.rows[:cols]) == PolyMat.identity(cols):
        return _certified(n, d, u)
    det, adj = _polymat_det_adj(PolyMat(h.rows[:cols]))
    quotients = [[divmod(e, det) for e in row] for row in (vstack(d, n) @ adj).rows]
    if any(not rem.is_zero() for row in quotients for _, rem in row):
        raise ArithmeticError("Hermite pivot block does not divide [d0; n0]")
    rows = [tuple(q for q, _ in row) for row in quotients]
    # a quotient left with a common divisor fails its certificate
    return _certified(*column_reduce(PolyMat(tuple(rows[cols:])), PolyMat(tuple(rows[:cols]))))


def left_coprime_mfd(p: RatMat) -> LeftMFD:
    """Extract a left coprime, row-reduced fraction of a rational matrix."""
    right = right_coprime_mfd(p.transpose())
    return LeftMFD(dl=right.d.transpose(), nl=right.n.transpose())


def column_reduce(n: PolyMat, d: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Right-multiply both factors by a unimodular matrix until the
    highest-column-degree coefficient matrix of ``d`` is nonsingular."""
    if polymat_det(d).is_zero():
        raise SingularMatrixError("denominator matrix is singular")
    m = d.shape[0]
    rows = tuple(zip(*_reduce(tuple(zip(*d.rows, *n.rows)), m)))
    return PolyMat(rows[m:]), PolyMat(rows[:m])


def _reduce(rows: Sequence[Sequence[Poly]], lead: int | None = None) -> list[list[Poly]]:
    """Row-reduce independent polynomial rows by unimodular row operations:
    combine them until the coefficients of s**deg of their first ``lead``
    entries (all by default), deg a row's degree over those entries, are
    linearly independent."""
    vecs = [list(row) for row in rows]
    lead = lead or len(vecs[0])
    while len(vecs) > 1:  # one nonzero row is reduced
        degs = [max(e.degree() for e in vec[:lead] if not e.is_zero()) for vec in vecs]
        gamma = [[vec[i].coeff(deg) for vec, deg in zip(vecs, degs)] for i in range(lead)]
        c = _null_vector(gamma)
        if c is None:
            break
        used = [j for j in range(len(vecs)) if c[j] != 0]
        target = max(used, key=lambda j: (degs[j], j))
        new_vec = [e * c[target] for e in vecs[target]]
        for j in used:
            if j != target:
                mult = Poly.constant(c[j]) * S ** (degs[target] - degs[j])
                new_vec = [e + mult * g for e, g in zip(new_vec, vecs[j])]
        vecs[target] = new_vec
    return vecs


def poly_row_diophantine(
    nmat: PolyMat, dmat: PolyMat, rhs_rows: Sequence[Sequence[Poly]], bound: int
) -> list[tuple[list[Poly], list[Poly]]] | None:
    """Solve alpha @ nmat + beta @ dmat = rhs for row vectors of
    polynomials by equating coefficients, for each row rhs of ``rhs_rows``,
    with every entry of alpha and beta of degree at most ``bound``.

    Returns one ``(alpha, beta)`` per row, or ``None`` when some row has no
    solution of those degrees.  The unknowns are the coefficients of
    alpha's entries, then beta's, each from s^0 up; one elimination serves
    every row, the right-hand sides riding along.
    """
    p, m = nmat.shape
    if dmat.shape != (m, m) or any(len(row) != m for row in rhs_rows):
        raise ShapeError("incompatible shapes in row equation")
    stacked = vstack(nmat, dmat)
    degree = lambda rows: max(e.degree() or 0 for row in rows for e in row)
    top = max(degree(rhs_rows), bound + degree(stacked.rows))

    # The equations of column j, over the lcm of the denominators there,
    # are rows of integers read from the stored numerators.
    aug: list[list[int]] = []
    for j in range(m):
        zs = _z_line([row[j] for row in stacked.rows] + [row[j] for row in rhs_rows])[0]
        for t in range(top + 1):
            row = [
                z[t - c] if 0 <= t - c < len(z) else 0 for z in zs[: p + m] for c in range(bound + 1)
            ]
            row += [z[t] if t < len(z) else 0 for z in zs[p + m :]]
            aug.append(row)
    n = (p + m) * (bound + 1)
    pivots = _rref_z(aug, n)
    if pivots is None:
        return None
    solutions = []
    for b in range(n, n + len(rhs_rows)):
        # unknown col is row[b] / row[col] of its pivot row, and 0 if free
        value = {col: (row[b], row[col]) for row, col in zip(aug, pivots)}
        out = []
        for col in range(0, n, bound + 1):
            pairs = [value.get(c, (0, 1)) for c in range(col, col + bound + 1)]
            lcd = math.lcm(*(q for _, q in pairs))
            out.append(_lowest([x * (lcd // q) for x, q in pairs], lcd))
        solutions.append((out[:p], out[p:]))
    return solutions


def _divided_row(
    kernel: list, mus: list[int], x: Sequence[Poly], shift: Fraction | None, limit: float
) -> tuple[list[list[int]], int, int]:
    """(xz, den, k): the least k <= limit at which the row x = rhs @ w of
    ``_bezout_rows`` has a solution of degree k, and x for rhs_k, cancelled
    by the ``kernel`` rows, of degrees ``mus``, to its least degree xz / den.
    With shift None, x itself is reduced modulo the kernel, and k is its
    least degree (``_certified`` reduces w so, with no limit)."""
    (xz, den), k = _z_line(x), 0
    while True:
        top = max(map(len, xz)) - 1
        use = [i for i, mu in enumerate(mus) if mu <= top]
        # y @ (the s**mu coefficients of the rows in use) = those of s**top in x
        aug = [
            [kernel[i][j][mus[i]] if mus[i] < len(kernel[i][j]) else 0 for i in use]
            + [z[top] if top < len(z) else 0]
            for j, z in enumerate(xz)
        ]
        pivots = _rref_z(aug, len(use)) if use else None
        if pivots is not None:
            q = math.lcm(*(row[col] for row, col in zip(aug, pivots)))
            xz = [[v * q for v in z] + [0] * (top + 1 - len(z)) for z in xz]
            for row, col in zip(aug, pivots):
                y, i = row[-1] * (q // row[col]), use[col]
                for z, lz in zip(xz, kernel[i]):
                    for t, v in enumerate(lz, top - mus[i]):
                        z[t] -= y * v
            xz, den = _row_lowest([_trim(z) for z in xz], den * q)
        elif top <= k:
            return xz, den, k
        else:  # no solution of degree k: on to k + 1, with rhs_k times s + shift
            k = top if shift is None else k + 1
            if k > limit:
                raise ArithmeticError(f"no Bezout witness of degree up to {limit}")
            if shift is not None:
                xz = [_mul(z, [shift.numerator, shift.denominator]) for z in xz]
                den *= shift.denominator


def _bezout_rows(
    source: RightMFD, rhs: Sequence[Sequence[Poly]], shift: Fraction | None, limit: int
) -> tuple[list[list[Poly]], list[list[Poly]], list[Poly]]:
    """(alphas, betas, phis) with alphas[i] @ n + betas[i] @ d = phis[i] * rhs[i]
    for the certified fraction ``source`` = n @ d**-1 and phis[i] = (s + shift)**k
    (1 when shift is None), k <= limit the least degree of any solution, as
    ``poly_row_diophantine(n, d, [phis[i] * rhs[i]], k)`` gives it.

    Each solution [beta | alpha] is rhs_k @ w plus a combination of kernel
    rows, and cancelling the top coefficients of x = rhs_k @ w by kernel
    rows, while they lie in the span of those rows' leading ones, leaves x
    of least degree (predictable-degree property; Forney, SIAM J. Control
    13, 1975).  Below the least kernel row degree x is the only solution;
    from there on one elimination per k serves every row at k.  One identity
    checks the rows: alpha @ n + beta @ d = diag(phi) @ rhs."""
    m = source.d.shape[0]
    kernel = [_z_line(row)[0] for row in source.kernel.rows]
    mus = [max(map(len, zs)) - 1 for zs in kernel]
    found = [_divided_row(kernel, mus, x, shift, limit) for x in (PolyMat(rhs) @ source.w).rows]
    ks = [k for _, _, k in found]
    phis = [ONE if shift is None else hurwitz_shift_polynomial(shift, k) for k in ks]
    rows = [[_lowest(z, den) for z in xz] if k < min(mus) else None for xz, den, k in found]
    for k in sorted({k for k in ks if k >= min(mus)}):
        group = [i for i, ki in enumerate(ks) if ki == k]
        rhs_k = [[phis[i] * e for e in rhs[i]] for i in group]
        solved = poly_row_diophantine(source.n, source.d, rhs_k, k)
        for i, (alpha, beta) in zip(group, solved or ()):  # None: the rows stay None
            rows[i] = beta + alpha
    targets = PolyMat(tuple(tuple(phi * e for e in row) for row, phi in zip(rhs, phis)))
    stacked = vstack(source.d, source.n)
    if None in rows or not _is_product(PolyMat(tuple(map(tuple, rows))), stacked, ONE, targets):
        raise ArithmeticError("Bezout witness fails alpha @ n + beta @ d = diag(phi) @ rhs")
    return [x[m:] for x in rows], [x[:m] for x in rows], phis


def stable_mfd(mfd: RightMFD, shift: Fraction | int = 1) -> StableMFD:
    """Divide the columns of a right coprime fraction by powers of
    (s + shift), producing proper stable factors and a Bezout witness whose
    rows are read off ``w`` and ``kernel`` by division, with at most one
    elimination per degree (``_bezout_rows``).  A fraction with a kernel
    is taken as it is; any other is column reduced and certified
    (``_certified``).  A fraction of an improper plant is refused: with
    d column reduced, n @ d**-1 is proper exactly when no column of n has
    a higher degree than the same column of d (Kailath, Linear Systems,
    1980, section 6.3)."""
    sigma = Fraction(shift)
    if sigma <= 0:
        raise ValueError("shift must be positive")
    source = mfd if mfd.kernel is not None else _certified(*column_reduce(mfd.n, mfd.d))
    n, d = source.n, source.d
    col_degrees = tuple(deg if deg is not None else 0 for deg in d.column_degrees())
    if any((deg or 0) > top for deg, top in zip(n.column_degrees(), col_degrees)):
        raise ValueError("plant must be proper")
    psis = [hurwitz_shift_polynomial(sigma, deg) for deg in col_degrees]
    nprime, dprime = (
        RatMat(tuple(tuple(RatFn(e, psi) for e, psi in zip(row, psis)) for row in mat.rows))
        for mat in (n, d)
    )
    # u = diag(phi)**-1 @ alpha and v = diag(phi)**-1 @ beta solve
    # alpha @ n + beta @ d = diag(phi * psi), that is u @ n' + v @ d' = I
    alphas, betas, phis = _bezout_rows(source, PolyMat.diag(psis).rows, sigma, max(1, *col_degrees) + 40)
    u, v = (_rows_over(mat, phis) for mat in (alphas, betas))
    return StableMFD(nprime, dprime, u, v, sigma, col_degrees, source)


def _rows_over(rows: Sequence[Sequence[Poly]], dens: Sequence[Poly]) -> RatMat:
    """diag(dens)**-1 @ rows: each polynomial row over its own divisor."""
    return RatMat(tuple(tuple(RatFn(e, den) for e in row) for row, den in zip(rows, dens)))


def stable_left_mfd(left: LeftMFD, shift: Fraction | int = 1) -> tuple[RatMat, RatMat]:
    """The left fraction dl**-1 @ nl over the proper stable rationals,
    returned as (dl', nl'): each row of the left coprime fraction ``left``
    is divided by (s + shift) to the power of the row degree of dl."""
    psis = [hurwitz_shift_polynomial(shift, max(e.degree() or 0 for e in row)) for row in left.dl.rows]
    return _rows_over(left.dl.rows, psis), _rows_over(left.nl.rows, psis)


# A zero or pole of a plant: its location, multiplicity, irreducible factor
# and whether it is unstable; an unstable zero also gives its direction.
ZeroInfo = namedtuple(
    "ZeroInfo", "location multiplicity factor unstable direction", defaults=(None,)
)
PoleInfo = namedtuple("PoleInfo", "location multiplicity factor unstable")


class ZeroReport(namedtuple("ZeroReport", "zeros zero_polynomial pole_polynomial poles")):
    __slots__ = ()

    def unstable_zeros(self) -> tuple[ZeroInfo, ...]:
        return tuple(z for z in self.zeros if z.unstable)


def _scaled(polys: Sequence[Poly], e: int) -> list[list[float]]:
    """The ascending coefficients of each p(2**e * u), over one common
    divisor that makes the largest 1: floats that cannot overflow."""
    cs = [[Fraction(x, p._d) * Fraction(2) ** (e * k) for k, x in enumerate(p._z)] for p in polys]
    top = max((abs(c) for row in cs for c in row), default=1)
    return [[float(c / top) for c in row] for row in cs]


def _at(coeffs: Sequence[float], u: complex) -> complex:
    return reduce(lambda acc, x: acc * u + x, reversed(coeffs), 0j)


def _newton(c: list[float], u: complex) -> complex:
    """p(u) / p'(u) for p = sum(c[k] * u**k), or 0 once p(u) is within the
    rounding error of its evaluation.  For |u| > 1 it reads the reversed
    polynomial r at 1/u, p(u) = u**n * r(1/u), so no power of u overflows."""
    flip = abs(u) > 1
    x, cc = (1 / u, c[::-1]) if flip else (u, c)
    px, dpx = _at(cc, x), _at([k * t for k, t in enumerate(cc)][1:], x)
    if abs(px) <= 1e-14 * _at([abs(t) for t in cc], abs(x)).real:
        return 0j
    return u * px / ((len(c) - 1) * px - x * dpx) if flip else px / dpx


def _factor_roots(q: Poly) -> list[Fraction | complex]:
    """The roots of an irreducible factor q: exact when q is linear, else by
    Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996) on q(2**e * u),
    2**e near the roots' geometric mean size.  A root that is its own nearest
    conjugate is real, one of an even q that is its own nearest -conjugate is
    on the axis; by real part descending, each before its conjugate."""
    if q.degree() == 1:
        return [-q.coeff(0) / q.coeff(1)]
    n, z = q.degree(), q._z
    e = round((abs(z[0]).bit_length() - abs(z[-1]).bit_length()) / n)
    c = _scaled([q], e)[0]
    if not (c[0] and c[-1]):  # an end coefficient underflowed: no one scale holds every root
        raise ArithmeticError(f"the roots of a degree-{n} factor span more than the float range")
    us = [cmath.rect(1, 2 * math.pi * k / n + 0.4) for k in range(n)]
    for _ in range(500):
        moved = False
        for i, u in enumerate(us):
            w = _newton(c, u)
            if w:
                us[i] = u - w / (1 - w * sum(1 / (u - v) for j, v in enumerate(us) if j != i))
                moved = True
        if not moved:
            break
    roots, own = [], lambda i, image: min(range(n), key=lambda j: abs(us[j] - image)) == i
    for i, u in enumerate(us):
        if own(i, u.conjugate()):
            roots.append(complex(u.real))
        elif u.imag > 0:
            roots.append(complex(0, u.imag) if not any(z[1::2]) and own(i, -u.conjugate()) else u)
    try:
        scaled = [complex(math.ldexp(u.real, e), math.ldexp(u.imag, e)) for u in roots]
    except OverflowError:
        raise ArithmeticError(f"the roots of a degree-{n} factor lie beyond the float range") from None
    scaled.sort(key=lambda u: -u.real)
    return [v for u in scaled for v in ((u, u.conjugate()) if u.imag else (u,))]


def _fmt_root(z: Fraction | complex) -> str:
    """A root as text: exact when rational, else to 6 significant digits."""
    if isinstance(z, Fraction):
        return str(z)
    if abs(z.imag) < 1e-12:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _root_unstable(root: Fraction | complex, factor_hurwitz: bool) -> bool:
    return not factor_hurwitz and (root >= 0 if isinstance(root, Fraction) else root.real > -1e-9)


def _left_null_direction(
    n: PolyMat, root: Fraction | complex
) -> tuple[Fraction, ...] | tuple[complex, ...] | None:
    """eta with eta^T n(root) = 0, 1 at the first free column of a Gauss-Jordan
    elimination of n(root)^T: exact at a rational root, else over complex at
    u = root / 2**e, each column of n(2**e * u) over one constant, by complete
    pivoting for rank(n) - 1 steps (n(root) has a lower rank than n): no
    threshold decides a pivot, and no multiplier exceeds 1."""
    p, m = n.shape
    if isinstance(root, Fraction):
        vec = _null_vector([[n.entry(i, j)(root) for i in range(p)] for j in range(m)])
        return None if vec is None else tuple(vec)
    e = math.frexp(abs(root))[1]
    u = complex(math.ldexp(root.real, -e), math.ldexp(root.imag, -e))
    a = [[_at(c, u) for c in _scaled([n.entry(i, j) for i in range(p)], e)] for j in range(m)]
    pivots = []
    for r in range(n.rank() - 1):
        cells = [(i, k) for i in range(r, m) for k in range(p) if k not in pivots]
        i, k = max(cells, key=lambda cell: abs(a[cell[0]][cell[1]]))
        top = [x / a[i][k] for x in a[i]]
        a[i] = a[r]
        a = [top if t == r else [x - row[k] * y for x, y in zip(row, top)] for t, row in enumerate(a)]
        pivots.append(k)
    free, rows = min(set(range(p)) - set(pivots)), dict(zip(pivots, a))
    return tuple(0j - rows[k][free] if k in rows else complex(k == free) for k in range(p))


def _zero_polynomial(n: PolyMat) -> Poly:
    """The monic gcd of the maximal nonzero minors of n: its transmission
    zero polynomial (ONE when n has rank 0 or no zeros)."""
    p, m = n.shape
    rank = n.rank()
    if rank == 0:
        return ONE
    zero_poly = ZERO
    for rows, cols in itertools.product(
        itertools.combinations(range(p), rank), itertools.combinations(range(m), rank)
    ):
        minor = polymat_det(PolyMat(tuple(tuple(n.entry(i, j) for j in cols) for i in rows)))
        if not minor.is_zero():
            zero_poly = minor if zero_poly.is_zero() else poly_gcd(zero_poly, minor)
            if zero_poly.is_constant():
                break
    return ONE if zero_poly.is_constant() else zero_poly.monic()


def _roots(poly: Poly):
    """(root, multiplicity, factor, unstable) of each root of poly."""
    for factor, mult in irreducible_factors(poly):
        hurwitz = _routh_is_hurwitz(factor)
        for root in _factor_roots(factor):
            yield root, mult, factor, _root_unstable(root, hurwitz)


def zeros_and_poles(mfd: RightMFD) -> ZeroReport:
    """Transmission zeros and poles of a right coprime fraction, with
    exact left null directions at the unstable zeros: the zero polynomial
    and the pole polynomial det d are each factored once."""
    n = mfd.n
    zero_poly = _zero_polynomial(n)
    zeros = tuple(
        ZeroInfo(*info, _left_null_direction(n, info[0]) if info[3] else None)
        for info in _roots(zero_poly)
    )
    pole_poly = polymat_det(mfd.d).monic()
    poles = tuple(PoleInfo(*info) for info in _roots(pole_poly))
    return ZeroReport(zeros, zero_poly, pole_poly, poles)
