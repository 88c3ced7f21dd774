"""Exact polynomial and rational-function linear algebra over the rationals.

This module is the arithmetic core of the package.  Everything here is
exact: coefficients are `fractions.Fraction`, equality is structural
equality of canonical forms, and no floating point enters any decision.

Conventions
-----------
* `Poly` stores coefficients in ascending order of power with no trailing
  zeros.  The zero polynomial has an empty coefficient tuple and degree
  ``None`` -- a deliberate sentinel, so that code which cares about the
  degree of a possibly-zero polynomial is forced to handle that case
  explicitly instead of comparing it numerically.
* `RatFn` is always reduced to lowest terms and its denominator is monic,
  so equality of values is equality of representations.
* `PolyMat` / `RatMat` are immutable row-major grids.  Every exact linear
  solve over a field runs through one Gauss-Jordan kernel,
  ``_gauss_jordan``, on ``Fraction`` or `RatFn` entries: ``RatMat.inv``,
  ``RatMat.det``, ``RatMat.rank``, :func:`linsolve_exact` and
  ``synthesis.check_realizable``.  Over the polynomial ring, `hermite`
  gives the row Hermite form and polynomial determinants use
  fraction-free Bareiss elimination.
* Evaluation at a rational point reports poles explicitly (``None``
  entries) instead of raising.

The string form of every value is consumable by the expression parser in
:mod:`twodof.cli` (terms joined by ``+``/``-``, powers written ``s^k``,
explicit ``*`` for products), which gives cheap print/parse round trips.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ZeroDivisionError):
    """A matrix required to be invertible is singular."""


def _frac(x: Scalar | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial in ``s`` with Fraction coefficients, ascending."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [_frac(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((_frac(c),))

    @classmethod
    def from_roots(cls, *roots: Scalar) -> "Poly":
        """Monic polynomial with the given rational roots."""
        p = ONE
        for r in roots:
            p = p * cls((-_frac(r), Fraction(1)))
        return p

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading
        return self if lc == 1 else Poly(tuple(c / lc for c in self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def __divmod__(self, other: "Poly | Scalar") -> tuple["Poly", "Poly"]:
        return poly_divmod(self, _as_poly(other))

    def __floordiv__(self, other: "Poly | Scalar") -> "Poly":
        return poly_divmod(self, _as_poly(other))[0]

    def __mod__(self, other: "Poly | Scalar") -> "Poly":
        return poly_divmod(self, _as_poly(other))[1]

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def reflect(self) -> "Poly":
        """p(-s)."""
        return Poly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def __call__(self, s0):
        """Evaluate by Horner's rule; exact for Fraction arguments."""
        acc = Fraction(0) if isinstance(s0, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * s0 + (c if isinstance(s0, (int, Fraction)) else complex(c))
        if isinstance(s0, (int, Fraction)):
            return Fraction(acc)
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "s" if k == 1 else f"s^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


ZERO = Poly(())
ONE = Poly((Fraction(1),))
S = Poly((Fraction(0), Fraction(1)))


def _as_poly(x: "Poly | Scalar") -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly((_frac(x),))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b (r possibly zero)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO, ZERO
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 1)
    rem = list(a.coeffs)
    db, lb = len(b.coeffs) - 1, b.leading
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db or not rem:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lb
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
    return Poly(tuple(q)), Poly(tuple(rem))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.  gcd(0, 0) is undefined."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a, b
    while not y.is_zero():
        x, y = y, poly_divmod(x, y)[1]
    return x.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    return (poly_divmod(a * b, poly_gcd(a, b))[0]).monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatFn:
    """Reduced rational function num/den with a monic denominator."""

    num: Poly
    den: Poly = ONE

    def __post_init__(self) -> None:
        num = self.num if isinstance(self.num, Poly) else _as_poly(self.num)
        den = self.den if isinstance(self.den, Poly) else _as_poly(self.den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
            lc = den.leading
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, num: "Poly | RatFn | Scalar", den: "Poly | Scalar" = 1) -> "RatFn":
        if isinstance(num, RatFn):
            return num / cls(_as_poly(den)) if den != 1 else num
        return cls(_as_poly(num), _as_poly(den))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def relative_degree(self) -> int | float:
        """deg(den) - deg(num); +inf for the zero function."""
        if self.num.is_zero():
            return math.inf
        return (self.den.degree() or 0) - (self.num.degree() or 0)

    def is_proper(self) -> bool:
        return self.relative_degree() >= 0

    def is_strictly_proper(self) -> bool:
        return self.relative_degree() >= 1

    def polypart(self) -> Poly:
        """Polynomial part of the partial-fraction split."""
        return poly_divmod(self.num, self.den)[0]

    def strict_part(self) -> "RatFn":
        return RatFn(poly_divmod(self.num, self.den)[1], self.den)

    def at_infinity(self) -> Fraction:
        """Limit for s -> oo; raises for improper functions."""
        rd = self.relative_degree()
        if rd == math.inf:
            return Fraction(0)
        if rd < 0:
            raise ValueError("improper rational function has no finite limit at infinity")
        if rd > 0:
            return Fraction(0)
        return self.num.leading / self.den.leading

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        other = _as_ratfn(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    def __sub__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        return self + (-_as_ratfn(other))

    def __rsub__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        return _as_ratfn(other) + (-self)

    def __mul__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        other = _as_ratfn(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        return self * _as_ratfn(other).inv()

    def __rtruediv__(self, other: "RatFn | Poly | Scalar") -> "RatFn":
        return _as_ratfn(other) * self.inv()

    def __pow__(self, k: int) -> "RatFn":
        if k < 0:
            return self.inv() ** (-k)
        return RatFn(self.num**k, self.den**k)

    # -- evaluation ---------------------------------------------------------

    def at(self, s0: Scalar) -> Fraction | None:
        """Exact value at a rational point, or ``None`` at a pole."""
        s0 = _frac(s0)
        d = self.den(s0)
        if d == 0:
            return None
        return self.num(s0) / d

    def __call__(self, s0: complex) -> complex:
        return complex(self.num(s0)) / complex(self.den(s0))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


RF_ZERO = RatFn(ZERO)
RF_ONE = RatFn(ONE)


def _as_ratfn(x: "RatFn | Poly | Scalar") -> RatFn:
    if isinstance(x, RatFn):
        return x
    if isinstance(x, Poly):
        return RatFn(x)
    return RatFn(_as_poly(x))


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------


def _grid(rows: Iterable[Iterable], coerce) -> tuple[tuple, ...]:
    out = tuple(tuple(coerce(e) for e in row) for row in rows)
    if not out or not out[0]:
        raise ShapeError("matrix must have at least one row and one column")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise ShapeError("ragged matrix rows")
    return out


@dataclass(frozen=True)
class PolyMat:
    """Immutable matrix of :class:`Poly` entries."""

    rows: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _grid(self.rows, _as_poly))

    @classmethod
    def identity(cls, n: int) -> "PolyMat":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "PolyMat":
        return cls(tuple(tuple(ZERO for _ in range(c)) for _ in range(r)))

    @classmethod
    def diag(cls, entries: Sequence[Poly | Scalar]) -> "PolyMat":
        n = len(entries)
        return cls(
            tuple(
                tuple(_as_poly(entries[i]) if i == j else ZERO for j in range(n))
                for i in range(n)
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self) -> "PolyMat":
        r, c = self.shape
        return PolyMat(tuple(tuple(self.rows[i][j] for i in range(r)) for j in range(c)))

    def __add__(self, other: "PolyMat") -> "PolyMat":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return PolyMat(
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "PolyMat":
        return PolyMat(tuple(tuple(-e for e in row) for row in self.rows))

    def __sub__(self, other: "PolyMat") -> "PolyMat":
        return self + (-other)

    def __matmul__(self, other: "PolyMat") -> "PolyMat":
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ShapeError(f"cannot multiply {self.shape} @ {other.shape}")
        return PolyMat(
            tuple(
                tuple(
                    sum((self.rows[i][t] * other.rows[t][j] for t in range(k)), ZERO)
                    for j in range(c)
                )
                for i in range(r)
            )
        )

    def scale(self, f: Poly | Scalar) -> "PolyMat":
        f = _as_poly(f)
        return PolyMat(tuple(tuple(e * f for e in row) for row in self.rows))

    def column_degrees(self) -> list[int | None]:
        """Per-column maximum entry degree (``None`` for a zero column)."""
        r, c = self.shape
        out: list[int | None] = []
        for j in range(c):
            degs = [self.rows[i][j].degree() for i in range(r) if not self.rows[i][j].is_zero()]
            out.append(max(degs) if degs else None)
        return out

    def row_degrees(self) -> list[int | None]:
        return self.transpose().column_degrees()

    def eval_at(self, s0: Scalar) -> tuple[tuple[Fraction, ...], ...]:
        s0 = _frac(s0)
        return tuple(tuple(e(s0) for e in row) for row in self.rows)

    def to_ratmat(self) -> "RatMat":
        return RatMat(tuple(tuple(RatFn(e) for e in row) for row in self.rows))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"

    __repr__ = __str__


def hermite(a: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Row Hermite form: returns (h, u) with u @ a == h and u unimodular.

    The form is upper echelon with monic pivots; entries above each pivot
    have strictly lower degree than the pivot.  Pivots are chosen as the
    lowest-degree nonzero candidate in the leftmost unfinished column
    (topmost row on ties), which keeps intermediate degrees small.
    """
    m, n = a.shape
    rows = [list(r) for r in a.rows]
    u = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]

    def swap(i: int, j: int) -> None:
        rows[i], rows[j] = rows[j], rows[i]
        u[i], u[j] = u[j], u[i]

    def combine(i: int, j: int, q: Poly) -> None:
        # row_i -= q * row_j
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
            if best != pivot_row:
                swap(best, pivot_row)
            lower = [i for i in range(pivot_row + 1, m) if not rows[i][col].is_zero()]
            if not lower:
                placed = True
                break
            for i in lower:
                q, _ = poly_divmod(rows[i][col], rows[pivot_row][col])
                combine(i, pivot_row, q)
        if placed:
            lc = rows[pivot_row][col].leading
            if lc != 1:
                inv = 1 / lc
                rows[pivot_row] = [e * inv for e in rows[pivot_row]]
                u[pivot_row] = [e * inv for e in u[pivot_row]]
            for i in range(pivot_row):
                if rows[i][col].is_zero():
                    continue
                q, _ = poly_divmod(rows[i][col], rows[pivot_row][col])
                if not q.is_zero():
                    combine(i, pivot_row, q)
            pivot_row += 1
    return PolyMat(tuple(tuple(r) for r in rows)), PolyMat(tuple(tuple(r) for r in u))


def polymat_det(a: PolyMat) -> Poly:
    """Determinant by fraction-free Bareiss elimination (exact divisions)."""
    r, c = a.shape
    if r != c:
        raise ShapeError("determinant of a non-square matrix")
    n = r
    m = [[e for e in row] for row in a.rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap_with = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap_with is None:
                return ZERO
            m[k], m[swap_with] = m[swap_with], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, rem = poly_divmod(num, prev)
                if not rem.is_zero():
                    raise ArithmeticError("Bareiss elimination lost exactness")
                m[i][j] = q
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def polymat_det_cofactor(a: PolyMat) -> Poly:
    """Cofactor-expansion determinant; an independent oracle for small sizes."""
    r, c = a.shape
    if r != c:
        raise ShapeError("determinant of a non-square matrix")
    if r > 4:
        raise ShapeError("cofactor oracle is limited to 4x4")
    if r == 1:
        return a.rows[0][0]
    total = ZERO
    for j in range(c):
        e = a.rows[0][j]
        if e.is_zero():
            continue
        minor = PolyMat(
            tuple(
                tuple(a.rows[i][t] for t in range(c) if t != j) for i in range(1, r)
            )
        )
        term = e * polymat_det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


def _as_entry(x) -> RatFn:
    if isinstance(x, RatFn):
        return x
    if isinstance(x, Poly):
        return RatFn(x)
    return RatFn(_as_poly(x))


@dataclass(frozen=True)
class RatMat:
    """Immutable matrix of :class:`RatFn` entries."""

    rows: tuple[tuple[RatFn, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _grid(self.rows, _as_entry))

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(tuple(tuple(RF_ONE if i == j else RF_ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, r: int, c: int) -> "RatMat":
        return cls(tuple(tuple(RF_ZERO for _ in range(c)) for _ in range(r)))

    @classmethod
    def diag(cls, entries: Sequence) -> "RatMat":
        n = len(entries)
        return cls(
            tuple(
                tuple(_as_entry(entries[i]) if i == j else RF_ZERO for j in range(n))
                for i in range(n)
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def entry(self, i: int, j: int) -> RatFn:
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_square(self) -> bool:
        r, c = self.shape
        return r == c

    def transpose(self) -> "RatMat":
        r, c = self.shape
        return RatMat(tuple(tuple(self.rows[i][j] for i in range(r)) for j in range(c)))

    def __add__(self, other: "RatMat") -> "RatMat":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return RatMat(
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "RatMat":
        return RatMat(tuple(tuple(-e for e in row) for row in self.rows))

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + (-other)

    def __matmul__(self, other: "RatMat") -> "RatMat":
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ShapeError(f"cannot multiply {self.shape} @ {other.shape}")
        return RatMat(
            tuple(
                tuple(
                    sum((self.rows[i][t] * other.rows[t][j] for t in range(k)), RF_ZERO)
                    for j in range(c)
                )
                for i in range(r)
            )
        )

    def scale(self, f) -> "RatMat":
        f = _as_entry(f)
        return RatMat(tuple(tuple(e * f for e in row) for row in self.rows))

    def inv(self) -> "RatMat":
        """Exact inverse by Gauss-Jordan elimination over the function field."""
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        n = self.shape[0]
        aug = [list(row) + [RF_ONE if i == j else RF_ZERO for j in range(n)]
               for i, row in enumerate(self.rows)]
        cols, _, _ = _gauss_jordan(aug, n)
        if len(cols) < n:
            raise SingularMatrixError("matrix is singular")
        return RatMat(tuple(tuple(row[n:]) for row in aug))

    def det(self) -> RatFn:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.shape[0]
        _, pivots, sign = _gauss_jordan([list(row) for row in self.rows], n)
        if len(pivots) < n:
            return RF_ZERO
        det = math.prod(pivots, start=RF_ONE)
        return -det if sign < 0 else det

    def rank(self) -> int:
        """Normal rank over the rational-function field."""
        return len(_gauss_jordan([list(row) for row in self.rows], self.shape[1])[0])

    def is_proper(self) -> bool:
        return all(e.is_proper() for row in self.rows for e in row)

    def is_strictly_proper(self) -> bool:
        return all(e.is_strictly_proper() for row in self.rows for e in row)

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for row in self.rows for e in row)

    def to_polymat(self) -> PolyMat:
        if not self.is_polynomial():
            raise ValueError("matrix has non-polynomial entries")
        return PolyMat(tuple(tuple(e.num for e in row) for row in self.rows))

    def at_infinity(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(e.at_infinity() for e in row) for row in self.rows)

    def eval_at(self, s0: Scalar) -> tuple[tuple[Fraction | None, ...], ...]:
        """Exact evaluation; ``None`` flags entries with a pole at ``s0``."""
        s0 = _frac(s0)
        return tuple(tuple(e.at(s0) for e in row) for row in self.rows)

    def __call__(self, s0: complex):
        return tuple(tuple(e(s0) for e in row) for row in self.rows)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"

    __repr__ = __str__


def _gauss_jordan(rows: list[list], ncols: int) -> tuple[list[int], list, int]:
    """Reduce the first ``ncols`` columns of the row list ``rows`` in place
    to reduced row echelon form over an exact field (``Fraction`` or
    :class:`RatFn` entries); later columns ride along as augmented data.

    Returns the pivot columns, the pivot values before normalisation and
    the sign of the row permutation.  The pivot columns of a reduced
    echelon form are fixed by the matrix, so every read-out of the result
    is unique.
    """
    is_zero = RatFn.is_zero if rows and isinstance(rows[0][0], RatFn) else operator.not_
    cols: list[int] = []
    pivots: list = []
    sign = 1
    for col in range(ncols):
        row = len(cols)
        if row == len(rows):
            break
        piv = next((i for i in range(row, len(rows)) if not is_zero(rows[i][col])), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            sign = -sign
        pivot = rows[row][col]
        inv = pivot.inv() if isinstance(pivot, RatFn) else 1 / pivot
        rows[row] = [e * inv for e in rows[row]]
        for i in range(len(rows)):
            if i == row or is_zero(rows[i][col]):
                continue
            f = rows[i][col]
            rows[i] = [e - f * g for e, g in zip(rows[i], rows[row])]
        cols.append(col)
        pivots.append(pivot)
    return cols, pivots, sign


def linsolve_exact(
    a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A z = b exactly over the rationals.

    Returns ``(particular, nullspace_basis)`` with free variables set to
    zero in the particular solution, or ``None`` when inconsistent.
    """
    n = len(a_rows[0]) if a_rows else 0
    aug = [[_frac(x) for x in row] + [_frac(rhs[i])] for i, row in enumerate(a_rows)]
    pivots, _, _ = _gauss_jordan(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        particular[col] = row[n]
    basis: list[list[Fraction]] = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            vec[col] = -row[fc]
        basis.append(vec)
    return particular, basis


def hstack(a: PolyMat | RatMat, b: PolyMat | RatMat):
    if isinstance(a, PolyMat) and isinstance(b, PolyMat):
        cls = PolyMat
    elif isinstance(a, RatMat) and isinstance(b, RatMat):
        cls = RatMat
    else:
        raise TypeError("hstack requires two matrices of the same kind")
    if len(a.rows) != len(b.rows):
        raise ShapeError("hstack with differing row counts")
    return cls(tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def vstack(a: PolyMat | RatMat, b: PolyMat | RatMat):
    if isinstance(a, PolyMat) and isinstance(b, PolyMat):
        cls = PolyMat
    elif isinstance(a, RatMat) and isinstance(b, RatMat):
        cls = RatMat
    else:
        raise TypeError("vstack requires two matrices of the same kind")
    if len(a.rows[0]) != len(b.rows[0]):
        raise ShapeError("vstack with differing column counts")
    return cls(a.rows + b.rows)
