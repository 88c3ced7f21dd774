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
* The products, gcds and exact divisions of Q[s] run over Z[s]: a `Poly`
  a / d is cleared to an integer list ``a`` (``_over_z``), worked on by the
  integer kernel below (``_mul``, ``_prem``, ``_exact_quo``, and ``_gcd``,
  the primitive remainder sequence of Collins 1967 / Brown 1971) and
  mapped back with one `Fraction` per coefficient (``_from_z``).
  ``Poly.__mul__``, `poly_gcd`, `poly_lcm` and `RatFn` normalisation go
  through it; :mod:`twodof.zfactor` factors over the same helpers.
  `poly_divmod` (Euclidean division over Q) remains for the Hermite form,
  ``//``, ``%`` and `RatFn.strict_part`.
* `PolyMat` / `RatMat` are immutable row-major grids.  Over the polynomial
  ring, `hermite` gives the row Hermite form (and its unimodular
  transform), and one fraction-free Gauss-Jordan kernel, ``_bareiss``
  (Bareiss 1968), gives determinants, adjugates and ranks.  Its exact
  division by the previous pivot divides by the pivot's primitive part
  over Z (by Gauss's lemma that division is exact in Z[s]) and then by
  its content as a rational.  Every
  rational-matrix solve runs through that kernel on the numerators over
  one least common denominator (``_over_lcd``): ``RatMat.inv`` is
  den * adj(num) / det(num), ``RatMat.det`` is det(num) / den**n,
  ``RatMat.rank`` is the rank of num, and ``synthesis.check_realizable``
  eliminates [n | t_num]; each result entry is normalised once.
  :func:`linsolve_exact` holds the one Gauss-Jordan loop over the
  rationals.
* Evaluation at a rational point reports poles explicitly (``None``
  entries) instead of raising.

The string form of every value is consumable by the expression parser in
:mod:`twodof.cli` (terms joined by ``+``/``-``, powers written ``s^k``,
explicit ``*`` for products), which gives cheap print/parse round trips.
"""

from __future__ import annotations

import math
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
        a, da = _over_z(self)
        b, db = _over_z(other)
        return _from_z(_mul(a, b), da * db)

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
    if a.is_zero():
        a, b = b, a
    g = _gcd(_over_z(a)[0], _over_z(b)[0])
    return _from_z(g, g[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    za, zb = _over_z(a)[0], _over_z(b)[0]
    lcm = _mul(za, _exact_quo(zb, _gcd(za, zb)))
    return _from_z(lcm, lcm[-1])


# ---------------------------------------------------------------------------
# Z[s]: the integer kernel
# ---------------------------------------------------------------------------
#
# A polynomial over Z is a plain list of ``int`` coefficients in ascending
# order of power with no trailing zeros (the zero polynomial is ``[]``).
# A ``Poly`` a / d is taken to Z[s] by ``_over_z`` and back by ``_from_z``;
# ``twodof.zfactor`` factors over the same helpers.


def _over_z(p: Poly) -> tuple[list[int], int]:
    """(a, d) with p = a / d: d the lcm of the coefficient denominators."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    if d == 1:
        return [c.numerator for c in p.coeffs], 1
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


def _from_z(a: list[int], d: int = 1) -> Poly:
    """The Poly a / d, for a trimmed ``a`` and a nonzero ``d``: one
    Fraction per coefficient and no further normalisation."""
    p = object.__new__(Poly)
    if d == 1:
        coeffs = tuple(Fraction(x) for x in a)
    else:
        coeffs = tuple(Fraction(x, d) for x in a)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    """``a`` over its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _exact_quo(a: list[int], b: list[int]) -> list[int] | None:
    """``a / b`` if ``b`` divides ``a`` in Z[s], else ``None``."""
    if not a:
        return []
    if len(a) < len(b) or (a[0] % b[0] if b[0] else a[0]):
        return None  # the constant terms already rule it out
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], lb)
        if rest:
            return None
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return None if any(r[:db]) else q


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of ``a`` by ``b``."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    while len(r) > db:
        k, lr = len(r) - 1 - db, r[-1]
        r = [lb * x for x in r]
        for j, y in enumerate(b):
            r[k + j] -= lr * y
        _trim(r)
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd by the primitive remainder sequence (Collins 1967;
    Brown 1971); ``a`` nonzero."""
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


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
        elif den.is_constant():
            if den != ONE:
                num, den = num * (1 / den.coeffs[0]), ONE
        else:
            # num / den = (a / da) / (b / db) = (a * db) / (b * da) over Z
            a, da = _over_z(num)
            b, db = _over_z(den)
            g = _gcd(a, b)
            if len(g) > 1:
                a, b = _exact_quo(a, g), _exact_quo(b, g)
            lc = b[-1]
            num, den = _from_z([x * db for x in a], da * lc), _from_z(b, lc)
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


def common_denominator(entries: Iterable[RatFn]) -> tuple[Poly, list[Poly]]:
    """Monic least common denominator of ``entries``, with each entry's
    numerator over it."""
    entries = list(entries)
    den = ONE
    for e in entries:
        if e.den != den:
            den = poly_lcm(den, e.den)
    return den, [e.num if e.den == den else e.num * (den // e.den) for e in entries]


def _over_lcd(mat: RatMat) -> tuple[Poly, PolyMat]:
    """(den, num) with mat = num / den, den the monic lcd of the entries."""
    cols = mat.shape[1]
    den, nums = common_denominator(e for row in mat.rows for e in row)
    return den, PolyMat(tuple(nums[i : i + cols] for i in range(0, len(nums), cols)))


def _column_fraction(mat: RatMat) -> tuple[list[Poly], PolyMat]:
    """(d, n) with mat = n @ diag(d)**-1, d_j the monic lcd of column j."""
    cols = [common_denominator(col) for col in zip(*mat.rows)]
    return [den for den, _ in cols], PolyMat(tuple(zip(*(nums for _, nums in cols))))


def _over(mat: PolyMat, den: Poly) -> RatMat:
    """mat / den, each entry normalised once."""
    return RatMat(tuple(tuple(RatFn(e, den) for e in row) for row in mat.rows))


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

    def rank(self) -> int:
        """Normal rank: the pivot count of a Bareiss elimination."""
        return len(_bareiss([list(row) for row in self.rows], self.shape[1])[0])

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


def _bareiss(rows: list[list[Poly]], ncols: int) -> tuple[list[int], Poly, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the first
    ``ncols`` columns of the polynomial row list ``rows``, in place; later
    columns ride along, and a column with no pivot left is skipped.

    Returns the pivot columns, the last pivot and the sign of the row
    swaps.  Let A be the pivot columns of the first r = len(pivots) rows,
    as swapped, and a the same columns of a later row i.  The last pivot is
    det A, and a later column b ends as last * A**-1 @ b[:r] in the first r
    rows and as last * (b[i] - a @ A**-1 @ b[:r]) in row i.  Every entry
    is a minor, so each division by the previous pivot is exact.
    """
    cols: list[int] = []
    sign, prev = 1, ONE
    prim, c_num, c_den = [1], 1, 1  # prev = prim * c_num / c_den, prim primitive over Z
    for col in range(ncols):
        k = len(cols)
        if k == len(rows):
            break
        piv = next((i for i in range(k, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[col]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[col]
            for j in range(col + 1, len(top)):
                num = pivot * row[j] - f * top[j]
                if k and not num.is_zero():
                    # prim divides num in Q[s], so in Z[s] (Gauss's lemma)
                    a, d = _over_z(num)
                    q = _exact_quo(a, prim)
                    if q is None:
                        raise ArithmeticError("Bareiss elimination lost exactness")
                    num = _from_z([x * c_den for x in q], d * c_num)
                row[j] = num
        cols.append(col)
        prev = pivot
        a, c_den = _over_z(prev)
        prim = _primitive(a)
        c_num = a[-1] // prim[-1]
    return cols, prev, sign


def polymat_det(a: PolyMat) -> Poly:
    """Determinant by fraction-free Bareiss elimination (exact divisions)."""
    r, c = a.shape
    if r != c:
        raise ShapeError("determinant of a non-square matrix")
    cols, last, sign = _bareiss([list(row) for row in a.rows], r)
    if len(cols) < r:
        return ZERO
    return -last if sign < 0 else last


def _polymat_det_adj(a: PolyMat) -> tuple[Poly, PolyMat]:
    """(det a, adj a) of a nonsingular square polynomial matrix, by one
    Bareiss elimination of [a | I]; a**-1 = adj a / det a.  Raises
    SingularMatrixError when det a = 0."""
    r, c = a.shape
    if r != c:
        raise ShapeError("adjugate of a non-square matrix")
    rows = [list(row) + [ONE if i == j else ZERO for j in range(r)]
            for i, row in enumerate(a.rows)]
    cols, last, sign = _bareiss(rows, r)
    if len(cols) < r:
        raise SingularMatrixError("matrix is singular")
    # the elimination reaches det(perm @ a) * a**-1 = sign * adj a
    adj = PolyMat(tuple(tuple(row[r:]) for row in rows))
    return (-last, -adj) if sign < 0 else (last, adj)


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatMat:
    """Immutable matrix of :class:`RatFn` entries."""

    rows: tuple[tuple[RatFn, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _grid(self.rows, _as_ratfn))

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
                tuple(_as_ratfn(entries[i]) if i == j else RF_ZERO for j in range(n))
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
        f = _as_ratfn(f)
        return RatMat(tuple(tuple(e * f for e in row) for row in self.rows))

    def inv(self) -> "RatMat":
        """Exact inverse den * adj(num) / det(num) of self = num / den."""
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        den, num = _over_lcd(self)
        det, adj = _polymat_det_adj(num)
        return _over(adj.scale(den), det)

    def det(self) -> RatFn:
        """det(num) / den**n of the n x n matrix self = num / den."""
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        den, num = _over_lcd(self)
        return RatFn(polymat_det(num), den ** self.shape[0])

    def rank(self) -> int:
        """Normal rank over the rational-function field."""
        return _over_lcd(self)[1].rank()

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


def linsolve_exact(
    a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A z = b exactly over the rationals.

    Returns ``(particular, nullspace_basis)`` with free variables set to
    zero in the particular solution, or ``None`` when inconsistent.
    [A | b] is reduced to reduced row echelon form by Gauss-Jordan
    elimination; its pivot columns are fixed by A, so the result is unique.
    """
    n = len(a_rows[0]) if a_rows else 0
    aug = [[_frac(x) for x in row] + [_frac(rhs[i])] for i, row in enumerate(a_rows)]
    pivots: list[int] = []
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


def _same_kind(a: PolyMat | RatMat, b: PolyMat | RatMat, name: str) -> type:
    if type(a) is not type(b) or not isinstance(a, (PolyMat, RatMat)):
        raise TypeError(f"{name} requires two matrices of the same kind")
    return type(a)


def hstack(a: PolyMat | RatMat, b: PolyMat | RatMat):
    cls = _same_kind(a, b, "hstack")
    if len(a.rows) != len(b.rows):
        raise ShapeError("hstack with differing row counts")
    return cls(tuple(ra + rb for ra, rb in zip(a.rows, b.rows)))


def vstack(a: PolyMat | RatMat, b: PolyMat | RatMat):
    cls = _same_kind(a, b, "vstack")
    if len(a.rows[0]) != len(b.rows[0]):
        raise ShapeError("vstack with differing column counts")
    return cls(a.rows + b.rows)
