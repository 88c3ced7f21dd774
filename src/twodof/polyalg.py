"""Exact polynomial and rational-function linear algebra over the rationals.

This module is the arithmetic core of the package.  Everything here is
exact: a `Poly` stores ``int`` coefficients over one positive ``int``
denominator in lowest terms, equality is structural equality of canonical
forms, and no floating point enters any decision.

Conventions
-----------
* `Poly` stores coefficients in ascending order of power with no trailing
  zeros.  The zero polynomial has no coefficients and degree ``None`` -- a
  deliberate sentinel, so that code which cares about the degree of a
  possibly-zero polynomial is forced to handle that case explicitly
  instead of comparing it numerically.  ``coeffs``, ``coeff(k)`` and
  ``leading`` read the coefficients as `fractions.Fraction`.
* `RatFn` is always reduced to lowest terms and its denominator is monic,
  so equality of values is equality of representations.
* The arithmetic of Q[s] runs over Z[s] on the stored integers: sums over
  the lcm of the two denominators, products, powers, derivatives, ``monic``,
  `poly_divmod` (pseudo-division, scaled by the divisor's leading
  coefficient only where a quotient coefficient is not an integer),
  `poly_gcd`, `poly_lcm` and `RatFn` normalisation go through the integer
  kernel below (``_mul``, ``_pdivmod``, ``_exact_quo`` and ``_gcd``: the
  heuristic gcd of Char, Geddes & Gonnet 1989, with the primitive
  remainder sequence of Collins 1967 / Brown 1971 as its fallback), and
  each result is brought to lowest terms with one gcd of its numerators
  and its denominator.  No `Fraction` is built on the way.
  :mod:`twodof.zfactor` factors over the same helpers.
* `PolyMat` / `RatMat` are immutable row-major grids that share one
  ring-independent base, ``_Grid``; each names only its entry coercion
  and its ring's zero and one.  Over the polynomial ring, `hermite` gives the row Hermite form (and its unimodular
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
  Both products run on one kernel: ``PolyMat @`` takes each row of the
  left factor and each column of the right factor to Z[s] over one
  integer (``_z_line``), ``RatMat @`` does so after taking the line over
  its lcd, and each entry is one dot product over Z[s], normalised once.
* Linear systems over Q: :func:`linsolve_exact` clears each row of
  [A | b] to integers and reduces it by a fraction-free Gauss-Jordan
  elimination over Z, ``_rref_z``, with the pivots of the elimination
  over Q; each updated row is divided by its content, and a value is read
  out as a quotient of two entries of its pivot row only at the end.
  ``factor.poly_row_diophantine`` runs ``_rref_z`` on rows read from the
  stored integers.
* Evaluation at a rational point reports poles explicitly (``None``
  entries) instead of raising.

The string form of every value is consumable by the expression parser in
:mod:`twodof.cli` (terms joined by ``+``/``-``, powers written ``s^k``,
explicit ``*`` for products), which gives cheap print/parse round trips.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

Scalar = int | Fraction


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(ZeroDivisionError):
    """A matrix required to be invertible is singular."""


def _scalar(x: Scalar) -> Scalar:
    """``x`` itself, if it is an exact rational scalar."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return x
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


def _frac(x: Scalar) -> Fraction:
    x = _scalar(x)
    return x if isinstance(x, Fraction) else Fraction(x)


class _Value:
    """Base of the immutable value types: ``__init__`` sets each slot once
    through ``object.__setattr__``, and nothing is assigned or deleted after."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly(_Value):
    """Univariate polynomial in ``s`` with rational coefficients.

    The value is sum(_z[k] * s**k) / _d, stored as integers over one
    denominator in lowest terms: ``_z`` is a tuple of ``int`` in ascending
    order of power with no trailing zeros (``()`` for zero), ``_d`` is a
    positive ``int`` and gcd(content(_z), _d) = 1 (``_d`` = 1 for zero).
    The form is canonical, so equality and hashing are structural.  A
    monic polynomial has a primitive ``_z`` and ``_d`` = its leading entry.
    ``coeffs``, ``coeff(k)`` and ``leading`` read the value as `Fraction`.
    """

    __slots__ = ("_z", "_d")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_scalar(c) for c in coeffs]
        # The lcm of reduced denominators leaves the content of the
        # numerators coprime to it, so the pair is already in lowest terms.
        d = math.lcm(*(c.denominator for c in cs))
        z = _trim([c.numerator * (d // c.denominator) for c in cs])
        object.__setattr__(self, "_z", tuple(z))
        object.__setattr__(self, "_d", d if z else 1)

    def __reduce__(self):
        return _from_z, (self._z, self._d)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Poly:
            return NotImplemented
        return self._z == other._z and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._z, self._d))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending order of power, as `Fraction`."""
        return tuple(Fraction(x, self._d) for x in self._z)

    def is_zero(self) -> bool:
        return not self._z

    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._z) - 1 if self._z else None

    @property
    def leading(self) -> Fraction:
        if not self._z:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._z[-1], self._d)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._z[k], self._d) if 0 <= k < len(self._z) else Fraction(0)

    def is_constant(self) -> bool:
        return len(self._z) <= 1

    def monic(self) -> "Poly":
        z = self._z
        if not z or z[-1] == self._d:
            return self
        return _monic_z(z)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        a, b, d = self._z, other._z, self._d
        if d != other._d:
            lcm = math.lcm(d, other._d)
            a = [x * (lcm // d) for x in a]
            b = [x * (lcm // other._d) for x in b]
            d = lcm
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, y in enumerate(b):
            out[k] += y
        return _lowest(out, d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _from_z([-x for x in self._z], self._d)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        if not self._z or not other._z:
            return ZERO
        return _lowest(_mul(self._z, other._z), self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        # content(z**k) = content(z)**k is coprime to d**k: no reduction
        out, base, e = [1], self._z, k
        while e:
            if e & 1:
                out = _mul(out, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        return _from_z(out, self._d**k)

    def __divmod__(self, other: "Poly | Scalar") -> tuple["Poly", "Poly"]:
        return poly_divmod(self, _as_poly(other))

    def __floordiv__(self, other: "Poly | Scalar") -> "Poly":
        return poly_divmod(self, _as_poly(other))[0]

    def __mod__(self, other: "Poly | Scalar") -> "Poly":
        return poly_divmod(self, _as_poly(other))[1]

    def derivative(self) -> "Poly":
        return _lowest([k * x for k, x in enumerate(self._z)][1:], self._d)

    def reflect(self) -> "Poly":
        """p(-s)."""
        return _from_z([-x if k % 2 else x for k, x in enumerate(self._z)], self._d)

    def __call__(self, s0):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        z, d = self._z, self._d
        if isinstance(s0, (int, Fraction)):
            if not z:
                return Fraction(0)
            v = s0.denominator
            return Fraction(_horner(z, s0.numerator, v), d * v ** (len(z) - 1))
        acc = 0.0
        for x in reversed(z):
            acc = acc * s0 + complex(x / d)  # x / d rounds as float(Fraction(x, d))
        return acc

    def __str__(self) -> str:
        if not self._z:
            return "0"
        parts: list[str] = []
        for k in range(len(self._z) - 1, -1, -1):
            c = self._z[k]
            if c == 0:
                continue
            mag = Fraction(abs(c), self._d)
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


def _from_z(a: Sequence[int], d: int = 1) -> Poly:
    """The Poly a / d for ``a`` and ``d`` already in lowest terms."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_z", tuple(a))
    object.__setattr__(p, "_d", d)
    return p


def _lowest(a: list[int], d: int) -> Poly:
    """The Poly a / d for any int list ``a`` and nonzero ``d``; ``a`` is
    trimmed in place."""
    _trim(a)
    if not a:
        return ZERO
    if d != 1:
        g = math.gcd(d, *a)
        if d < 0:
            g = -g
        if g != 1:
            a, d = [x // g for x in a], d // g
    return _from_z(a, d)


def _monic_z(a: Sequence[int]) -> Poly:
    """The monic Poly a / lc(a) of a nonzero int list ``a``."""
    a = _primitive(a)
    return _from_z(a, a[-1])


ZERO = _from_z(())
ONE = _from_z((1,))
S = _from_z((0, 1))


def _as_poly(x: "Poly | Scalar") -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly((x,))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b (r possibly zero)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    # m * a_z = q * b_z + r over Z, so a = (q * b_d / (m * a_d)) * b + r / (m * a_d)
    q, r, m = _pdivmod(a._z, b._z)
    e = m * a._d
    return _lowest([x * b._d for x in q], e), _lowest(r, e)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.  gcd(0, 0) is undefined."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        a, b = b, a
    g = _gcd(a._z, b._z)[0]
    return _from_z(g, g[-1])


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO
    return _monic_z(_mul(a._z, _gcd(a._z, b._z)[2]))


# ---------------------------------------------------------------------------
# Z[s]: the integer kernel
# ---------------------------------------------------------------------------
#
# A polynomial over Z is a sequence of ``int`` coefficients in ascending
# order of power with no trailing zeros (the zero polynomial is empty).
# A ``Poly`` is such a sequence over one denominator, so the kernel works
# on ``Poly._z`` directly; ``twodof.zfactor`` factors over the same helpers.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: Sequence[int]) -> list[int]:
    """``a`` over its content, with a positive leading coefficient."""
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _horner(a: Sequence[int], u: int, v: int) -> int:
    """v**deg(a) * a(u / v), an integer, for a nonzero ``a`` and v > 0."""
    acc, vk = 0, 1
    for x in reversed(a):
        acc = acc * u + x * vk
        vk *= v
    return acc


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _dot(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[int]:
    """sum(a[t] * b[t]) over Z[s], untrimmed."""
    out: list[int] = []
    for x, y in zip(a, b):
        p = _mul(x, y)
        if len(out) < len(p):
            out, p = p, out
        for i, v in enumerate(p):
            out[i] += v
    return out


def _exact_quo(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
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


def _pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m * a = q * b + r and deg r < deg b: pseudo-division,
    where m is a power of lc(b), raised only when a quotient coefficient is
    not an integer."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q, m = [0] * (len(a) - db), 1
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if not c:
            continue
        t, rest = divmod(c, lb)
        if rest:
            r, q, m, t = [lb * x for x in r], [lb * x for x in q], m * lb, c
        q[k] = t
        for j, y in enumerate(b):
            r[k + j] -= t * y
    return q, _trim(r[:db]), m


def _gcd(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) with g the primitive gcd, with a positive leading
    coefficient, of ``a`` (nonzero) and ``b``: the heuristic gcd first, else
    the primitive remainder sequence.  The quotients are exact over Z by
    Gauss's lemma."""
    if not b:
        g = _primitive(a)
        return g, [a[-1] // g[-1]], []
    if len(a) == 1 or len(b) == 1:
        return [1], list(a), list(b)
    found = _heu_gcd(a, b)
    if found is not None:
        return found
    g = _prs_gcd(a, b)
    return g, _exact_quo(a, g), _exact_quo(b, g)


def _prs_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd by the primitive remainder sequence (Collins 1967;
    Brown 1971); ``a`` nonzero."""
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _pdivmod(a, b)[1]
        if b:
            b = _primitive(b)
    return _primitive(a)


def _interpolate(h: int, x: int) -> list[int]:
    """The polynomial with coefficients in (-x/2, x/2] that takes h at x."""
    out = []
    while h:
        c = h % x
        if c > x // 2:
            c -= x
        out.append(c)
        h = (h - c) // x
    return out


def _heu_gcd(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], list[int]] | None:
    """``_gcd`` of two nonconstant ``a`` and ``b`` by GCDHEU (Char, Geddes &
    Gonnet, J. Symbolic Comput. 1989), or ``None`` when six evaluation
    points give no candidate.

    The gcd is read off gcd(a(x), b(x)) (or a cofactor off a(x) / gcd, or
    b(x) / gcd) by x-adic interpolation.  A candidate counts only if it
    divides both inputs exactly.  Every x exceeds twice a root bound
    1 + |f|/|lc f| of one input f, so a common divisor found that way is
    the gcd itself: a further common factor q would have |q(x)| > x/2,
    more than any interpolated coefficient can hold.  For the same reason
    a constant candidate needs no division check.
    """
    na, nb = max(map(abs, a)), max(map(abs, b))
    bound = 2 * min(na, nb) + 29
    x = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(na // abs(a[-1]), nb // abs(b[-1])) + 4,
    )
    for _ in range(6):
        fa, fb = _horner(a, x, 1), _horner(b, x, 1)
        if fa and fb:  # x may be a root of the input with the larger bound
            h = math.gcd(fa, fb)
            g = _interpolate(h, x)
            if len(g) == 1:
                return [1], list(a), list(b)
            g = _primitive(g)
            qa = _exact_quo(a, g)
            qb = None if qa is None else _exact_quo(b, g)
            if qb is not None:
                return g, qa, qb
            for f, other, cf in ((a, b, fa // h), (b, a, fb // h)):
                cf = _interpolate(cf, x)
                g = _exact_quo(f, cf)
                q = None if g is None else _exact_quo(other, g)
                if q is not None:
                    c = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
                    g, cf, q = [y // c for y in g], [y * c for y in cf], [y * c for y in q]
                    return (g, cf, q) if f is a else (g, q, cf)
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFn(_Value):
    """Reduced rational function num/den with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE) -> None:
        if num.__class__ is not Poly:
            num = _as_poly(num)
        if den.__class__ is not Poly:
            den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        elif den.is_constant():
            if den != ONE:  # (a / da) / (b0 / db) = (a * db) / (da * b0)
                num, den = _lowest([x * den._d for x in num._z], num._d * den._z[0]), ONE
        else:
            # (a / da) / (b / db) = (a * db) / (b * da); divided by g = gcd(a, b)
            # and made monic, the denominator is b / lc(b) and the numerator
            # a * db / (da * lc(b))
            g, a, b = _gcd(num._z, den._z)
            if len(g) > 1 or b[-1] != den._d:  # else coprime and monic already
                num = _lowest([x * den._d for x in a], num._d * b[-1])
                den = _monic_z(b)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __reduce__(self):
        return RatFn, (self.num, self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RatFn:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @classmethod
    def of(cls, num: "Poly | RatFn | Scalar", den: "Poly | Scalar" = 1) -> "RatFn":
        if isinstance(num, RatFn):
            return num / cls(_as_poly(den)) if den != 1 else num
        return cls(_as_poly(num), _as_poly(den))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def relative_degree(self) -> int | float:
        """deg(den) - deg(num); +inf for the zero function."""
        if self.num.is_zero():
            return math.inf
        return (self.den.degree() or 0) - (self.num.degree() or 0)

    def is_proper(self) -> bool:
        return self.relative_degree() >= 0

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


def _integer_line(entries: Iterable[RatFn]) -> tuple[Poly, list[list[int]], int]:
    """(den, zs, c) with entry k = zs[k] / (c * den), den the monic lcd of
    ``entries`` and zs[k] over Z[s]."""
    den, nums = common_denominator(entries)
    return (den, *_z_line(nums))


def _z_line(polys: Sequence[Poly]) -> tuple[list[list[int]], int]:
    """(zs, c) with polys[k] = zs[k] / c, zs[k] over Z[s] and c the lcm of
    the denominators."""
    c = math.lcm(*(p._d for p in polys))
    return [[x * (c // p._d) for x in p._z] for p in polys], c


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
# matrices
# ---------------------------------------------------------------------------


class _Grid(_Value):
    """Immutable row-major matrix over a ring, with at least one row and one
    column: the half of `PolyMat` and `RatMat` that does not depend on the
    ring.  A subclass names its ring: ``_coerce`` makes an entry of a value,
    ``_zero`` and ``_one`` are the ring's zero and one.  Equality and
    hashing follow ``rows`` within one kind of matrix.
    """

    # no instance dict, so that no attribute can be added to a subclass's
    # instance either; a subclass declares empty slots
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        coerce = self._coerce
        rows = tuple(tuple(coerce(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged matrix rows")
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        return type(self), (self.rows,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    @classmethod
    def identity(cls, n: int):
        return cls.diag([cls._one] * n)

    @classmethod
    def zeros(cls, r: int, c: int):
        return cls(tuple(tuple(cls._zero for _ in range(c)) for _ in range(r)))

    @classmethod
    def diag(cls, entries: Sequence):
        n = len(entries)
        return cls(
            tuple(
                tuple(entries[i] if i == j else cls._zero for j in range(n))
                for i in range(n)
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self):
        return type(self)(tuple(zip(*self.rows)))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return type(self)(
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self):
        return type(self)(tuple(tuple(-e for e in row) for row in self.rows))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        f = self._coerce(f)
        return type(self)(tuple(tuple(e * f for e in row) for row in self.rows))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"

    __repr__ = __str__


def _same_kind(a: _Grid, b: _Grid, name: str) -> type:
    if type(a) is not type(b) or not isinstance(a, _Grid):
        raise TypeError(f"{name} requires two matrices of the same kind")
    return type(a)


class PolyMat(_Grid):
    """Immutable matrix of :class:`Poly` entries."""

    __slots__ = ()
    _coerce = staticmethod(_as_poly)
    _zero, _one = ZERO, ONE

    def __matmul__(self, other: "PolyMat") -> "PolyMat":
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} @ {other.shape}")
        # row i of self is a_i / ca_i and column j of other is b_j / cb_j,
        # a_i and b_j over Z[s]: entry (i, j) is one dot product over Z[s]
        left = [_z_line(row) for row in self.rows]
        right = [_z_line(col) for col in zip(*other.rows)]
        return PolyMat(
            tuple(tuple(_lowest(_dot(a, b), ca * cb) for b, cb in right) for a, ca in left)
        )

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
        return RatMat(self.rows)


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
                    q = _exact_quo(num._z, prim)
                    if q is None:
                        raise ArithmeticError("Bareiss elimination lost exactness")
                    num = _lowest([x * c_den for x in q], num._d * c_num)
                row[j] = num
        cols.append(col)
        prev = pivot
        a, c_den = prev._z, prev._d
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


class RatMat(_Grid):
    """Immutable matrix of :class:`RatFn` entries."""

    __slots__ = ()
    _coerce = staticmethod(_as_ratfn)
    _zero, _one = RF_ZERO, RF_ONE

    def is_square(self) -> bool:
        r, c = self.shape
        return r == c

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} @ {other.shape}")
        # row i of self is a_i / (ca_i * ad_i) and column j of other is
        # b_j / (cb_j * bd_j), a_i and b_j over Z[s]: entry (i, j) is one
        # dot product over Z[s], normalised once
        left = [_integer_line(row) for row in self.rows]
        right = [_integer_line(col) for col in zip(*other.rows)]
        return RatMat(
            tuple(
                tuple(RatFn(_lowest(_dot(a, b), ca * cb), ad * bd) for bd, b, cb in right)
                for ad, a, ca in left
            )
        )

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

    def at_infinity(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(e.at_infinity() for e in row) for row in self.rows)

    def eval_at(self, s0: Scalar) -> tuple[tuple[Fraction | None, ...], ...]:
        """Exact evaluation; ``None`` flags entries with a pole at ``s0``."""
        s0 = _frac(s0)
        return tuple(tuple(e.at(s0) for e in row) for row in self.rows)

    def __call__(self, s0: complex):
        return tuple(tuple(e(s0) for e in row) for row in self.rows)


def linsolve_exact(
    a_rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A z = b exactly over the rationals.

    Returns ``(particular, nullspace_basis)`` with free variables set to
    zero in the particular solution, or ``None`` when inconsistent.
    [A | b] is reduced to reduced row echelon form by Gauss-Jordan
    elimination; its pivot columns are fixed by A, so the result is unique.
    Each row is cleared to integers by the lcm of its denominators and
    eliminated over Z (``_rref_z``); a value is read out as a quotient of
    two entries of its pivot row.
    """
    n = len(a_rows[0]) if a_rows else 0
    aug = []
    for i, row in enumerate(a_rows):
        xs = [_scalar(x) for x in (*row, rhs[i])]
        d = math.lcm(*(x.denominator for x in xs))
        aug.append([x.numerator * (d // x.denominator) for x in xs])
    pivots = _rref_z(aug, n)
    if pivots is None:
        return None
    particular = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        particular[col] = Fraction(row[n], row[col])
    basis: list[list[Fraction]] = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            vec[col] = Fraction(-row[fc], row[col])
        basis.append(vec)
    return particular, basis


def _rref_z(aug: list[list[int]], n: int) -> list[int] | None:
    """Fraction-free Gauss-Jordan elimination of the first ``n`` columns of
    the integer rows ``aug``, in place; the later columns ride along.

    The pivot of each column is the first remaining row with a nonzero
    entry there, as over Q.  Every other row with a nonzero entry f in
    that column becomes p * row - f * top over gcd(p, f), p the pivot,
    and is then divided by its content, so each row stays a nonzero
    multiple of its row in the reduced row echelon form of [A | b] over
    Q.  Returns the pivot columns, or ``None`` when a row beyond them has
    a nonzero entry in column ``n`` (the system is inconsistent).
    """
    pivots: list[int] = []
    for col in range(n):
        k = len(pivots)
        if k == len(aug):
            break
        piv = next((i for i in range(k, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[k], aug[piv] = aug[piv], aug[k]
        top = aug[k]
        p = top[col]
        for i, row in enumerate(aug):
            f = row[col]
            if i != k and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, top)]
                c = math.gcd(*new)
                aug[i] = [x // c for x in new] if c > 1 else new
        pivots.append(col)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    return pivots


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
