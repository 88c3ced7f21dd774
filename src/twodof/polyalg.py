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
  kernel below (``_mul``, ``_pdivmod``, ``_exact_quo``, and ``_gcd`` of
  any number of polynomials: the heuristic gcd of Char, Geddes & Gonnet
  1989, at one evaluation of each input per point, whose cofactors are
  read off the values and certified by a coefficient bound instead of a
  trial division where the bound holds, with a fold of the primitive
  remainder sequence of Collins 1967 / Brown 1971 as its fallback), and
  each result is brought to lowest terms with one gcd of its numerators
  and its denominator.  No `Fraction` is built on the way.
  :mod:`twodof.zfactor` factors over the same helpers.
* `PolyMat` / `RatMat` are immutable row-major grids that share one
  ring-independent base, ``_Grid``; each names only its entry coercion and its
  ring's zero and one.  Over the polynomial ring, `hermite` gives the row
  Hermite form (and its unimodular transform), and one fraction-free
  Gauss-Jordan kernel, ``_bareiss`` (Bareiss 1968), gives determinants, ranks
  and the adjugates from 3x3 on (``_polymat_det_adj``; over Z,
  ``_det_adj_z``).  Its exact division by the previous pivot divides by the
  pivot's primitive part over Z (by Gauss's lemma that division is exact in
  Z[s]) and then by its content as a rational.  Every rational-matrix solve
  runs through that kernel on the numerators over one lcd (``_over_lcd``):
  ``RatMat.inv`` is den * adj(num) / det(num), ``RatMat.det`` is det(num) /
  den**n, ``RatMat.rank`` is the rank of num, and ``_solve_polymat``
  eliminates [a | b_num]; each result entry is normalised once.
  Both products run on one kernel: ``PolyMat @`` takes each row of the
  left factor and each column of the right factor to Z[s] over one
  integer (``_z_line``), ``RatMat @`` does so after taking the line over
  its lcd, and each entry is one dot product over Z[s], normalised once.
  A matrix over one shared denominator (``_over``) and a product over one
  (``_over_product``, read off its factors' values) are normalised in one
  pass of read-offs at one point (``_values_over``), an entry whose
  candidate fails its certificate taking ``_gcd``, and so are the factors
  of a feedback loop (``_loop_over``, ``_youla_over``).  An identity a @ b == f * c
  is decided at one point (``_is_product``), with neither side formed.
  These kernels take their point by one rule, ``_point``: the least
  x = 2**k > 2B + 4, for B a bound on the coefficients they read.
* Linear systems over Q run on one fraction-free Gauss-Jordan
  elimination over Z, ``_rref_z``, with the pivots of the elimination
  over Q; each updated row is divided by its content, and a value is read
  out as a quotient of two entries of its pivot row only at the end.
  ``_null_vector`` clears each row of a constant matrix to integers
  (``_cleared``) and reads off its first null vector;
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
    """Base of the immutable value types: ``__init__`` sets each slot once by
    its descriptor's ``__set__``, and nothing is assigned or deleted after."""

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
        _set_z(self, tuple(z))
        _set_d(self, d if z else 1)

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

    def __call__(self, s0: int | Fraction) -> Fraction:
        """Evaluate exactly at a rational point, by Horner's rule."""
        z, v = self._z, s0.denominator
        if not z:
            return Fraction(0)
        return Fraction(_horner(z, s0.numerator, v), self._d * v ** (len(z) - 1))

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


# the slot setters, bound once: a value is built by its data alone
_set_z, _set_d = Poly._z.__set__, Poly._d.__set__


def _from_z(a: Sequence[int], d: int = 1) -> Poly:
    """The Poly a / d for ``a`` and ``d`` already in lowest terms."""
    p = object.__new__(Poly)
    _set_z(p, tuple(a))
    _set_d(p, d)
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
    if v == 1:  # an integer point, such as GCDHEU's
        for x in reversed(a):
            acc = acc * u + x
        return acc
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
    """``a / b`` if ``b`` divides the nonzero ``a`` in Z[s], else ``None``."""
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


def _gcd(*fs: Sequence[int]) -> tuple[list[int], ...]:
    """(g, f1 / g, f2 / g, ...) with g the primitive gcd, with a positive
    leading coefficient, of integer polynomials fs of which one or more are
    nonzero (a zero input's quotient is zero): the heuristic gcd first, its
    cofactors certified by a coefficient bound or by division
    (``_heu_gcd``), else a fold of the primitive remainder sequence.  The
    quotients are exact over Z by Gauss's lemma."""
    live = fs if all(fs) else [f for f in fs if f]
    if len(live) == 1:
        g = _primitive(live[0])
        found = g, [live[0][-1] // g[-1]]
    elif 1 in map(len, live):  # a constant input
        found = ([1], *map(list, live))
    else:
        found = _heu_gcd(*live)
        if found is None:
            g = live[0]
            for f in live[1:]:
                g = _prs_gcd(g, f)
            found = (g, *(_exact_quo(f, g) for f in live))
    if live is fs:  # no zero input to put back
        return found
    quos = iter(found[1:])
    return (found[0], *(next(quos) if f else [] for f in fs))


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
    out, half, k, mask = [], x // 2, x.bit_length() - 1, x - 1
    shifts = not x & mask  # x = 2**k, as _point's: read by shifts
    while h:
        h, c = (h >> k, h & mask) if shifts else divmod(h, x)
        if c > half:
            c -= x
            h += 1
        out.append(c)
    return out


def _point(bound: int) -> int:
    """The one-point kernels' point: the least x = 2**k > 2 * bound + 4,
    for ``bound`` at least every coefficient size the caller reads.  An
    integer polynomial with coefficients of size below x is zero exactly
    when its value at x is: were it nonzero, with lowest nonzero coefficient
    e at s**j, its value x**j * (e + x * t), t an integer, could not vanish,
    as 0 < |e| < x (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 8).  So one with coefficients of size below x / 2 is read off its
    value (``_interpolate``).  And x exceeds twice the root bound 1 + bound
    of a polynomial with coefficients of size at most ``bound``, so each of
    its factors q over Z has |q(x)| > x / 2 (``_values_over``)."""
    return 1 << (2 * bound + 4).bit_length()


def _heu_gcd(*fs: Sequence[int]) -> tuple[list[int], ...] | None:
    """``_gcd`` of two or more nonconstant ``fs`` by GCDHEU (Char, Geddes &
    Gonnet, J. Symbolic Comput. 1989), or ``None`` when none of six
    evaluation points gives a candidate.

    Each input is evaluated once at each point x, and the gcd is read off h,
    the gcd of the values, by x-adic interpolation: g = g0 / c, g0 taking h
    at x and c its content, signed to make lc(g) positive.  Each quotient
    q = f / g is read off f(x) / (h / c) the same way, and is certified
    without a division when 2 * max(|f|, |g|_1 * |q|) < x (max norms, and
    the 1-norm of g) over every input f: then g * q and f both take f(x) at
    x and have coefficients of size below x / 2, so they are equal (their
    difference vanishes at x; ``_point``).  Otherwise g counts only if it
    divides every input exactly.  Every x exceeds twice a root bound
    1 + |f|/|lc f| of one input f, so a common divisor found that way is
    the gcd itself: a further common factor q would have |q(x)| > x/2, more
    than any interpolated coefficient can hold.  For the same reason a
    constant candidate needs no check.  The first x is
    min(2m + 29, 99 * sqrt(2m + 29)), m the smallest of the inputs' largest
    coefficients, shifted left by the least input length in bits: room for
    the 2**deg growth of a divisor's coefficients (Mignotte), so a second x
    is rarely needed, while the square-root cut keeps long inputs' x short.
    Where the cut acts, m is taken over the inputs' primitive parts, so a
    long content does not inflate x.
    """
    norms = [max(map(abs, f)) for f in fs]
    bound = 2 * min(norms) + 29
    cut = 99 * math.isqrt(bound)
    x = min(bound, cut) << min(map(len, fs))
    if cut < bound:  # long coefficients: evaluate the primitive parts
        contents = [math.gcd(*f) for f in fs]
        if contents.count(1) < len(fs):
            found = _heu_gcd(*([y // c for y in f] for f, c in zip(fs, contents)))
            return found and (found[0], *([y * c for y in q] for q, c in zip(found[1:], contents)))
        # uncut, x = (2m + 29) << len already exceeds this bound
        x = max(x, 2 * min([n // abs(f[-1]) for n, f in zip(norms, fs)]) + 4)
    top = 2 * max(norms)
    for _ in range(6):
        values = [_horner(f, x, 1) for f in fs]
        if all(values):  # x may be a root of an input with a larger bound
            h = math.gcd(*values)
            if h <= x >> 1:  # a constant candidate
                return ([1], *map(list, fs))
            # the quotients certified by their size where top < x, else by
            # trial division
            g, quos = _read_off(h, x, values if top < x else ())
            if quos is None:
                quos = [_exact_quo(f, g) for f in fs]
            if None not in quos:
                return (g, *quos)
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None  # no candidate at six points: the caller falls back to the PRS


def _read_off(h: int, x: int, values: Sequence[int]) -> tuple[list[int], list[list[int]] | None]:
    """GCDHEU's candidate at x, for h the gcd of ``values`` (one or more of
    them nonzero): g, primitive with lc(g) > 0, read off h by x-adic
    interpolation (g = 1 where h <= x / 2), and each value's quotient by
    g(x) read off the same way, or ``None`` for the quotients unless there
    are some and 2 * |g|_1 * |q| < x for each q (``_heu_gcd`` argues it)."""
    g = _interpolate(h, x)
    c = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
    g, gx = [y // c for y in g], h // c
    quos = [_interpolate(v // gx, x) for v in values]
    if not quos or 2 * sum(map(abs, g)) * max(max(map(abs, q), default=0) for q in quos) >= x:
        return g, None
    return g, quos


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFn(_Value):
    """Reduced rational function num/den with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE) -> None:
        _normalise(self, num if num.__class__ is Poly else _as_poly(num), den)

    def __reduce__(self):
        return RatFn, (self.num, self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RatFn:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

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

    def __pow__(self, k: int) -> "RatFn":
        return RatFn(self.num**k, self.den**k)

    # -- evaluation ---------------------------------------------------------

    def at(self, s0: Scalar) -> Fraction | None:
        """Exact value at a rational point, or ``None`` at a pole."""
        s0 = _frac(s0)
        d = self.den(s0)
        if d == 0:
            return None
        return self.num(s0) / d

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self})"


_set_num, _set_den = RatFn.num.__set__, RatFn.den.__set__


def _normalise(r: RatFn, num: Poly, den: Poly, found: tuple | None = None) -> RatFn:
    """Set ``r`` to num / den in lowest terms with a monic denominator and
    return it: every `RatFn`, and every entry of ``_over``, is normalised
    here once.  ``found`` is (g, a, b) = ``_gcd(num._z, den._z)`` when the
    caller holds it, den nonconstant; num / g may stand for num, as only its
    ``_d``, the same for both (g is primitive), is read where g is not 1."""
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
        g, a, b = found or _gcd(num._z, den._z)
        if len(g) > 1 or b[-1] != den._d:  # else coprime and monic already
            num = _lowest([x * den._d for x in a], num._d * b[-1])
            den = _monic_z(b)
    _set_num(r, num)
    _set_den(r, den)
    return r


RF_ZERO = RatFn(ZERO)
RF_ONE = RatFn(ONE)


def _as_ratfn(x: "RatFn | Poly | Scalar") -> RatFn:
    return x if isinstance(x, RatFn) else RatFn(x)


def common_denominator(entries: Iterable[RatFn]) -> tuple[Poly, list[Poly]]:
    """Monic least common denominator of ``entries``, with each entry's
    numerator over it."""
    entries = list(entries)
    den = ONE
    for e in entries:
        if e.den != den:
            den = poly_lcm(den, e.den)
    return den, [e.num if e.den == den else e.num * (den // e.den) for e in entries]


def _z_line(polys: Sequence[Poly]) -> tuple[list[Sequence[int]], int]:
    """(zs, c) with polys[k] = zs[k] / c, zs[k] over Z[s] (the stored
    integers themselves where the denominator is c; no caller writes to
    them) and c the lcm of the denominators."""
    c = math.lcm(*(p._d for p in polys))
    return [p._z if p._d == c else [x * (c // p._d) for x in p._z] for p in polys], c


def _over_lcd(mat: RatMat) -> tuple[Poly, PolyMat]:
    """(den, num) with mat = num / den, den the monic lcd of the entries."""
    cols = mat.shape[1]
    den, nums = common_denominator(e for row in mat.rows for e in row)
    return den, PolyMat(tuple(map(tuple, _grid(nums, cols))))


def _column_fraction(mat: RatMat) -> tuple[PolyMat, PolyMat]:
    """(d, n) with mat = n @ d**-1, d the diagonal of the monic column lcds."""
    cols = [common_denominator(col) for col in zip(*mat.rows)]
    return PolyMat.diag([den for den, _ in cols]), PolyMat(tuple(zip(*(nums for _, nums in cols))))


def _over(mat: PolyMat, den: Poly) -> RatMat:
    """mat / den, each entry normalised once (``_normalise``): over a
    nonconstant den, with every entry read off its value at one point
    (``_values_over``), unless mat has one entry."""
    rows = mat.rows
    if len(den._z) < 2 or len(rows) * len(rows[0]) < 2:
        return RatMat(tuple(tuple(RatFn(e, den) for e in row) for row in rows))
    entries = [e for row in rows for e in row]
    top = max(max(map(abs, z), default=0) for z in (den._z, *(e._z for e in entries)))
    x = _point(top << len(den._z))  # room for the 2**deg growth of cofactors (Mignotte)
    values = [_horner(e._z, x, 1) for e in entries]
    return _values_over(x, den, values, [e._d for e in entries], len(rows[0]))


def _over_product(a: PolyMat, b: PolyMat, den: Poly) -> RatMat:
    """a @ b / den, each entry normalised once, with the product not formed.
    Row i of a is a_i / p_i and column j of b is b_j / q_j over Z[s]
    (``_z_line``), so entry (i, j) is N / (p_i q_j den), N = a_i . b_j, with
    coefficients at most B, the largest sum_t |a_i[t]|_1 |b_j[t]|_1 or
    coefficient of den.  At x = ``_point(B)``, N(x) is a dot product of
    integers, read off by ``_values_over``."""
    left = [_z_line(row) for row in a.rows]
    right = [_z_line(col) for col in zip(*b.rows)]
    norms = [[[sum(map(abs, z)) for z in line] for line, _ in side] for side in (left, right)]
    pairs = [sum(s * t for s, t in zip(u, v)) for u in norms[0] for v in norms[1]]
    x = _point(max(max(map(abs, den._z)), *pairs))
    a_values, b_values = ([[_horner(z, x, 1) for z in line] for line, _ in side] for side in (left, right))
    values = [sum(s * t for s, t in zip(u, v)) for u in a_values for v in b_values]
    return _values_over(x, den, values, [p * q for _, p in left for _, q in right], len(right))


def _loop_over(a: PolyMat, b: PolyMat) -> tuple[PolyMat, PolyMat, Poly] | None:
    """(a over Z, row / g, det M / g), or None where det M = 0, for a =
    [d; n], b = [dc*I | nc], M = dc*d - nc@n, row = adj M @ b and g the gcd
    of det M and row: the feedback loop of n @ d**-1 and nc / dc has the
    maps a @ row / (det M / g).  They are read off integers at one point x,
    the inputs cleared to Z[s] over one integer (its powers cancel from the
    maps).  With 1-norms, |M_ij| <= |dc| |d_ij| + sum_t |nc_it| |n_tj|, so
    every minor of M, a sum of products of entries from distinct rows, is
    at most P, the product of M's row sums (each at least 1), and every
    coefficient of det M, adj M and row at most B = m P max(|dc|, |nc_ij|).
    At x = ``_point(B)`` none is misread, det M(x) = 0 only if det M = 0,
    and g = 1 if h = gcd(det M(x), row(x)) <= x / 2, else g and the
    quotients are read off h and certified by size (``_read_off``), or else
    taken by ``_gcd``."""
    m, w = b.shape
    zs = _z_line([e for mat in (a, b) for row in mat.rows for e in row])[0]
    split = lambda ks: (_grid(ks[: w * m], m), _grid(ks[w * m :], w))  # a and b
    a_norms, b_norms = split([sum(map(abs, z)) for z in zs])  # M's are at most b_norms @ a_norms
    bound = m * math.prod(max(sum(r), 1) for r in _dot_z(b_norms, a_norms)) * max(map(max, b_norms))
    x = _point(bound)
    a_x, b_x = split([_horner(z, x, 1) for z in zs])
    det, adj = _det_adj_z(_dot_z([r[:m] + [-v for v in r[m:]] for r in b_x], a_x))  # M(x)
    if not det:
        return None
    values = [det, *(v for r in _dot_z(adj, b_x) for v in r)]
    quos = _read_off(math.gcd(*values), x, values)[1]
    if quos is None:  # a candidate that fails its certificate
        quos = _gcd(*(_interpolate(v, x) for v in values))[1:]
    q, *row = map(_from_z, quos)
    a_z = PolyMat(tuple(tuple(map(_from_z, r)) for r in split(zs)[0]))
    return a_z, PolyMat(tuple(map(tuple, _grid(row, w)))), q


def _youla_over(phi: Poly, vu: PolyMat, *term) -> tuple[Poly, PolyMat, Poly, PolyMat, PolyMat] | None:
    """(q, [l | r], det l, adj l, c = -adj l @ r), or None where det l = 0,
    for [l | r] = q * (vu / phi + kn @ w / dk) over Z[s], l its first m
    columns, term = (dk, kn, w) (none: kn and w zero) and q an integer
    times lcm(phi, dk).  With vu, kn, w = vu', kn', w' / e over Z[s]
    (``_z_line``), phi = g p and dk = g d (``_gcd``), [l | r] =
    e phi._d d vu' + dk._d p kn' @ w' and q = e**2 g p d; that sum of
    1-norms bounds each entry's, and B as in ``_loop_over`` (M = l, b = r)
    every coefficient read off at x = ``_point(B)`` (``_interpolate``)."""
    m, width = vu.shape
    dk, kn, w = term or (ONE, PolyMat.zeros(m, 1), PolyMat.zeros(1, width))
    zs, e = _z_line([y for mat in (vu, kn, w) for row in mat.rows for y in row])
    _, p, d = _gcd(phi._z, dk._z)
    f1, f2, n, t = [e * phi._d * y for y in d], [dk._d * y for y in p], m * width, len(w.rows)

    def at(key):  # [l | r] with each polynomial over Z[s] taken to its key
        ks, k1, k2 = [key(z) for z in zs], key(f1), key(f2)
        kw = _dot_z(_grid(ks[n : n + m * t], t), _grid(ks[n + m * t :], width))
        return [[k1 * u + k2 * v for u, v in zip(*rows)] for rows in zip(_grid(ks[:n], width), kw)]

    norms = at(lambda z: sum(map(abs, z)))
    x = _point(m * math.prod(max(sum(r[:m]), 1) for r in norms) * max(1, *(v for r in norms for v in r[m:])))
    lr = at(lambda z: _horner(z, x, 1))
    det, adj = _det_adj_z([r[:m] for r in lr])
    if not det:
        return None
    read = lambda rows, s=1: PolyMat(tuple(tuple(_from_z(_interpolate(s * v, x)) for v in r) for r in rows))
    q = _from_z([e * e * y for y in _mul(phi._z, d)])
    return q, read(lr), _from_z(_interpolate(det, x)), read(adj), read(_dot_z(adj, [r[m:] for r in lr]), -1)


def _grid(flat: Sequence, k: int) -> list[Sequence]:
    """``flat`` cut into rows of k entries."""
    return [flat[i : i + k] for i in range(0, len(flat), k)]


def _dot_z(u: Sequence[Sequence[int]], v: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix product u @ v."""
    cols = list(zip(*v))
    return [[sum(map(int.__mul__, r, col)) for col in cols] for r in u]


def _values_over(x: int, den: Poly, values: Sequence[int], scales: Sequence[int], cols: int) -> RatMat:
    """The matrix, ``cols`` entries a row, of N / (c * den) for each value
    N(x) of an integer polynomial N and its integer c, x = ``_point(B)`` for
    B at least every coefficient of N and den, each entry normalised once
    (``_normalise``) over the monic mono = den * den._d / lc, lc the leading
    entry of den._z.  For each h = gcd(N(x), mono(x)), once, g for
    gcd(N, mono) and b = mono / g are read off h and certified by size
    (``_read_off``; g = 1 where h <= x / 2: a common factor q of N and mono
    has |q(x)| > x / 2, its roots being mono's).  An entry reads q = N / g
    off N(x) / g(x); where 2 |g|_1 |q| < x too, g q = N (coprime pairs pass,
    as 2B < x), and it is q den._d lc(g) / (c lc) over the monic b, formed
    with one ``_lowest``; else N over mono takes ``_gcd``."""
    mono, lc = _monic_z(den._z), den._z[-1]
    dv = _horner(mono._z, x, 1)
    shared, cells = {1: (1, 2, den._d, mono)}, []  # h -> (g(x), 2 |g|_1, den._d lc(g), monic b)
    for v, c in zip(values, scales):
        if not v:
            cells.append(RF_ZERO)
            continue
        h = gv if (gv := math.gcd(v, dv)) > x >> 1 else 1  # 1: coprime
        if h not in shared:
            g, quos = _read_off(h, x, [dv])
            shared[h] = quos and (_horner(g, x, 1), 2 * sum(map(abs, g)), den._d * g[-1], _monic_z(quos[0]))
        gx, size, t, b = shared[h] or (1, x, 1, None)  # size x: every entry fails
        z = _interpolate(v // gx, x)  # N / g
        if size * max(map(abs, z)) >= x:  # the candidate, or this quotient, fails its certificate
            z, t, b = _interpolate(v, x), den._d, None
        num = _lowest([y * t for y in z] if t != 1 else z, c * lc)
        cells.append(_normalise(object.__new__(RatFn), num, b or mono, b and ([1], num._z, b._z)))
    return RatMat(tuple(map(tuple, _grid(cells, cols))))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class _Grid(_Value):
    """Immutable row-major matrix over a ring, with at least one row and one
    column: the half of `PolyMat` and `RatMat` that does not depend on the
    ring.  A subclass names its ring: ``_coerce`` makes an entry of a value
    (rows already built of the class of ``_zero`` are kept), ``_zero`` and
    ``_one`` are the ring's zero and one.  Equality and hashing follow
    ``rows`` within one kind of matrix."""

    # no instance dict, so that no attribute can be added to a subclass's
    # instance either; a subclass declares empty slots
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        if not _built(rows, self._zero.__class__):
            coerce = self._coerce
            rows = tuple(tuple(coerce(e) for e in row) for row in rows)
            if not rows or not rows[0]:
                raise ShapeError("matrix must have at least one row and one column")
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged matrix rows")
        _set_rows(self, rows)

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
        return cls(tuple(tuple(entries[i] if i == j else cls._zero for j in range(n)) for i in range(n)))

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
        return type(self)(tuple(tuple(a + b for a, b in zip(*rows)) for rows in zip(self.rows, other.rows)))

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


_set_rows = _Grid.rows.__set__


def _built(rows: Sequence[Sequence], ring: type) -> bool:
    """Whether ``rows`` is a tuple of nonempty equal-width tuples of ``ring``."""
    if rows.__class__ is not tuple or not rows or rows[0].__class__ is not tuple:
        return False
    width = len(rows[0])
    for row in rows:
        if row.__class__ is not tuple or len(row) != width or not width:
            return False
        for e in row:
            if e.__class__ is not ring:
                return False
    return True


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
        return PolyMat(tuple(tuple(_lowest(_dot(a, b), ca * cb) for b, cb in right) for a, ca in left))

    def column_degrees(self) -> list[int | None]:
        """Per-column maximum entry degree (``None`` for a zero column)."""
        r, c = self.shape
        out: list[int | None] = []
        for j in range(c):
            degs = [self.rows[i][j].degree() for i in range(r) if not self.rows[i][j].is_zero()]
            out.append(max(degs) if degs else None)
        return out

    def rank(self) -> int:
        """Normal rank: the pivot count of a Bareiss elimination."""
        return len(_bareiss([list(row) for row in self.rows], self.shape[1])[0])

    def to_ratmat(self) -> "RatMat":
        return RatMat(self.rows)


def _is_product(a: PolyMat, b: PolyMat, f: Poly, c: PolyMat) -> bool:
    """Whether a @ b == f * c, decided at one point without forming either
    side.

    Row i of a is a_i / p_i, column j of b is b_j / q_j and c is c' / r,
    each over Z[s] by one integer (``_z_line``), and f = fz / fd, so entry
    (i, j) holds exactly when L = fd * r * sum_t a_i[t] * b_j[t] and
    R = p_i * q_j * fz * c'[i][j] are equal over Z[s].  A product u * v of
    integer polynomials has coefficients of size at most |u| * |v|_1 (the
    max norm and the 1-norm), so the largest norms and integers of each
    kind bound every coefficient of every L and R by one B.  L - R has
    coefficients of size at most 2 * B, below x = ``_point(B)``, so L == R
    exactly when L(x) == R(x), and no product is formed.
    """
    inner = len(b.rows)
    if len(a.rows[0]) != inner:
        raise ShapeError(f"cannot multiply {a.shape} @ {b.shape}")
    if len(c.rows) != len(a.rows) or len(c.rows[0]) != len(b.rows[0]):
        return False
    left = [_z_line(row) for row in a.rows]
    right = [_z_line(col) for col in zip(*b.rows)]
    c_line, r = _z_line([e for row in c.rows for e in row])
    norm = lambda lines, size: max((size(map(abs, z)) for zs, _ in lines for z in zs if z), default=0)
    scale = max(p for _, p in left) * max(q for _, q in right)
    bound = max(
        f._d * r * inner * norm(left, max) * norm(right, sum),
        scale * sum(map(abs, f._z)) * norm([(c_line, r)], max),
    )
    x = _point(bound)
    fd, fv = f._d * r, _horner(f._z, x, 1)
    right = [(q, [_horner(z, x, 1) for z in zs]) for zs, q in right]
    c_values = (_horner(z, x, 1) for z in c_line)
    for zs, p in left:
        values = [_horner(z, x, 1) for z in zs]
        for q, b_values in right:
            if fd * sum(u * v for u, v in zip(values, b_values)) != p * q * fv * next(c_values):
                return False
    return True


def hermite(a: PolyMat) -> tuple[PolyMat, PolyMat]:
    """Row Hermite form: returns (h, u) with u @ a == h and u unimodular.

    The form is upper echelon with monic pivots; entries above each pivot
    have strictly lower degree than the pivot.  Pivots are chosen as the
    lowest-degree nonzero candidate in the leftmost unfinished column
    (topmost row on ties), which keeps intermediate degrees small.  Row i
    of [a | I] is kept as r_i / c_i, r_i over Z[s] and c_i > 0; a row step
    row_i -= q * row_p (q the Euclidean quotient over Q of their entries in
    the pivot column) is one pseudo-division k * e_i = z * e_p + rem over
    Z, giving (k * r_i - z * r_p) / (k * c_i), and one row content gcd.
    """
    m, n = a.shape
    rows = [
        _row_lowest(*_z_line([*row, *(ONE if j == i else ZERO for j in range(m))]))
        for i, row in enumerate(a.rows)
    ]

    def reduce(i: int, p: int, col: int) -> None:
        (ri, ci), rp = rows[i], rows[p][0]
        z, _, k = _pdivmod(ri[col], rp[col])
        z = [-x for x in z]
        rows[i] = _row_lowest([_trim(_dot(([k], z), (e, f))) for e, f in zip(ri, rp)], k * ci)

    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        placed = False
        while True:
            cand = [i for i in range(pivot_row, m) if rows[i][0][col]]
            if not cand:
                break
            best = min(cand, key=lambda i: len(rows[i][0][col]))
            rows[best], rows[pivot_row] = rows[pivot_row], rows[best]
            lower = [i for i in range(pivot_row + 1, m) if rows[i][0][col]]
            if not lower:
                placed = True
                break
            for i in lower:
                reduce(i, pivot_row, col)
        if placed:
            zs, c = rows[pivot_row]
            if zs[col][-1] != c:  # row / (lc / c) = zs / lc
                rows[pivot_row] = _row_lowest(zs, zs[col][-1])
            for i in range(pivot_row):
                if len(rows[i][0][col]) >= len(zs[col]):
                    reduce(i, pivot_row, col)
            pivot_row += 1
    return tuple(
        PolyMat(tuple(tuple(_lowest(e, c) for e in zs[part]) for zs, c in rows))
        for part in (slice(n), slice(n, None))
    )


def _row_lowest(zs: list[list[int]], c: int) -> tuple[list[list[int]], int]:
    """The row zs / c in lowest terms, with c > 0; for c = 0, zs over its
    content."""
    g = math.gcd(c, *(x for e in zs for x in e)) * (-1 if c < 0 else 1)
    return ([[x // g for x in e] for e in zs], c // g) if g != 1 else (zs, c)


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


def _solve_polymat(a: PolyMat, b: RatMat) -> RatMat | None:
    """x with a @ x = b, its rows at free columns of a zero, or None when b
    lies outside the range of a.  [a | b_num] for b = b_num / den is
    eliminated: each pivot row ends as [last * I | last * x]."""
    cols = a.shape[1]
    den, b_num = _over_lcd(b)
    aug = [list(ar) + list(br) for ar, br in zip(a.rows, b_num.rows)]
    pivots, last, _ = _bareiss(aug, cols)
    if any(not e.is_zero() for row in aug[len(pivots):] for e in row[cols:]):
        return None
    x_rows = [[ZERO] * b.shape[1] for _ in range(cols)]
    for row, col in zip(aug, pivots):
        x_rows[col] = row[cols:]
    return _over(PolyMat(tuple(map(tuple, x_rows))), last * den)


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
    """(det a, adj a) of a nonsingular square polynomial matrix; a**-1 =
    adj a / det a.  Raises SingularMatrixError when det a = 0.  Up to 2x2,
    det a and adj a are read off the cofactors with no division; from 3x3,
    one Bareiss elimination of [a | I] reaches det(perm @ a) * a**-1 =
    sign * adj a."""
    r, c = a.shape
    if r != c:
        raise ShapeError("adjugate of a non-square matrix")
    x = a.rows
    if r > 2:
        rows = [list(row) + [ONE if i == j else ZERO for j in range(r)] for i, row in enumerate(x)]
        cols, last, sign = _bareiss(rows, r)
        if len(cols) < r:  # a singular a still has a nonzero last pivot
            raise SingularMatrixError("matrix is singular")
        adj = PolyMat(tuple(tuple(row[r:]) for row in rows))
        return (-last, -adj) if sign < 0 else (last, adj)
    if r == 1:
        adj = ((ONE,),)
    else:
        adj = ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))
    det = x[0][0] if r == 1 else x[0][0] * x[1][1] - x[0][1] * x[1][0]
    if det.is_zero():
        raise SingularMatrixError("matrix is singular")
    return det, PolyMat(adj)


def _det_adj_z(a: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det a, adj a) of a square integer matrix, det a = 0 if singular."""
    if len(a) > 2:
        try:
            det, adj = _polymat_det_adj(PolyMat(tuple(tuple(_lowest([v], 1) for v in r) for r in a)))
        except SingularMatrixError:
            return 0, None
        return det._z[0], [[e._z[0] if e._z else 0 for e in r] for r in adj.rows]
    if len(a) == 1:
        return a[0][0], [[1]]
    (a00, a01), (a10, a11) = a
    return a00 * a11 - a01 * a10, [[a11, -a01], [-a10, a00]]


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
        left = [(den, *_z_line(nums)) for den, nums in map(common_denominator, self.rows)]
        right = [(den, *_z_line(nums)) for den, nums in map(common_denominator, zip(*other.rows))]
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


def _cleared(rows: Iterable[Sequence[Scalar]]) -> list[list[int]]:
    """Each row of the rational matrix ``rows`` times the lcm of its
    denominators: integer rows with the pivots of ``rows`` over Q."""
    aug = []
    for row in rows:
        xs = [_scalar(x) for x in row]
        d = math.lcm(*(x.denominator for x in xs))
        aug.append([x.numerator * (d // x.denominator) for x in xs])
    return aug


def _null_vector(rows: Sequence[Sequence[Scalar]]) -> list[Fraction] | None:
    """The first null vector of the reduced row echelon form of the
    rational matrix ``rows``: 1 at its first free column, -row[free] /
    row[pivot] at each pivot and 0 elsewhere; ``None`` when the columns
    are independent.  The rows are cleared to integers (``_cleared``) and
    eliminated over Z (``_rref_z``)."""
    n = len(rows[0])
    aug = _cleared(rows)
    pivots = _rref_z(aug, n)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, col in zip(aug, pivots):
        vec[col] = Fraction(-row[free], row[col])
    return vec


def _rref_z(aug: list[list[int]], n: int) -> list[int] | None:
    """Fraction-free Gauss-Jordan elimination of the first ``n`` columns of
    the integer rows ``aug``, in place; the later columns ride along.

    The pivot of each column is the first remaining row with a nonzero
    entry there, as over Q.  Every other row with a nonzero entry f in
    that column becomes p * row - f * top over gcd(p, f), p the pivot,
    and is then divided by its content, so each row stays a nonzero
    multiple of its row in the reduced row echelon form of [A | b] over
    Q.  Returns the pivot columns, or ``None`` when a row beyond them has
    a nonzero entry in a riding column (that column's system is
    inconsistent).
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
    if any(any(row[n:]) for row in aug[len(pivots):]):
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
