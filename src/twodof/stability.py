"""Exact continuous-time stability tests.

A polynomial is Hurwitz when every root lies in the open left half plane;
roots on the imaginary axis count as unstable.  The verdict is decided by
an exact, fraction-free Routh array over the polynomial's stored integer
coefficients -- no epsilon perturbations and no floating point:

* a premature zero in the first column (with a nonzero remainder of the
  row) already certifies instability and is classified as such;
* an all-zero row certifies root symmetry about the origin, hence
  instability, so the table stops there instead of continuing with the
  derivative of the auxiliary polynomial.

When a polynomial fails the test, the verdict names offending irreducible
factors together with the reason (``right-half-plane root`` or
``imaginary-axis root``).  The irreducible factors over the rationals are
computed in-house, over the integers, by :mod:`twodof.zfactor`: Yun's
square-free split, Cantor-Zassenhaus factoring modulo a small prime,
Hensel lifting to Mignotte's bound and recombination checked by exact
division (Zassenhaus 1969; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 14-16).  The per-factor classification uses exact Sturm
chains on the even-part compression, so the reasons are exact as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from twodof.polyalg import (
    ONE,
    Poly,
    RatFn,
    RatMat,
    S,
    _from_z,
    _horner,
    _monic_z,
    poly_divmod,
    poly_gcd,
)
from twodof.zfactor import factor_list

REASON_RHP = "right-half-plane root"
REASON_AXIS = "imaginary-axis root"
REASON_IMPROPER = "improper entry"


class StabilityVerdict:
    """Outcome of an exact stability test."""

    __slots__ = ("stable", "offending_factors")

    def __init__(self, stable: bool, offending_factors: tuple[tuple[Poly, str], ...] = ()):
        self.stable, self.offending_factors = stable, offending_factors

    def __eq__(self, other) -> bool:
        if other.__class__ is not StabilityVerdict:
            return NotImplemented
        return self.stable == other.stable and self.offending_factors == other.offending_factors

    def __hash__(self) -> int:
        return hash((self.stable, self.offending_factors))

    def __bool__(self) -> bool:
        return self.stable

    def describe(self) -> str:
        if self.stable:
            return "stable"
        if not self.offending_factors:
            return "unstable"
        parts = [
            reason if reason == REASON_IMPROPER else f"{factor} ({reason})"
            for factor, reason in self.offending_factors
        ]
        return "unstable; offending factors: " + ", ".join(parts)

    def merged(self, other: "StabilityVerdict") -> "StabilityVerdict":
        extra = tuple(
            item for item in other.offending_factors
            if item not in self.offending_factors
        )
        return StabilityVerdict(
            self.stable and other.stable, self.offending_factors + extra
        )


# ---------------------------------------------------------------------------
# Routh array
# ---------------------------------------------------------------------------


def _routh_is_hurwitz(p: Poly) -> bool:
    """Exact Routh test over Z.  Constants are vacuously Hurwitz.

    The rows are built from the stored integer coefficients, fraction-free:
    the next row is pivot * (row above, shifted) - (first entry above) *
    (this row, shifted), divided by its positive content.  Scaling a row by
    a positive number changes no sign in the first column, and the test
    stops at the first pivot that is not positive, so every pivot a row is
    built with is positive.
    """
    if p.is_zero():
        raise ValueError("stability of the zero polynomial is undefined")
    z = p._z
    n = len(z) - 1
    if n == 0:
        return True
    c = z[::-1] if z[-1] > 0 else [-x for x in reversed(z)]  # descending, c[0] > 0
    row_prev, row_cur = c[0::2], c[1::2]
    while row_cur:
        # An all-zero row (roots symmetric about the origin) or a zero or
        # negative pivot: not Hurwitz.
        pivot = row_cur[0]
        if pivot <= 0:
            return False
        top = row_prev[0]
        nxt = [
            pivot * (row_prev[i + 1] if i + 1 < len(row_prev) else 0)
            - top * (row_cur[i + 1] if i + 1 < len(row_cur) else 0)
            for i in range(len(row_prev) - 1)
        ]
        g = math.gcd(*nxt)
        if g > 1:
            nxt = [x // g for x in nxt]
        row_prev, row_cur = row_cur, nxt
    return True


# ---------------------------------------------------------------------------
# Sturm chains (used to classify factors, never to decide the verdict)
# ---------------------------------------------------------------------------


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append(-rem)
    chain.pop()
    return chain


def _sign_at(p: Poly, point) -> int:
    if p.is_zero():
        return 0
    lead = 1 if p._z[-1] > 0 else -1
    if point == -math.inf:
        return lead * (1 if p.degree() % 2 == 0 else -1)
    if point == math.inf:
        return lead
    if not isinstance(point, (int, Fraction)):
        point = Fraction(point)
    # the sign of p(u / v) is that of v**deg(p) * p(u / v), for v > 0
    v = _horner(p._z, point.numerator, point.denominator)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _sign_variations(chain: list[Poly], point) -> int:
    signs = [s for s in (_sign_at(q, point) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Poly, lo=-math.inf, hi=math.inf) -> int:
    """Number of distinct real roots of ``p`` in (lo, hi], by Sturm's theorem."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    if p.degree() == 0:
        return 0
    square_free = poly_divmod(p, poly_gcd(p, p.derivative()))[0]
    chain = _sturm_chain(square_free)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


# ---------------------------------------------------------------------------
# factor classification
# ---------------------------------------------------------------------------


def irreducible_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors over Q with multiplicities, ordered by
    degree, then multiplicity, then the coefficients of the primitive
    integer factor from the leading one down (sympy's ``factor_list``
    order).  A constant has none."""
    return [(_monic_z(g), mult) for g, mult in factor_list(p._z)]


def _even_compression(q: Poly) -> Poly:
    """For q(s) = w(s^2), return w(x)."""
    if any(q._z[1::2]):
        raise ValueError("polynomial is not even")
    return _from_z(q._z[::2], q._d)  # the same nonzero integers: still lowest terms


def _classify_irreducible(q: Poly) -> tuple[bool, bool]:
    """(has_axis_root, has_rhp_root) for a monic irreducible q, exactly.

    An irreducible polynomial with a purely imaginary root is symmetric
    under s -> -s (the minimal polynomial of j*w contains -j*w and hence
    all sign-flipped roots), so the asymmetric case never touches the
    axis and a failed Routh test alone certifies a right-half-plane root.
    For the symmetric case, roots come in +/- pairs classified through
    the even compression w(x) = q(sqrt(x)): negative real roots of w are
    axis pairs, positive real roots give one right-half-plane root each,
    and complex roots of w give quadruples with two right-half-plane
    members.
    """
    if q.degree() == 0:
        return False, False
    if q == S:
        return True, False
    reflected = q.reflect()
    symmetric = reflected == q or reflected == -q
    if not symmetric:
        return False, not _routh_is_hurwitz(q)
    body = poly_divmod(q, S)[0] if q._z[0] == 0 else q
    # An irreducible symmetric polynomial other than s itself is even.
    w = _even_compression(body)
    neg = count_real_roots(w, -math.inf, 0)
    pos = count_real_roots(w, 0, math.inf)
    complex_count = (w.degree() or 0) - neg - pos
    return neg > 0, pos > 0 or complex_count > 0


def is_hurwitz(p: Poly) -> StabilityVerdict:
    """Exact Hurwitz verdict with offending factors when unstable."""
    if p.is_zero():
        raise ValueError("stability of the zero polynomial is undefined")
    if _routh_is_hurwitz(p):
        return StabilityVerdict(True)
    offending: list[tuple[Poly, str]] = []
    for q, _mult in irreducible_factors(p):
        if q.degree() == 0 or _routh_is_hurwitz(q):
            continue
        axis, rhp = _classify_irreducible(q)
        if rhp:
            offending.append((q, REASON_RHP))
        if axis:
            offending.append((q, REASON_AXIS))
    return StabilityVerdict(False, tuple(offending))


def is_stable(r: RatFn) -> StabilityVerdict:
    """Stability of a rational function: its reduced denominator is Hurwitz."""
    return is_hurwitz(r.den)


def matrix_is_stable(a: RatMat) -> StabilityVerdict:
    """Entrywise lift: stable iff every entry is stable; factors are pooled."""
    offending: list[tuple[Poly, str]] = []
    stable = True
    for row in a.rows:
        for e in row:
            v = is_stable(e)
            if not v.stable:
                stable = False
                for item in v.offending_factors:
                    if item not in offending:
                        offending.append(item)
    return StabilityVerdict(stable, tuple(offending))


def rh_inf_verdict(a: RatMat) -> StabilityVerdict:
    """Verdict on membership in proper-stable: pooled pole factors, plus an
    ``improper entry`` marker when some entry has negative relative degree."""
    verdict = matrix_is_stable(a)
    if not a.is_proper():
        verdict = verdict.merged(StabilityVerdict(False, ((ONE, REASON_IMPROPER),)))
    return verdict


@lru_cache(maxsize=256)
def hurwitz_shift_polynomial(shift: Fraction | int, power: int) -> Poly:
    """(s + shift)^power, the canonical stable denominator used for scaling,
    built once per (shift, power)."""
    shift = Fraction(shift)
    if shift <= 0:
        raise ValueError("shift must be positive for a Hurwitz scaling polynomial")
    return (S + shift) ** power
