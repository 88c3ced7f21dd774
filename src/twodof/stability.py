"""Exact continuous-time stability tests.

A polynomial is Hurwitz when every root lies in the open left half plane;
roots on the imaginary axis count as unstable.  The verdict is decided by
an exact Routh array over ``Fraction`` coefficients -- no epsilon
perturbations and no floating point:

* a premature zero in the first column (with a nonzero remainder of the
  row) already certifies instability and is classified as such;
* an all-zero row is replaced by the derivative of the auxiliary
  polynomial built from the row above; its very occurrence certifies root
  symmetry about the origin, hence instability.

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
from dataclasses import dataclass
from fractions import Fraction

from twodof.polyalg import (
    ONE,
    Poly,
    RatFn,
    RatMat,
    S,
    ZERO,
    _from_z,
    _over_z,
    poly_divmod,
    poly_gcd,
)
from twodof.zfactor import factor_list

REASON_RHP = "right-half-plane root"
REASON_AXIS = "imaginary-axis root"
REASON_IMPROPER = "improper entry"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of an exact stability test."""

    stable: bool
    offending_factors: tuple[tuple[Poly, str], ...] = ()

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
    """Exact Routh test.  Constants are vacuously Hurwitz."""
    if p.is_zero():
        raise ValueError("stability of the zero polynomial is undefined")
    n = p.degree()
    if n == 0:
        return True
    c = list(reversed(p.monic().coeffs))  # descending: c[0] = 1
    row_prev = [c[i] for i in range(0, n + 1, 2)]
    row_cur = [c[i] for i in range(1, n + 1, 2)]
    first_column = [row_prev[0]]
    deg = n  # degree associated with row_prev
    while row_cur:
        if all(e == 0 for e in row_cur):
            # Auxiliary polynomial A(s) = sum row_prev[i] * s^(deg-2i); roots of
            # A come in pairs symmetric about the origin, so p is not Hurwitz.
            return False
        if row_cur[0] == 0:
            # Zero pivot with a nonzero row: not Hurwitz.
            return False
        first_column.append(row_cur[0])
        width = max(len(row_prev) - 1, 0)
        nxt = []
        for i in range(width):
            a = row_prev[i + 1] if i + 1 < len(row_prev) else Fraction(0)
            b = row_cur[i + 1] if i + 1 < len(row_cur) else Fraction(0)
            nxt.append((row_cur[0] * a - row_prev[0] * b) / row_cur[0])
        row_prev, row_cur = row_cur, nxt
        deg -= 1
    return all(e > 0 for e in first_column)


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
    if point == -math.inf:
        lc = p.leading
        return (1 if lc > 0 else -1) * (1 if p.degree() % 2 == 0 else -1)
    if point == math.inf:
        return 1 if p.leading > 0 else -1
    v = p(Fraction(point))
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
    return [(_from_z(g, g[-1]), mult) for g, mult in factor_list(_over_z(p)[0])]


def _even_compression(q: Poly) -> Poly:
    """For q(s) = w(s^2), return w(x)."""
    if any(c != 0 for k, c in enumerate(q.coeffs) if k % 2 == 1):
        raise ValueError("polynomial is not even")
    return Poly(tuple(q.coeffs[::2]))


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
    body = poly_divmod(q, S)[0] if q.coeff(0) == 0 else q
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


def matrix_is_rh_inf(a: RatMat) -> bool:
    return a.is_proper() and matrix_is_stable(a).stable


def rh_inf_verdict(a: RatMat) -> StabilityVerdict:
    """Verdict on membership in proper-stable: pooled pole factors, plus an
    ``improper entry`` marker when some entry has negative relative degree."""
    verdict = matrix_is_stable(a)
    if not a.is_proper():
        verdict = verdict.merged(StabilityVerdict(False, ((ONE, REASON_IMPROPER),)))
    return verdict


def hurwitz_shift_polynomial(shift: Fraction | int, power: int) -> Poly:
    """(s + shift)^power, the canonical stable denominator used for scaling."""
    shift = Fraction(shift)
    if shift <= 0:
        raise ValueError("shift must be positive for a Hurwitz scaling polynomial")
    return (S + shift) ** power
