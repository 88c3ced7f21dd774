"""Stabilizing feedback synthesis from coprime fractions.

The feedback convention throughout is positive: the loop input is
u = Cy*y + Cr*r, so a compensator stabilizes P when the four maps

    (I - Cy*P)**-1         (I - Cy*P)**-1 * Cy
    P*(I - Cy*P)**-1       P*(I - Cy*P)**-1 * Cy

are all proper with no closed right-half-plane poles.  All of them are
swept out by one free parameter K over the proper stable rationals
(Youla, Jabr & Bongiorno, IEEE TAC 1976; Vidyasagar, Control System
Synthesis, 1985) as -(v - K*nl')**-1 @ (u + K*dl'), from the Bezout
witness (u, v), u@n' + v@d' = I, and the left pair (dl', nl') of the
(s + shift)-scaled proper-stable fractions of one ``factor.StableMFD``; a
witness over polynomials alone gives improper maps (the central candidate
-x1**-1 @ x2 has (I - Cy*P)**-1 = d@x1, a polynomial).  A Youla loop's
maps, affine in K, are the blocks of one product over one denominator
(``_youla_feedback``), certified by two identities decided at one point
(``polyalg._is_product``).  Every other loop is the same record
(``_Loop``) in the coprime-factor form [D; N] @ adj M @ [dc*I | Nc] / det M
of H(P, C), M = dc*D - Nc*N for P = N*D**-1 and Cy = Nc/dc (Kailath,
Linear Systems, 1980), read off integers at one point (``_fraction_loop``).
The designs take K = 0, else K = -u@dl'**-1 on a stable plant and on an
unstable one a constant K read off one elimination (``_candidates``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .factor import (
    RightMFD,
    StableMFD,
    _bezout_rows,
    _certified,
    right_coprime_mfd,
    stable_mfd,
)
from .polyalg import (
    Poly,
    PolyMat,
    RatMat,
    ShapeError,
    SingularMatrixError,
    _cleared,
    _column_fraction,
    _is_product,
    _loop_over,
    _over,
    _over_lcd,
    _over_product,
    _polymat_det_adj,
    _rref_z,
    hstack,
    poly_lcm,
    polymat_det,
    vstack,
)
from .stability import (
    StabilityVerdict,
    _routh_is_hurwitz,
    matrix_is_stable,
    rh_inf_verdict,
)

__all__ = [
    "LoopMaps",
    "TwoDofConfig",
    "InadmissibleParameter",
    "IllPosedLoop",
    "solve_bezout",
    "youla_controller",
    "gang_of_four",
    "all_controllers_from_LX",
]


class InadmissibleParameter(ValueError):
    """A free design parameter violates the conditions it must satisfy."""


class IllPosedLoop(ArithmeticError):
    """The feedback interconnection has no well-defined closed-loop maps."""


# u = cy@y + cr@r: feedback map cy (driven by y) and reference map cr (driven by r)
TwoDofConfig = namedtuple("TwoDofConfig", "cy cr")


def solve_bezout(mfd: RightMFD) -> tuple[PolyMat, PolyMat]:
    """Polynomial Bezout pair (x1, x2) with x1 @ d + x2 @ n = I for a right
    coprime fraction.

    Each row is the least-degree solution, read off the fraction's
    certificate w and kernel by division (``factor._bezout_rows``), with at
    most one elimination per degree; a fraction without them is certified
    as it stands (``factor._certified``) first.
    """
    source = mfd if mfd.kernel is not None else _certified(mfd.n, mfd.d)
    degs = [deg or 0 for deg in mfd.d.column_degrees()]
    x2, x1, _ = _bezout_rows(source, PolyMat.identity(len(degs)).rows, None, sum(degs) + max(degs) + 2)
    return PolyMat(x1), PolyMat(x2)


# Kept for the plant-level API: youla_controller(plant, k) is called
# repeatedly on the same plant, and this saves refactoring it each time.
@lru_cache(maxsize=64)
def _rh_data_cached(p: RatMat, shift: Fraction) -> StableMFD:
    smfd = stable_mfd(right_coprime_mfd(p), shift)
    smfd.dl_prime  # a parameter k reads the left pair: form it now, once per plant
    return smfd


# gang_of_four is called repeatedly on the same plant too, as in a Youla
# sweep: its column fraction is read off once per plant
_plant_fraction = lru_cache(maxsize=64)(_column_fraction)


def _youla_feedback(
    smfd: StableMFD, k: RatMat | None = None, xprime: RatMat | None = None
) -> tuple[RatMat, RatMat | None, _Loop]:
    """(cy, cr, loop): cy = -(v - k@nl')**-1 @ (u + k@dl') from the witness
    (u, v) and the left pair of ``smfd``, and the loop of cy and the plant
    (``_Loop``), whose verdict says cy is internally stabilizing.  k = None
    is the central choice k = 0 and needs no left pair; any other k must
    be proper and stable.  A design passes its ``xprime`` for its reference
    map cr = (v - k@nl')**-1 @ x'; cr is None without one.

    With lhs = v - k@nl' and rhs = u + k@dl', lhs@d' + rhs@n' = I, so
    I - cy@p = lhs**-1 @ d'**-1 and the maps are affine in k:

        (I - cy@p)**-1 = d'@lhs        (I - cy@p)**-1 @ cy = -d'@rhs
        p@(I - cy@p)**-1 = n'@lhs      p@(I - cy@p)**-1 @ cy = -n'@rhs

    They are the blocks of one polynomial product [d^; n^] @ [l | -r]
    over den*psi, where [l | r] = den*[lhs | rhs] for a common
    denominator den of [v | u] and k @ [-nl' | dl'], and [d^; n^] =
    psi*[d'; n'] (``StableMFD.stacked``).  The loop keeps these factors,
    decides its verdict on den*psi and forms the maps only when read; cy
    and cr come from the (det l, adj l) taken for every k, as lhs**-1 =
    den * adj l / det l.  An unstable verdict, or a failed one of the two
    polynomial identities that certify the loop, raises ArithmeticError.
    They are l @ C == -det(l)*r for the numerator C = -adj(l) @ r of cy,
    so lhs@cy = -rhs; and [l | r] @ [d^; n^] == den*psi*I, the Bezout
    identity, checked for every k: a copy of ``smfd`` may hold any witness.
    """
    outputs, m = smfd.nprime.shape
    den, lr = smfd.witness_row
    if k is not None:
        if k.shape != (m, outputs):
            raise ShapeError(f"parameter must be {m}x{outputs}, got {k.shape}")
        if not rh_inf_verdict(k):
            raise InadmissibleParameter("parameter must be proper and stable")
        # [v | u] + k @ [-nl' | dl'] over the lcm of the two denominators
        (dk, kn), (psi_l, w) = _over_lcd(k), smfd.left_row
        dkw = dk * psi_l
        lcm = poly_lcm(den, dkw)
        lr = lr.scale(lcm // den) + (kn @ w).scale(lcm // dkw)
        den = lcm
    l, r = (PolyMat(tuple(row[cols] for row in lr.rows)) for cols in (slice(m), slice(m, None)))
    try:
        det, adj = _polymat_det_adj(l)
    except SingularMatrixError:
        raise InadmissibleParameter("this parameter k makes v - k@nl' singular") from None
    c = -(adj @ r)
    if not _is_product(l, c, -det, r):
        raise ArithmeticError("compensator fails (v - k@nl') @ cy = -(u + k@dl')")
    cy = _over(c, det)
    if not cy.is_proper():
        raise InadmissibleParameter("compensator is improper: v - k@nl' is singular at infinity")
    psi, dn = smfd.stacked
    if not _is_product(lr, dn, den * psi, PolyMat.identity(m)):
        raise ArithmeticError("parametrized loop fails (v - k@nl')@d' + (u + k@dl')@n' = I")
    loop = _Loop(dn, hstack(l, -r), den * psi)
    if not loop.verdict:
        raise ArithmeticError("parametrized compensator failed validation: " + loop.verdict.describe())
    if xprime is None:
        return cy, None, loop
    x_den, x_num = _over_lcd(xprime)
    cr = _over((adj @ x_num).scale(den), det * x_den)
    if not cr.is_proper():
        raise InadmissibleParameter("resulting reference map is improper for this feedback map")
    return cy, cr, loop


def _completion(v: Sequence[Sequence], nl: Sequence[Sequence]) -> list[list[int]]:
    """The 0/1 matrix k with v - k@nl nonsingular, for constant v (m x m)
    and nl (p x m) with [v; nl] of rank m.  The pivot columns of one
    elimination (``_rref_z``) of the matrix whose columns are v's rows in
    order, then nl's rows last first, are a maximal independent set I of
    v's rows and rows J of nl extending v_I to a basis; k[d, j] = 1 pairs
    the other rows D of v, in order, with J.  v - k@nl has rows v_I and
    v_d - nl_j, and as each v_d lies in v_I's span, row operations take
    them to [v_I; -nl_J], which is nonsingular."""
    m, order = len(v), range(len(nl))[::-1]  # nl's rows, last first
    pivots = _rref_z(_cleared(zip(*v, *(nl[j] for j in order))), m + len(nl))
    rest = [i for i in range(m) if i not in pivots]  # D: v's rows outside I
    pairs = dict(zip(rest, [order[c - m] for c in pivots if c >= m]))
    return [[int(pairs.get(i) == j) for j in range(len(nl))] for i in range(m)]


def _candidates(smfd: StableMFD) -> Iterator[RatMat | None]:
    """The parameters k the designs try, in order: the central k = 0
    (None); then k = -u @ dl'**-1 on a stable plant, and on an unstable
    one each distinct nonzero k(t) = (1 - t)*k_oo + t*k_0, t = 0, ...,
    2m, for k_oo and k_0 the ``_completion`` of (v, nl') at infinity and
    at s = 0: as [[v, u], [-nl', dl']] is unimodular over the proper
    stable rationals, [v; -nl'] has full column rank at both (Vidyasagar
    1985, ch. 5).  The determinants of (v - k(t)@nl')(oo) and
    (v - k(t)@nl')(0) are polynomials in t of degree at most m, nonzero at
    t = 0 and at t = 1, so some k(t) gives a proper cy and a dc gain
    n'(0) @ (v - k@nl')(0) that is nonsingular wherever n'(0) is."""
    yield None
    if _routh_is_hurwitz(polymat_det(smfd.source.d)):
        yield -(smfd.u @ smfd.dl_prime.inv())
    else:
        v, nl = smfd.v, smfd.nl_prime
        k_oo = _completion(v.at_infinity(), nl.at_infinity())
        k_0 = _completion(v.eval_at(0), nl.eval_at(0))
        for t in range(2 * len(k_oo) + 1 if k_oo != k_0 else 1):  # each k(t) once
            k = [[(1 - t) * a + t * b for a, b in zip(*rows)] for rows in zip(k_oo, k_0)]
            if any(map(any, k)):
                yield RatMat(k)


def _stabilizing_feedbacks(
    smfd: StableMFD, xprime: RatMat | None = None
) -> Iterator[tuple[RatMat | None, RatMat, RatMat | None, _Loop]]:
    """(k, cy, cr, loop) of ``_youla_feedback`` at each k of ``_candidates``
    it admits, in order; running out of them raises ArithmeticError, a
    failed construction, as every plant admits one k below and static
    decoupling takes one with a nonsingular dc gain.  k = -u @ dl'**-1 is
    proper and stable, as dl'**-1 is stable exactly when the plant is; it
    gives u + k@dl' = 0, so cy = 0, and
    v - k@nl' = v + u@p = d'**-1, nonsingular as (v + u@p) @ d' = I.  Where
    k = 0 is refused on an unstable plant, v(oo) is singular and k_oo != 0
    comes next: constant, with v - k@nl' nonsingular at infinity, it gives
    a proper cy and a stable loop (Youla et al. 1976), and is admitted; a
    scalar plant has v(oo) = 0, nl'(oo) != 0 and k_oo = 1."""
    for k in _candidates(smfd):
        try:
            found = k, *_youla_feedback(smfd, k, xprime)
        except InadmissibleParameter:
            continue
        yield found
    raise ArithmeticError("the constructed parameters k ran out; the construction failed")


def _stabilizing_feedback(
    smfd: StableMFD, xprime: RatMat | None = None
) -> tuple[RatMat | None, RatMat, RatMat | None, _Loop]:
    """The first of ``_stabilizing_feedbacks``: k = None is k = 0."""
    return next(_stabilizing_feedbacks(smfd, xprime))


def youla_controller(
    plant: RatMat,
    k: RatMat | None = None,
    shift: Fraction | int = 1,
) -> RatMat:
    """Feedback compensator -(v - k@nl')**-1 @ (u + k@dl') for a proper
    plant, given as a rational matrix, and a free proper stable parameter
    k; k = None selects the central choice k = 0.

    Every such compensator with v - k@nl' nonsingular at infinity
    internally stabilizes the plant, and every internally stabilizing
    compensator arises this way.  Each is checked, not trusted
    (``_youla_feedback``): a singular v - k@nl' or an improper compensator
    raises InadmissibleParameter, and a failed identity or an unstable
    loop ArithmeticError.
    """
    return _youla_feedback(_rh_data_cached(plant, Fraction(shift)), k)[0]


class LoopMaps(namedtuple("LoopMaps", "sens sens_cy p_sens p_sens_cy")):
    """The four closed-loop maps of a feedback pair (p, cy), named in
    NAMES; unpacks and iterates as a 4-tuple.  The verdicts are computed
    on first read and then kept."""

    NAMES = (
        "(I - cy@p)**-1",
        "(I - cy@p)**-1 @ cy",
        "p @ (I - cy@p)**-1",
        "p @ (I - cy@p)**-1 @ cy",
    )

    @cached_property
    def verdicts(self) -> tuple[StabilityVerdict, ...]:
        """Whether each map is proper and stable."""
        return tuple(rh_inf_verdict(mat) for mat in self)

    @cached_property
    def verdict(self) -> StabilityVerdict:
        """Internal stability: every map proper and stable."""
        return reduce(StabilityVerdict.merged, self.verdicts, StabilityVerdict(True))


class _Loop(namedtuple("_Loop", "stacked row q")):
    """The four maps of a feedback pair, stacked @ row / q, kept as these
    polynomial factors (``_youla_feedback``, ``_fraction_loop``); the maps
    (``LoopMaps``) are read off one point on first read.  The verdict is
    stable when q is Hurwitz and the factors' largest entry degrees add up
    to at most deg q (each reduced map denominator divides the monic q, and
    cancellation keeps relative degree), else the maps'."""

    @cached_property
    def maps(self) -> LoopMaps:
        m = self.row.shape[0]
        maps = _over_product(self.stacked, self.row, self.q).rows
        halves = (slice(m), slice(m, None))
        return LoopMaps(
            *(RatMat(tuple(row[cols] for row in maps[rows])) for rows in halves for cols in halves)
        )

    @cached_property
    def verdict(self) -> StabilityVerdict:
        top = lambda mat: max(e.degree() or 0 for row in mat.rows for e in row)
        if top(self.stacked) + top(self.row) <= self.q.degree() and _routh_is_hurwitz(self.q):
            return StabilityVerdict(True)
        return self.maps.verdict


def gang_of_four(p: RatMat, cy: RatMat) -> LoopMaps:
    """The four closed-loop maps of the feedback pair (p, cy):
    (I-cy@p)**-1, (I-cy@p)**-1 @ cy, p @ (I-cy@p)**-1, and
    p @ (I-cy@p)**-1 @ cy.  No stability test runs until the verdicts of
    the result are read.  This serves any pair (p, cy) of rational
    matrices: p = n @ diag(d)**-1, d the column lcds, and cy = nc / dc, dc
    the lcd of cy, go to ``_fraction_loop``.
    """
    if cy.shape != (p.shape[1], p.shape[0]):
        raise ShapeError(
            f"feedback map must be {p.shape[1]}x{p.shape[0]}, got {cy.shape}"
        )
    return _fraction_loop(*_plant_fraction(p), *_over_lcd(cy)).maps


def _fraction_loop(d: PolyMat, n: PolyMat, dc: Poly, nc: PolyMat) -> _Loop:
    """The loop of ``gang_of_four`` for the plant n @ d**-1, any right
    fraction with d nonsingular, and the feedback map cy = nc / dc: with
    M = dc*d - nc@n, I - cy@p = M @ d**-1 / dc, so the maps are the blocks
    of [d; n] @ adj M @ [dc*I | nc] / det M, ill posed exactly when det M =
    0 (``_Loop``; ``polyalg._loop_over`` reads the factors off one point)."""
    factors = _loop_over(vstack(d, n), hstack(PolyMat.diag([dc] * d.shape[0]), nc))
    if factors is None:
        raise IllPosedLoop("I - cy@p is singular; the loop is ill posed")
    return _Loop(*factors)


def all_controllers_from_LX(
    mfd: RightMFD, l: RatMat, x: RatMat
) -> tuple[TwoDofConfig, StabilityVerdict]:
    """Two-parameter sweep of every stabilizing pair: cy = f**-1 @ l and
    cr = f**-1 @ x with f = (I + l@n) @ d**-1, with the loop's
    internal-stability verdict (``_fraction_loop`` on n @ d**-1 and cy).

    The closed loop realizes y/r = n@x and u/r = d@x.  Admissibility:
    l and x stable, d@l and d@x proper, f stable, and the loop
    (I + d@l@p)**-1 = f**-1 @ d**-1 well posed and proper, as
    I + d@l@p = d@f.  Each violated condition is reported separately.
    """
    d_r = mfd.d.to_ratmat()
    m = mfd.inputs
    if l.shape != (m, mfd.outputs):
        raise ShapeError(
            f"feedback parameter must be {m}x{mfd.outputs}, got {l.shape}"
        )
    if not matrix_is_stable(l):
        raise InadmissibleParameter("feedback parameter l has unstable poles")
    if not matrix_is_stable(x):
        raise InadmissibleParameter("reference parameter x has unstable poles")
    if not (d_r @ l).is_proper():
        raise InadmissibleParameter("d@l is improper")
    if not (d_r @ x).is_proper():
        raise InadmissibleParameter("d@x is improper")
    d_inv = d_r.inv()
    f = (RatMat.identity(m) + l @ mfd.n.to_ratmat()) @ d_inv
    if not matrix_is_stable(f):
        raise InadmissibleParameter("(I + l@n) @ d**-1 has unstable poles")
    try:
        f_inv = f.inv()
    except SingularMatrixError:
        raise IllPosedLoop("I + d@l@p is singular; the loop is ill posed") from None
    if not (f_inv @ d_inv).is_proper():
        raise InadmissibleParameter("(I + d@l@p)**-1 is improper")
    cy = f_inv @ l
    loop = _fraction_loop(mfd.d, mfd.n, *_over_lcd(cy))
    return TwoDofConfig(cy=cy, cr=f_inv @ x), loop.verdict
