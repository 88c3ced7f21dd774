"""Stabilizing feedback synthesis from coprime fractions.

The feedback convention throughout is positive: the loop input is
u = Cy*y + Cr*r, so a compensator stabilizes P when the four maps

    (I - Cy*P)**-1         (I - Cy*P)**-1 * Cy
    P*(I - Cy*P)**-1       P*(I - Cy*P)**-1 * Cy

are all proper with no closed right-half-plane poles.  The Youla controller
is -adj(L)*R / det L for the polynomial numerators [L, R] of
[v - K*nl', u + K*dl'].  Its maps, affine in K, are the blocks of one
product [d'; n'] @ [v - K*nl', -(u + K*dl')] over one denominator den*psi
(``_youla_feedback``), on which stability is decided.  Two identities
certify it, each decided at one point with no product formed
(``polyalg._is_product``): the controller solves (v - K*nl') @ Cy =
-(u + K*dl'), and (v - K*nl') @ d' + (u + K*dl') @ n' = I.  Every other
loop is the same record (``_Loop``) in the coprime-factor form
[D; N] @ adj M @ [dc*I | Nc] / det M of H(P, C), M = dc*D - Nc*N for
P = N*D**-1 and Cy = Nc/dc (Vidyasagar, Control System Synthesis, 1985;
Kailath, Linear Systems, 1980), less a factor every map cancels, read off
integers at one point (``_fraction_loop``, ``polyalg._loop_over``) from
the fractions a design holds or those ``gang_of_four`` reads off a pair of
rational matrices.  Every loop's maps are read off one point when first
read, with no product formed (``polyalg._over_product``).  All
stabilizing compensators are swept out by one free parameter K over the
proper stable rationals.  The sweep is anchored at a Bezout witness of
the proper-stable fraction data: a witness over polynomials alone
produces improper loop maps (the central candidate -x1**-1 @ x2 has
(I - Cy*P)**-1 = d@x1, a polynomial), so the parametrization is
evaluated on the (s + shift)-scaled fractions where the witness (u, v)
satisfies u@n' + v@d' = I inside the proper-stable ring.  Those fractions,
the witness and the left pair (dl', nl') are one ``factor.StableMFD``,
which ``stable_mfd`` builds (refusing an improper plant), and the designs
and ``twodof stabilize`` read the Youla data from it without factoring the
plant again.  They take the central K = 0, or, where K = 0 is refused,
K = -u@dl'**-1 on a stable plant and the first admissible constant of a
bounded scan on an unstable one (``_stabilizing_feedbacks``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import islice, product

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
    _column_fraction,
    _is_product,
    _loop_over,
    _over,
    _over_lcd,
    _over_product,
    _polymat_det_adj,
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
        dk, kn = _over_lcd(k)
        psi_l, w = smfd.left_row
        dkw = dk * psi_l
        lcm = poly_lcm(den, dkw)
        lr = lr.scale(lcm // den) + (kn @ w).scale(lcm // dkw)
        den = lcm
    l = PolyMat(tuple(row[:m] for row in lr.rows))
    r = PolyMat(tuple(row[m:] for row in lr.rows))
    try:
        det, adj = _polymat_det_adj(l)
    except SingularMatrixError:
        raise InadmissibleParameter(
            "parameter makes v - k@nl' singular; no compensator exists"
        ) from None
    c = -(adj @ r)
    if not _is_product(l, c, -det, r):
        raise ArithmeticError("compensator fails (v - k@nl') @ cy = -(u + k@dl')")
    cy = _over(c, det)
    if not cy.is_proper():
        raise InadmissibleParameter(
            "compensator is improper: v - k@nl' is singular at infinity"
        )
    psi, dn = smfd.stacked
    if not _is_product(lr, dn, den * psi, PolyMat.identity(m)):
        raise ArithmeticError("parametrized loop fails (v - k@nl')@d' + (u + k@dl')@n' = I")
    loop = _Loop(dn, hstack(l, -r), den * psi)
    if not loop.verdict:
        raise ArithmeticError(
            "parametrized compensator failed validation: " + loop.verdict.describe()
        )
    if xprime is None:
        return cy, None, loop
    x_den, x_num = _over_lcd(xprime)
    cr = _over((adj @ x_num).scale(den), det * x_den)
    if not cr.is_proper():
        raise InadmissibleParameter("resulting reference map is improper for this feedback map")
    return cy, cr, loop


# the entries of the constant parameters an unstable plant refused at k = 0
# tries, and the most it tries: the 624 nonzero 2x2 constants
_ENTRIES, _SCAN_LIMIT = (0, 1, -1, 2, -2), 5**4 - 1


def _candidates(smfd: StableMFD) -> Iterator[RatMat | None]:
    """The parameters k the designs try, in order: the central k = 0
    (None); then k = -u @ dl'**-1 on a stable plant, and on an unstable one
    the scan: the first ``_SCAN_LIMIT`` nonzero constants with entries in
    ``_ENTRIES``, row-major in product order (k = 1, -1, 2, -2 for a scalar
    plant)."""
    yield None
    if _routh_is_hurwitz(polymat_det(smfd.source.d)):
        yield -(smfd.u @ smfd.dl_prime.inv())
    else:
        outputs, m = smfd.nprime.shape
        for c in islice(product(_ENTRIES, repeat=m * outputs), 1, _SCAN_LIMIT + 1):
            yield RatMat(tuple(c[i : i + outputs] for i in range(0, m * outputs, outputs)))


def _stabilizing_feedbacks(
    smfd: StableMFD, xprime: RatMat | None = None
) -> Iterator[tuple[RatMat | None, RatMat, RatMat | None, _Loop]]:
    """(k, cy, cr, loop) of ``_youla_feedback`` at each k of ``_candidates``
    it admits, in order; a plant that admits none is refused with k = 0's
    reason.  k = -u @ dl'**-1 is proper and stable, as dl'**-1 is stable
    exactly when the plant is; it gives u + k@dl' = 0, so cy = 0, and
    v - k@nl' = v + u@p = d'**-1, nonsingular as (v + u@p) @ d' = I.  A
    scanned k gives cy != 0, as cy = 0 does not stabilize an unstable
    plant.  Where k = 0 gives an improper cy, v(oo) is singular, and as
    [v; -nl'](oo) has full column rank some constant k makes v(oo) -
    k@nl'(oo) nonsingular; for a scalar plant, v(oo) = 0, nl'(oo) != 0 and
    k = 1 is admitted."""
    refusal, admitted = None, False
    for k in _candidates(smfd):
        try:
            found = k, *_youla_feedback(smfd, k, xprime)
        except InadmissibleParameter as exc:
            refusal = refusal or exc
            continue
        admitted = True
        yield found
    if not admitted:
        raise refusal


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

    Every such compensator internally stabilizes the plant, and every
    internally stabilizing compensator arises this way.  The formula is
    evaluated on the proper-stable fraction data of the plant (witness
    (u, v) and the row-scaled left pair); each produced compensator is
    checked rather than trusted: an improper one raises
    InadmissibleParameter, and its loop must pass two polynomial
    identities (it solves (v - k@nl') @ cy = -(u + k@dl'), and
    (v - k@nl') @ d' + (u + k@dl') @ n' = I) and be internally stable,
    decided on the one denominator of its four maps, which are not formed,
    else ArithmeticError is raised.
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
