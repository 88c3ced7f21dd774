"""Stabilizing feedback synthesis from coprime fractions.

The feedback convention throughout is positive: the loop input is
u = Cy*y + Cr*r, so a compensator stabilizes P when the four maps

    (I - Cy*P)**-1         (I - Cy*P)**-1 * Cy
    P*(I - Cy*P)**-1       P*(I - Cy*P)**-1 * Cy

are all proper with no closed right-half-plane poles.  The Youla controller
is -adj(L)*R / det L for the polynomial numerators [L, R] of
[v - K*nl', u + K*dl'].  Its maps, affine in K, are the blocks of one
product [d'; n'] @ [v - K*nl', -(u + K*dl')] over one denominator den*psi
(``_youla_feedback``): stability is decided on den*psi, the maps formed
when read.  Two identities certify it: the controller solves
(v - K*nl') @ Cy = -(u + K*dl'), and
(v - K*nl') @ d' + (u + K*dl') @ n' = I.  Every other pair (P, Cy) (a
supplied feedback map, the unity and direct loops, the (L, X) sweep and
``verify.closed_loop``, which checks a design apart from the design) has
its maps formed by ``gang_of_four``, over the one polynomial denominator
det M, M = dc*D - Nc*N for P = N*D**-1 and Cy = Nc/dc: the
coprime-factor form of H(P, C) (Vidyasagar, Control System Synthesis,
1985; Kailath, Linear Systems, 1980), spelled out in ``gang_of_four``,
whose ``verdict`` is the pair's internal stability.  All stabilizing
feedback compensators are swept out by a single free parameter K ranging
over the proper stable rationals.  The sweep is anchored at a Bezout
witness of the proper-stable fraction data: a witness over polynomials
alone produces improper loop maps (the central candidate -x1**-1 @ x2
has (I - Cy*P)**-1 = d@x1, a polynomial), so the parametrization is
evaluated on the (s + shift)-scaled fractions where the witness (u, v)
satisfies u@n' + v@d' = I inside the proper-stable ring.  Those fractions,
the witness and the left pair (dl', nl') are one ``factor.StableMFD``,
which ``stable_mfd`` builds (refusing an improper plant), and the designs
and ``twodof stabilize`` read the Youla data from it without factoring the
plant again.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .factor import (
    RightMFD,
    StableMFD,
    _hermite_certificate,
    _least_degree_witness,
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
    _over,
    _over_lcd,
    _polymat_det_adj,
    hstack,
    poly_lcm,
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


class TwoDofConfig:
    """u = cy@y + cr@r: feedback map cy (driven by y) and reference map cr
    (driven by r)."""

    __slots__ = ("cy", "cr")

    def __init__(self, cy: RatMat, cr: RatMat) -> None:
        self.cy, self.cr = cy, cr


def solve_bezout(mfd: RightMFD) -> tuple[PolyMat, PolyMat]:
    """Polynomial Bezout pair (x1, x2) with x1 @ d + x2 @ n = I for a right
    coprime fraction.

    Each row is the least-degree solution, read off the fraction's
    certificate w and kernel by division (``factor._least_degree_witness``)
    with at most one elimination; a fraction without them is certified by
    a Hermite elimination first.
    """
    n, d = mfd.n, mfd.d
    source = mfd if mfd.kernel is not None else _hermite_certificate(n, d)
    if source is None:
        raise ValueError("fraction is not right coprime; no Bezout solution exists")
    m = d.shape[0]
    degs = [deg if deg is not None else 0 for deg in d.column_degrees()]
    limit = sum(degs) + max(degs, default=0) + 2
    rows = []
    for i in range(m):
        rhs = [Poly.constant(1 if j == i else 0) for j in range(m)]
        solved = _least_degree_witness(source, rhs, None, limit)
        if solved is None:
            raise ArithmeticError("Bezout solve exceeded the degree budget")
        rows.append(solved)
    x2, x1 = (PolyMat([row[block] for row in rows]) for block in (0, 1))
    if x1 @ d + x2 @ n != PolyMat.identity(m):
        raise ArithmeticError("Bezout pair fails x1 @ d + x2 @ n = I")
    return x1, x2


# Kept for the plant-level API: youla_controller(plant, k) is called
# repeatedly on the same plant, and this saves refactoring it each time.
@lru_cache(maxsize=64)
def _rh_data_cached(p: RatMat, shift: Fraction) -> StableMFD:
    smfd = stable_mfd(right_coprime_mfd(p), shift)
    smfd.dl_prime  # a parameter k reads the left pair: form it now, once per plant
    return smfd


def _youla_feedback(smfd: StableMFD, k: RatMat | None = None) -> tuple[RatMat, _YoulaLoop]:
    """cy = -(v - k@nl')**-1 @ (u + k@dl') from the witness (u, v) and the
    left pair of ``smfd``, with the loop of cy and the plant ``smfd`` is a
    fraction of (``_YoulaLoop``), whose verdict says cy is internally
    stabilizing.  k = None is the central choice k = 0 and needs no left
    pair; any other k must be proper and stable.

    With lhs = v - k@nl' and rhs = u + k@dl', lhs@d' + rhs@n' = I, so
    I - cy@p = lhs**-1 @ d'**-1 and the maps are affine in k:

        (I - cy@p)**-1 = d'@lhs        (I - cy@p)**-1 @ cy = -d'@rhs
        p@(I - cy@p)**-1 = n'@lhs      p@(I - cy@p)**-1 @ cy = -n'@rhs

    They are the blocks of one polynomial product [d^; n^] @ [l | -r]
    over den*psi, where [l | r] = den*[lhs | rhs] for a common
    denominator den of [v | u] and k @ [-nl' | dl'], and [d^; n^] =
    psi*[d'; n'] (``StableMFD.stacked``).  The loop keeps these factors,
    decides its verdict on den*psi and forms the maps only when read.
    An unstable verdict, or a failed one of the two polynomial identities
    that certify the loop, raises ArithmeticError.  They are l @ C ==
    -det(l)*r for the numerator C = -adj(l) @ r of cy, so lhs@cy = -rhs;
    and [l | r] @ [d^; n^] == den*psi*I, the Bezout identity that
    ``stable_mfd`` has already checked when k = None.  For k = None,
    (det l, adj l) is the analysis' ``witness_inverse``, from which the
    designs also form their reference map cr = lhs**-1 @ x'.
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
        det, adj = smfd.witness_inverse if k is None else _polymat_det_adj(l)
    except SingularMatrixError:
        raise InadmissibleParameter(
            "parameter makes v - k@nl' singular; no compensator exists"
        ) from None
    c = -(adj @ r)
    if l @ c != r.scale(-det):
        raise ArithmeticError("compensator fails (v - k@nl') @ cy = -(u + k@dl')")
    cy = _over(c, det)
    if not cy.is_proper():
        raise InadmissibleParameter(
            "compensator is improper: v - k@nl' is singular at infinity"
        )
    psi, dn = smfd.stacked
    if k is not None and lr @ dn != PolyMat.identity(m).scale(den * psi):
        raise ArithmeticError("parametrized loop fails (v - k@nl')@d' + (u + k@dl')@n' = I")
    loop = _YoulaLoop(dn, hstack(l, -r), den * psi)
    if not loop.verdict:
        raise ArithmeticError(
            "parametrized compensator failed validation: " + loop.verdict.describe()
        )
    return cy, loop


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
        merged = StabilityVerdict(True)
        for verdict in self.verdicts:
            merged = merged.merged(verdict)
        return merged


class _YoulaLoop:
    """A Youla loop's four maps [d^; n^] @ [l | -r] / q, q = den*psi, kept
    as these factors; the maps (``LoopMaps``) are formed on first read.
    The verdict is stable when q is Hurwitz and the factors' largest entry
    degrees add up to at most deg q (each reduced map denominator divides
    the monic q, and cancellation keeps relative degree), else the maps'."""

    def __init__(self, stacked: PolyMat, row: PolyMat, q: Poly):
        self.stacked, self.row, self.q = stacked, row, q

    @cached_property
    def maps(self) -> LoopMaps:
        m = self.row.shape[0]
        maps = _over(self.stacked @ self.row, self.q).rows
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
    the result are read.  This serves any pair (p, cy); a Youla design
    forms its own loop with its controller (``_youla_feedback``).

    The maps are formed over polynomials, in the coprime-factor form of
    H(P, C) (Vidyasagar, Control System Synthesis, 1985; Kailath, Linear
    Systems, 1980): with p = n @ d**-1, d the diagonal of the column lcds,
    cy = nc / dc, dc the lcd of cy, and m = dc*d - nc@n,

        (I - cy@p)**-1 = dc * d @ adj m / det m
        (I - cy@p)**-1 @ cy = d @ adj m @ nc / det m
        p @ (I - cy@p)**-1 = dc * n @ adj m / det m
        p @ (I - cy@p)**-1 @ cy = n @ adj m @ nc / det m

    since I - cy@p = m @ d**-1 / dc.  The loop is ill posed exactly when
    det m = 0.
    """
    if cy.shape != (p.shape[1], p.shape[0]):
        raise ShapeError(
            f"feedback map must be {p.shape[1]}x{p.shape[0]}, got {cy.shape}"
        )
    d, n = _column_fraction(p)
    dc, nc = _over_lcd(cy)
    try:
        det, adj = _polymat_det_adj(PolyMat.diag([dc * dj for dj in d]) - nc @ n)
    except SingularMatrixError:
        raise IllPosedLoop("I - cy@p is singular; the loop is ill posed") from None
    d_adj = PolyMat(tuple(tuple(dj * e for e in row) for dj, row in zip(d, adj.rows)))
    n_adj = n @ adj
    return LoopMaps(
        _over(d_adj.scale(dc), det),
        _over(d_adj @ nc, det),
        _over(n_adj.scale(dc), det),
        _over(n_adj @ nc, det),
    )


def all_controllers_from_LX(
    mfd: RightMFD, l: RatMat, x: RatMat
) -> tuple[TwoDofConfig, StabilityVerdict]:
    """Two-parameter sweep of every stabilizing pair: cy = f**-1 @ l and
    cr = f**-1 @ x with f = (I + l@n) @ d**-1, with the loop's
    internal-stability verdict (``gang_of_four``).

    The closed loop realizes y/r = n@x and u/r = d@x.  Admissibility:
    l and x stable, d@l and d@x proper, f stable, and the loop
    (I + d@l@p)**-1 well posed and proper.  Each violated condition is
    reported separately.
    """
    p = mfd.plant()
    n_r = mfd.n.to_ratmat()
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
    q = d_r @ l
    if not q.is_proper():
        raise InadmissibleParameter("d@l is improper")
    if not (d_r @ x).is_proper():
        raise InadmissibleParameter("d@x is improper")
    f = (RatMat.identity(m) + l @ n_r) @ d_r.inv()
    if not matrix_is_stable(f):
        raise InadmissibleParameter("(I + l@n) @ d**-1 has unstable poles")
    loop = RatMat.identity(m) + q @ p
    try:
        loop_inv = loop.inv()
    except SingularMatrixError:
        raise IllPosedLoop("I + d@l@p is singular; the loop is ill posed") from None
    if not loop_inv.is_proper():
        raise InadmissibleParameter("(I + d@l@p)**-1 is improper")
    cy = loop_inv @ q
    cr = loop_inv @ d_r @ x
    return TwoDofConfig(cy=cy, cr=cr), gang_of_four(p, cy).verdict
