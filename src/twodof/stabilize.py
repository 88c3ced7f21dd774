"""Stabilizing feedback synthesis from coprime fractions.

The feedback convention throughout is positive: the loop input is
u = Cy*y + Cr*r, so a compensator stabilizes P when the four maps

    (I - Cy*P)**-1         (I - Cy*P)**-1 * Cy
    P*(I - Cy*P)**-1       P*(I - Cy*P)**-1 * Cy

are all proper with no closed right-half-plane poles.  All stabilizing
feedback compensators are swept out by a single free parameter K ranging
over the proper stable rationals.  The sweep is anchored at a Bezout
witness of the proper-stable fraction data: a witness over polynomials
alone produces improper loop maps (the central candidate -x1**-1 @ x2
has (I - Cy*P)**-1 = d@x1, a polynomial), so the parametrization is
evaluated on the (s + shift)-scaled fractions where the witness (u, v)
satisfies u@n' + v@d' = I inside the proper-stable ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .factor import (
    LeftMFD,
    RightMFD,
    StableMFD,
    is_right_coprime,
    left_coprime_mfd,
    poly_row_diophantine,
    right_coprime_mfd,
    stable_mfd,
)
from .polyalg import (
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    ShapeError,
    SingularMatrixError,
)
from .stability import (
    StabilityVerdict,
    hurwitz_shift_polynomial,
    matrix_is_stable,
    matrix_is_rh_inf,
    rh_inf_verdict,
)

__all__ = [
    "DoublyCoprime",
    "StableCoprimeData",
    "TwoDofController",
    "InadmissibleParameter",
    "IllPosedLoop",
    "solve_bezout",
    "rh_coprime_data",
    "youla_controller",
    "gang_of_four",
    "is_internally_stabilizing",
    "cr_from_x",
    "all_controllers_from_LX",
]


class InadmissibleParameter(ValueError):
    """A free design parameter violates the conditions it must satisfy."""


class IllPosedLoop(ArithmeticError):
    """The feedback interconnection has no well-defined closed-loop maps."""


@dataclass(frozen=True)
class DoublyCoprime:
    """Polynomial fraction data P = n*d**-1 = dl**-1*nl together with a
    Bezout pair: x1 @ d + x2 @ n = I."""

    n: PolyMat
    d: PolyMat
    x1: PolyMat
    x2: PolyMat
    nl: PolyMat
    dl: PolyMat

    def check(self) -> bool:
        m = self.d.shape[0]
        bezout = self.x1 @ self.d + self.x2 @ self.n
        cross = self.dl @ self.n - self.nl @ self.d
        return bezout == PolyMat.identity(m) and cross == PolyMat.zeros(*cross.shape)


@dataclass(frozen=True)
class StableCoprimeData:
    """Right and left fractions of the same plant over the proper stable
    rationals, with the right Bezout witness u@nprime + v@dprime = I."""

    right: StableMFD
    nl_prime: RatMat
    dl_prime: RatMat
    left: LeftMFD

    @property
    def nprime(self) -> RatMat:
        return self.right.nprime

    @property
    def dprime(self) -> RatMat:
        return self.right.dprime

    @property
    def u(self) -> RatMat:
        return self.right.u

    @property
    def v(self) -> RatMat:
        return self.right.v


@dataclass(frozen=True)
class TwoDofController:
    """Feedback map cy (driven by y) and reference map cr (driven by r),
    with the internal-stability certificate recorded at build time."""

    cy: RatMat
    cr: RatMat
    certificate: StabilityVerdict | None = None


def solve_bezout(mfd: RightMFD) -> DoublyCoprime:
    """Polynomial Bezout pair x1 @ d + x2 @ n = I for a right coprime
    fraction, with the matching left fraction computed alongside.

    Each row is solved at the smallest feasible degree bound by equating
    coefficients in an exact linear system.
    """
    n, d = mfd.n, mfd.d
    if not is_right_coprime(n, d):
        raise ValueError("fraction is not right coprime; no Bezout solution exists")
    m = d.shape[0]
    degs = [deg if deg is not None else 0 for deg in d.column_degrees()]
    limit = sum(degs) + max(degs, default=0) + 2
    x1_rows: list[list[Poly]] = []
    x2_rows: list[list[Poly]] = []
    for i in range(m):
        rhs = [Poly.constant(1 if j == i else 0) for j in range(m)]
        for bound in range(limit + 1):
            solved = poly_row_diophantine(n, d, rhs, bound)
            if solved is not None:
                alpha, beta = solved
                x2_rows.append(alpha)
                x1_rows.append(beta)
                break
        else:
            raise ArithmeticError("Bezout solve exceeded the degree budget")
    x1 = PolyMat(x1_rows)
    x2 = PolyMat(x2_rows)
    left = left_coprime_mfd(mfd.plant())
    dc = DoublyCoprime(n=n, d=d, x1=x1, x2=x2, nl=left.nl, dl=left.dl)
    if not dc.check():
        raise ArithmeticError("Bezout pair fails x1 @ d + x2 @ n = I or dl @ n = nl @ d")
    return dc


# Kept for the plant-level API: youla_controller(plant, k) is called
# repeatedly on the same plant, and this saves refactoring it each time.
@lru_cache(maxsize=64)
def _rh_data_cached(p: RatMat, shift: Fraction) -> StableCoprimeData:
    right = stable_mfd(right_coprime_mfd(p), shift)
    left = left_coprime_mfd(p)
    rows = left.dl.shape[0]
    row_degs = [deg if deg is not None else 0 for deg in left.dl.row_degrees()]
    psis = [hurwitz_shift_polynomial(shift, deg) for deg in row_degs]
    nl_prime = RatMat(
        [
            [RatFn(left.nl.entry(i, j), psis[i]) for j in range(left.nl.shape[1])]
            for i in range(rows)
        ]
    )
    dl_prime = RatMat(
        [
            [RatFn(left.dl.entry(i, j), psis[i]) for j in range(rows)]
            for i in range(rows)
        ]
    )
    return StableCoprimeData(right, nl_prime, dl_prime, left)


def rh_coprime_data(p: RatMat, shift: Fraction | int = 1) -> StableCoprimeData:
    """Doubly coprime fractions of a proper plant over the proper stable
    rationals, using denominators built from powers of (s + shift)."""
    if not p.is_proper():
        raise ValueError("plant must be proper")
    sigma = Fraction(shift)
    if sigma <= 0:
        raise ValueError("shift must be positive")
    return _rh_data_cached(p, sigma)


def _youla_feedback(
    plant: RatMat,
    right: StableMFD,
    k: RatMat | None = None,
    data: StableCoprimeData | None = None,
) -> tuple[RatMat, StabilityVerdict]:
    """cy = -(v - k@nl')**-1 @ (u + k@dl') from the witness (u, v) of
    ``right``, a fraction of ``plant``, with the verdict that cy is proper
    and internally stabilizing.  k = None is the central choice k = 0 and
    needs no left fraction; any other k must be proper and stable and
    needs the left pair of ``data``."""
    lhs, rhs = right.v, right.u
    if k is not None:
        if k.shape != (plant.shape[1], plant.shape[0]):
            raise ShapeError(
                f"parameter must be {plant.shape[1]}x{plant.shape[0]}, got {k.shape}"
            )
        if not matrix_is_rh_inf(k):
            raise InadmissibleParameter("parameter must be proper and stable")
        lhs = lhs - k @ data.nl_prime
        rhs = rhs + k @ data.dl_prime
    try:
        cy = (lhs.inv() @ rhs).scale(RatFn.of(-1))
    except SingularMatrixError:
        raise InadmissibleParameter(
            "parameter makes v - k@nl' singular; no compensator exists"
        ) from None
    if not cy.is_proper():
        raise InadmissibleParameter(
            "compensator is improper: v - k@nl' is singular at infinity"
        )
    verdict = is_internally_stabilizing(plant, cy)
    if not verdict:
        raise ArithmeticError(
            "parametrized compensator failed validation: " + verdict.describe()
        )
    return cy, verdict


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
    re-validated as proper and internally stabilizing rather than trusted,
    and an improper one raises InadmissibleParameter.
    """
    data = rh_coprime_data(plant, shift)
    return _youla_feedback(plant, data.right, k, data)[0]


def gang_of_four(p: RatMat, cy: RatMat) -> tuple[RatMat, RatMat, RatMat, RatMat]:
    """The four closed-loop maps of the feedback pair (p, cy):
    (I-cy@p)**-1, (I-cy@p)**-1 @ cy, p @ (I-cy@p)**-1, and
    p @ (I-cy@p)**-1 @ cy."""
    m = cy.shape[0]
    if cy.shape != (p.shape[1], p.shape[0]):
        raise ShapeError(
            f"feedback map must be {p.shape[1]}x{p.shape[0]}, got {cy.shape}"
        )
    loop = RatMat.identity(m) - cy @ p
    try:
        sens = loop.inv()
    except SingularMatrixError:
        raise IllPosedLoop("I - cy@p is singular; the loop is ill posed") from None
    return sens, sens @ cy, p @ sens, p @ sens @ cy


def is_internally_stabilizing(p: RatMat, cy: RatMat) -> StabilityVerdict:
    """Verdict over all four closed-loop maps of (p, cy): internally
    stabilizing iff every map is proper and stable."""
    verdict = StabilityVerdict(True)
    for mat in gang_of_four(p, cy):
        verdict = verdict.merged(rh_inf_verdict(mat))
    return verdict


def cr_from_x(p: RatMat, cy: RatMat, mfd: RightMFD, x: RatMat) -> RatMat:
    """Reference map cr = (I - cy@p) @ d @ x, achieving y/r = n@x and
    u/r = d@x alongside a stabilizing feedback map cy."""
    m = mfd.inputs
    if x.shape[0] != m:
        raise ShapeError(f"parameter must have {m} rows, got {x.shape[0]}")
    if not matrix_is_stable(x):
        raise InadmissibleParameter("parameter x has unstable poles")
    dx = mfd.d.to_ratmat() @ x
    if not dx.is_proper():
        raise InadmissibleParameter("d@x is improper")
    cr = (RatMat.identity(m) - cy @ p) @ dx
    if not cr.is_proper():
        raise InadmissibleParameter(
            "resulting reference map is improper for this feedback map"
        )
    return cr


def all_controllers_from_LX(
    mfd: RightMFD, l: RatMat, x: RatMat
) -> TwoDofController:
    """Two-parameter sweep of every stabilizing pair: cy = f**-1 @ l and
    cr = f**-1 @ x with f = (I + l@n) @ d**-1.

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
    return TwoDofController(cy=cy, cr=cr, certificate=is_internally_stabilizing(p, cy))
