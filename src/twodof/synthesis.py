"""Controller design on top of the stable-fraction machinery.

Every design here reduces to picking a stable parameter: a response
target T is achievable through a two-degree-of-freedom loop exactly when
T = N*X for some stable X with D*X proper, and the restricted loop
shapes (unity feedback, feedback with the reference injected directly at
the plant input) carve admissible subsets out of that parameter set.
Designs return exact symbolic results together with certificates; every
certificate names the condition it checked and carries the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .factor import RightMFD, StableMFD, left_coprime_mfd, zeros_and_poles
from .polyalg import (
    ONE,
    RF_ZERO,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    S,
    ShapeError,
    SingularMatrixError,
    _gauss_jordan,
    hstack,
    linsolve_exact,
    polymat_det,
)
from .stability import (
    StabilityVerdict,
    hurwitz_shift_polynomial,
    irreducible_factors,
    is_hurwitz,
    is_stable,
    matrix_is_stable,
    rh_inf_verdict,
)
from .stabilize import (
    TwoDofController,
    _youla_feedback,
    cr_from_x,
    is_internally_stabilizing,
)

__all__ = [
    "Certificate",
    "DesignObstruction",
    "Obstruction",
    "DesignResult",
    "TwoDofConfig",
    "FfFbRConfig",
    "UnityFeedbackConfig",
    "FeedbackDirectRConfig",
    "ClosedLoopConfig",
    "ModelMatching",
    "DiagonalDecoupling",
    "Inverse",
    "StaticDecoupling",
    "DenominatorAssignment",
    "DesignProblem",
    "check_realizable",
    "model_matching",
    "diagonal_decoupling",
    "inverse_problem",
    "static_decoupling",
    "denominator_assignment_unity",
    "denominator_assignment_direct",
    "unity_feedback_admissible",
    "find_admissible_unity_xprime",
    "unity_feedback_controller",
    "ff_fb_realization",
    "direct_feedback_from_x",
    "siso_conditions",
    "solve_design",
]


@dataclass(frozen=True)
class Certificate:
    """A named, checked condition with its verdict."""

    name: str
    verdict: StabilityVerdict
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict.stable

    def describe(self) -> str:
        tail = f" -- {self.detail}" if self.detail else ""
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.verdict.describe()}){tail}"


def _equality_certificate(name: str, holds: bool, detail: str = "") -> Certificate:
    return Certificate(name, StabilityVerdict(holds), detail)


class DesignObstruction(Exception):
    """A design problem has no admissible solution; reasons attached."""

    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(self.reasons))


@dataclass(frozen=True)
class Obstruction:
    """Falsy result of a realizability check, naming what failed."""

    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        return "; ".join(self.reasons)


# -- closed-loop configurations ----------------------------------------------


@dataclass(frozen=True)
class TwoDofConfig:
    """u = cy@y + cr@r."""

    cy: RatMat
    cr: RatMat


@dataclass(frozen=True)
class FfFbRConfig:
    """u = cff@(cfb@y + r_map@r): feedforward block behind a feedback
    block and a reference prefilter."""

    r: RatMat
    cff: RatMat
    cfb: RatMat


@dataclass(frozen=True)
class UnityFeedbackConfig:
    """u = cff@(r + y): the measured output is added to the reference."""

    cff: RatMat


@dataclass(frozen=True)
class FeedbackDirectRConfig:
    """u = cfb@y + r: the reference enters at the plant input directly."""

    cfb: RatMat


ClosedLoopConfig = Union[
    TwoDofConfig, FfFbRConfig, UnityFeedbackConfig, FeedbackDirectRConfig
]


# -- design problems -----------------------------------------------------------


@dataclass(frozen=True)
class ModelMatching:
    t: RatMat
    m: RatMat | None = None


@dataclass(frozen=True)
class DiagonalDecoupling:
    targets: tuple[RatFn, ...]


@dataclass(frozen=True)
class Inverse:
    pass


@dataclass(frozen=True)
class StaticDecoupling:
    lam: RatMat


@dataclass(frozen=True)
class DenominatorAssignment:
    d_t: PolyMat
    loop: str = "unity"  # or "direct"


DesignProblem = Union[
    ModelMatching, DiagonalDecoupling, Inverse, StaticDecoupling, DenominatorAssignment
]


@dataclass(frozen=True)
class DesignResult:
    configuration: ClosedLoopConfig
    controller: TwoDofController
    x: RatMat
    xprime: RatMat | None
    achieved_t: RatMat
    achieved_m: RatMat
    certificates: tuple[Certificate, ...]


# -- helpers -------------------------------------------------------------------


def _shift_powers(smfd: StableMFD) -> list[Poly]:
    return [hurwitz_shift_polynomial(smfd.shift, deg) for deg in smfd.col_degrees]


def _x_from_xprime(smfd: StableMFD, xprime: RatMat) -> RatMat:
    psis = _shift_powers(smfd)
    return RatMat(
        [
            [xprime.entry(i, j) * RatFn(ONE, psis[i]) for j in range(xprime.shape[1])]
            for i in range(xprime.shape[0])
        ]
    )


def _xprime_from_x(smfd: StableMFD, x: RatMat) -> RatMat:
    psis = _shift_powers(smfd)
    return RatMat(
        [
            [x.entry(i, j) * RatFn(psis[i]) for j in range(x.shape[1])]
            for i in range(x.shape[0])
        ]
    )


def _controller_for_x(smfd: StableMFD, x: RatMat) -> TwoDofController:
    plant = smfd.source.plant()
    cy, verdict = _youla_feedback(plant, smfd)
    cr = cr_from_x(plant, cy, smfd.source, x)
    return TwoDofController(cy=cy, cr=cr, certificate=verdict)


def _unstable_zero_diagnosis(mfd: RightMFD, t: RatMat) -> list[str]:
    """Name the plant's unstable zeros the target fails to inherit."""
    reasons: list[str] = []
    report = zeros_and_poles(mfd)
    for zero in report.unstable_zeros():
        z = zero.location
        if not isinstance(z, Fraction):
            continue  # irrational locations are covered by the exact verdict
        vals = t.eval_at(z)
        if vals is None or any(v is None for row in vals for v in row):
            continue
        if zero.direction is not None and all(
            isinstance(c, Fraction) for c in zero.direction
        ):
            eta = zero.direction
            combo = [
                sum(eta[i] * vals[i][j] for i in range(len(eta)))
                for j in range(t.shape[1])
            ]
            if any(c != 0 for c in combo):
                reasons.append(
                    f"plant unstable zero at s = {z} is not inherited by the target"
                    f" (direction eta with eta^T N({z}) = 0 has eta^T T({z}) != 0)"
                )
        else:
            if any(v != 0 for row in vals for v in row):
                reasons.append(
                    f"plant unstable zero at s = {z} is not a zero of the target"
                )
    return reasons


# -- model matching ------------------------------------------------------------


def check_realizable(
    mfd: RightMFD, t: RatMat, m: RatMat | None = None
) -> RatMat | Obstruction:
    """Stable parameter x with n@x = t (and d@x = m when given), or an
    obstruction naming what rules it out."""
    p_rows, m_cols = mfd.n.shape
    if t.shape[0] != p_rows:
        raise ShapeError(f"target must have {p_rows} rows, got {t.shape[0]}")
    if m is not None and m.shape != (m_cols, t.shape[1]):
        raise ShapeError(
            f"control target must be {m_cols}x{t.shape[1]}, got {m.shape}"
        )
    pre: list[str] = []
    if not t.is_proper():
        pre.append("target t is improper")
    tv = matrix_is_stable(t)
    if not tv:
        pre.append("target t is unstable: " + tv.describe())
    if m is not None:
        if not m.is_proper():
            pre.append("control target m is improper")
        mv = matrix_is_stable(m)
        if not mv:
            pre.append("control target m is unstable: " + mv.describe())
    if pre:
        return Obstruction(tuple(pre))

    d_rat = mfd.d.to_ratmat()
    n_rat = mfd.n.to_ratmat()
    if m is not None:
        x = d_rat.inv() @ m
        if n_rat @ x != t:
            return Obstruction(
                ("inconsistent target pair: n @ d**-1 @ m differs from t",)
            )
    else:
        aug = [list(nr) + list(tr) for nr, tr in zip(n_rat.rows, t.rows)]
        pivots, _, _ = _gauss_jordan(aug, m_cols)
        if any(not e.is_zero() for row in aug[len(pivots):] for e in row[m_cols:]):
            return Obstruction(
                ("rank violation: target lies outside the range of the plant numerator",)
            )
        x_rows = [[RF_ZERO] * t.shape[1] for _ in range(m_cols)]
        for row, col in zip(aug, pivots):
            x_rows[col] = row[m_cols:]
        x = RatMat(x_rows)
        if n_rat @ x != t:
            raise ArithmeticError("realizability solve lost exactness: n @ x != t")

    reasons: list[str] = []
    xv = matrix_is_stable(x)
    if not xv:
        reasons.extend(_unstable_zero_diagnosis(mfd, t))
        reasons.append("parameter x is unstable: " + xv.describe())
    if not x.is_proper():
        reasons.append("parameter x is improper (relative-degree violation)")
    if not (d_rat @ x).is_proper():
        reasons.append(
            "control map d@x is improper (target relative degree below the plant's)"
        )
    if reasons:
        return Obstruction(tuple(reasons))
    return x


def _design_result_from_x(
    smfd: StableMFD,
    x: RatMat,
    achieved_t: RatMat,
    extra: Sequence[Certificate] = (),
) -> DesignResult:
    controller = _controller_for_x(smfd, x)
    achieved_m = smfd.source.d.to_ratmat() @ x
    certs = [
        Certificate("parameter x proper and stable", rh_inf_verdict(x)),
        Certificate("control map d@x proper and stable", rh_inf_verdict(achieved_m)),
        Certificate("feedback map internally stabilizing", controller.certificate),
        *extra,
    ]
    return DesignResult(
        configuration=TwoDofConfig(cy=controller.cy, cr=controller.cr),
        controller=controller,
        x=x,
        xprime=_xprime_from_x(smfd, x),
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=tuple(certs),
    )


def model_matching(
    smfd: StableMFD, t: RatMat, m: RatMat | None = None
) -> DesignResult:
    """Two-degree-of-freedom design achieving y/r = t (and u/r = m when
    prescribed) exactly, or DesignObstruction."""
    res = check_realizable(smfd.source, t, m)
    if isinstance(res, Obstruction):
        raise DesignObstruction(res.reasons)
    x = res
    achieved_t = smfd.source.n.to_ratmat() @ x
    extra = [
        _equality_certificate(
            "closed-loop response equals the target", achieved_t == t
        )
    ]
    if m is not None:
        extra.append(
            _equality_certificate(
                "control map equals the prescribed m",
                smfd.source.d.to_ratmat() @ x == m,
            )
        )
    return _design_result_from_x(smfd, x, achieved_t, extra)


# -- decoupling and inversion ---------------------------------------------------


def _decoupling_zero_diagnosis(smfd: StableMFD, targets: Sequence[RatFn]) -> list[str]:
    reasons = []
    report = zeros_and_poles(smfd.source)
    for zero in report.unstable_zeros():
        z = zero.location
        if not isinstance(z, Fraction):
            continue
        misses = [
            i + 1
            for i, tgt in enumerate(targets)
            if tgt.at(z) not in (None, Fraction(0))
        ]
        if misses:
            reasons.append(
                f"plant unstable zero at s = {z} must be a zero of target(s) "
                + ", ".join(str(i) for i in misses)
            )
    return reasons


def diagonal_decoupling(smfd: StableMFD, targets: Sequence[RatFn]) -> DesignResult:
    """Make y/r equal to diag(targets) exactly via x' = n'**-1 @ diag."""
    p_rows, m_cols = smfd.nprime.shape
    if p_rows != m_cols:
        raise DesignObstruction(("decoupling requires a square plant",))
    if len(targets) != p_rows:
        raise ShapeError(f"expected {p_rows} targets, got {len(targets)}")
    pre = []
    for i, tgt in enumerate(targets):
        if not tgt.is_proper():
            pre.append(f"target {i + 1} is improper")
        tv = is_stable(tgt)
        if not tv:
            pre.append(f"target {i + 1} is unstable: {tv.describe()}")
    if pre:
        raise DesignObstruction(pre)
    tmat = RatMat.diag(list(targets))
    try:
        ninv = smfd.nprime.inv()
    except SingularMatrixError:
        raise DesignObstruction(
            ("plant transfer matrix is singular (det n' = 0); cannot decouple",)
        ) from None
    xprime = ninv @ tmat
    verdict = rh_inf_verdict(xprime)
    control = smfd.dprime @ xprime
    if not verdict or not control.is_proper():
        reasons = _decoupling_zero_diagnosis(smfd, targets)
        if not verdict:
            reasons.append("parameter x' not proper-stable: " + verdict.describe())
        if not control.is_proper():
            reasons.append("control map d'@x' is improper")
        raise DesignObstruction(reasons)
    x = _x_from_xprime(smfd, xprime)
    achieved_t = smfd.nprime @ xprime
    if achieved_t != tmat:
        raise ArithmeticError("decoupling lost exactness: n' @ x' != diag(targets)")
    extra = [
        _equality_certificate(
            "closed-loop response equals diag(targets)", achieved_t == tmat
        ),
        _equality_certificate(
            "off-diagonal response is exactly zero",
            all(
                achieved_t.entry(i, j).num.is_zero()
                for i in range(p_rows)
                for j in range(p_rows)
                if i != j
            ),
        ),
    ]
    return _design_result_from_x(smfd, x, achieved_t, extra)


def inverse_problem(smfd: StableMFD) -> DesignResult:
    """Drive y/r = I exactly: x' = n'**-1, admissible only for plants
    with neither unstable zeros nor positive relative degree."""
    p_rows, m_cols = smfd.nprime.shape
    if p_rows != m_cols:
        raise DesignObstruction(("exact inversion requires a square plant",))
    try:
        xprime = smfd.nprime.inv()
    except SingularMatrixError:
        raise DesignObstruction(
            ("plant transfer matrix is singular; no inverse exists",)
        ) from None
    verdict = rh_inf_verdict(xprime)
    control = smfd.dprime @ xprime
    if not verdict or not control.is_proper():
        reasons = ["exact inversion impossible for this plant"]
        report = zeros_and_poles(smfd.source)
        for zero in report.unstable_zeros():
            reasons.append(f"plant has an unstable zero at s = {zero.location}")
        if not xprime.is_proper() or not control.is_proper():
            reasons.append("plant has positive relative degree (n'**-1 improper)")
        if not verdict.stable:
            reasons.append("parameter verdict: " + verdict.describe())
        raise DesignObstruction(reasons)
    identity = RatMat.identity(p_rows)
    achieved_t = smfd.nprime @ xprime
    if achieved_t != identity:
        raise ArithmeticError("inversion lost exactness: n' @ n'**-1 != I")
    x = _x_from_xprime(smfd, xprime)
    extra = [_equality_certificate("closed-loop response equals I", achieved_t == identity)]
    return _design_result_from_x(smfd, x, achieved_t, extra)


# -- static decoupling -----------------------------------------------------------


def _constant_matrix(mat: RatMat) -> list[list[Fraction]] | None:
    out = []
    for row in mat.rows:
        cur = []
        for e in row:
            if e.den != ONE or not (e.num.is_zero() or e.num.is_constant()):
                return None
            cur.append(e.num.coeff(0))
        out.append(cur)
    return out


def _check_static_target(smfd: StableMFD, lam: RatMat) -> None:
    """Refuse a lam that is not a constant nonsingular diagonal matrix
    matching a square plant, and a plant with a zero at the origin."""
    lam_const = _constant_matrix(lam)
    if lam_const is None:
        raise ValueError("lam must be a constant matrix")
    if lam.shape[0] != lam.shape[1] or any(
        lam_const[i][j] != 0
        for i in range(lam.shape[0])
        for j in range(lam.shape[1])
        if i != j
    ):
        raise ValueError("lam must be square and diagonal")
    if any(lam_const[i][i] == 0 for i in range(lam.shape[0])):
        raise ValueError("lam must be nonsingular")
    p_rows, m_cols = smfd.nprime.shape
    if p_rows != m_cols or lam.shape[0] != p_rows:
        raise ShapeError("static decoupling requires a square plant matching lam")

    nprime_at_0 = RatMat(
        [
            [RatFn.of(v) for v in row]
            for row in smfd.nprime.eval_at(Fraction(0))
        ]
    )
    try:
        nprime_at_0.inv()
    except SingularMatrixError:
        raise DesignObstruction(
            ("plant has a zero at the origin (det n'(0) = 0); static decoupling impossible",)
        ) from None


def _dc_precompensator(plant: RatMat, lam: RatMat, cy: RatMat) -> RatMat:
    """cr = G(0)**-1 @ lam for the closed loop G = P(I - cy P)**-1."""
    gain_map = plant @ (RatMat.identity(cy.shape[0]) - cy @ plant).inv()
    vals = gain_map.eval_at(Fraction(0))
    if vals is None or any(v is None for row in vals for v in row):
        raise DesignObstruction(("closed loop has a pole at the origin",))
    g0 = RatMat([[RatFn.of(v) for v in row] for row in vals])
    try:
        return g0.inv() @ lam
    except SingularMatrixError:
        raise DesignObstruction(
            ("dc gain is singular for this feedback choice; pick another cy",)
        ) from None


def static_decoupling(
    smfd: StableMFD, lam: RatMat, cy: RatMat | None = None
) -> RatMat:
    """Constant precompensator making the closed-loop DC gain equal lam.

    Stable plants use pure precompensation cr = P(0)**-1 @ lam; unstable
    plants are first closed with a stabilizing feedback map (the central
    one unless supplied) and cr = G(0)**-1 @ lam for G = P(I - cy P)**-1.
    """
    _check_static_target(smfd, lam)
    plant = smfd.plant()
    if cy is not None:
        verdict = is_internally_stabilizing(plant, cy)
        if not verdict:
            raise DesignObstruction(
                ("supplied feedback map is not internally stabilizing: "
                 + verdict.describe(),)
            )
    elif matrix_is_stable(plant):
        cy = RatMat.zeros(plant.shape[1], plant.shape[0])
    else:
        cy, _ = _youla_feedback(plant, smfd)
    return _dc_precompensator(plant, lam, cy)


# -- denominator assignment -------------------------------------------------------


def _square_invertible(mat: PolyMat, label: str) -> None:
    det = polymat_det(mat)
    if det.is_zero():
        raise DesignObstruction((f"{label} is singular",))


def denominator_assignment_unity(mfd: RightMFD, d_t: PolyMat) -> DesignResult:
    """Unity-feedback forward compensator cff = d @ (d_t + n)**-1 driving
    y/r = n @ d_t**-1 exactly.

    The loop is u = cff @ (r + y), so t = (I - p @ cff)**-1 @ p @ cff and
    the design certifies the identity t**-1 + I == cff**-1 @ p**-1."""
    if mfd.outputs != mfd.inputs:
        raise DesignObstruction(("denominator assignment requires a square plant",))
    if d_t.shape != mfd.d.shape:
        raise ShapeError(f"d_t must be {mfd.d.shape}, got {d_t.shape}")
    _square_invertible(mfd.n, "plant numerator")
    _square_invertible(d_t, "target denominator")
    dt_det_verdict = is_hurwitz(polymat_det(d_t).monic())
    if not dt_det_verdict:
        raise DesignObstruction(
            ("target denominator is not Hurwitz: " + dt_det_verdict.describe(),)
        )
    d_rat = mfd.d.to_ratmat()
    n_rat = mfd.n.to_ratmat()
    sum_rat = (d_t + mfd.n).to_ratmat()
    try:
        sum_inv = sum_rat.inv()
    except SingularMatrixError:
        raise DesignObstruction(("d_t + n is singular; no compensator exists",)) from None
    condition = sum_rat @ d_rat.inv()
    cond_verdict = matrix_is_stable(condition)
    if not cond_verdict:
        raise DesignObstruction(
            ("stability condition (d_t + n) @ d**-1 failed: " + cond_verdict.describe(),)
        )
    cff = d_rat @ sum_inv
    if not cff.is_proper():
        raise DesignObstruction(("compensator d @ (d_t + n)**-1 is improper",))

    x = d_t.to_ratmat().inv()
    achieved_t = n_rat @ x
    achieved_m = d_rat @ x
    plant = mfd.plant()
    # closed loop of u = cff@(r + y)
    loop = (RatMat.identity(mfd.outputs) - plant @ cff).inv() @ plant @ cff
    t_inv = achieved_t.inv()
    identity_holds = (
        t_inv + RatMat.identity(mfd.outputs) == cff.inv() @ plant.inv()
    )
    certs = (
        Certificate("stability condition (d_t + n) @ d**-1", cond_verdict),
        _equality_certificate(
            "closed loop equals n @ d_t**-1", loop == achieved_t
        ),
        _equality_certificate(
            "identity t**-1 + I == cff**-1 @ p**-1", identity_holds
        ),
        Certificate(
            "unity loop internally stabilizing",
            is_internally_stabilizing(plant, cff),
        ),
    )
    return DesignResult(
        configuration=UnityFeedbackConfig(cff=cff),
        controller=TwoDofController(cy=cff, cr=cff, certificate=certs[3].verdict),
        x=x,
        xprime=None,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


def denominator_assignment_direct(mfd: RightMFD, d_t: PolyMat) -> DesignResult:
    """Feedback compensator cfb = (d - d_t) @ n**-1 with the reference
    injected directly at the plant input; y/r = n @ d_t**-1 exactly."""
    if mfd.outputs != mfd.inputs:
        raise DesignObstruction(("denominator assignment requires a square plant",))
    if d_t.shape != mfd.d.shape:
        raise ShapeError(f"d_t must be {mfd.d.shape}, got {d_t.shape}")
    _square_invertible(mfd.n, "plant numerator")
    _square_invertible(d_t, "target denominator")
    dt_det_verdict = is_hurwitz(polymat_det(d_t).monic())
    if not dt_det_verdict:
        raise DesignObstruction(
            ("x = d_t**-1 is unstable: " + dt_det_verdict.describe(),)
        )
    n_rat = mfd.n.to_ratmat()
    d_rat = mfd.d.to_ratmat()
    cfb = (mfd.d - d_t).to_ratmat() @ n_rat.inv()
    if not cfb.is_proper():
        raise DesignObstruction(("feedback compensator (d - d_t) @ n**-1 is improper",))
    x = d_t.to_ratmat().inv()
    achieved_t = n_rat @ x
    achieved_m = d_rat @ x
    plant = mfd.plant()
    loop = plant @ (RatMat.identity(mfd.inputs) - cfb @ plant).inv()
    identity_holds = (
        achieved_t.inv() - plant.inv() == cfb.scale(RatFn.of(-1))
    )
    certs = (
        _equality_certificate("closed loop equals n @ d_t**-1", loop == achieved_t),
        _equality_certificate("identity t**-1 - p**-1 == -cfb", identity_holds),
        Certificate(
            "loop internally stabilizing",
            is_internally_stabilizing(plant, cfb),
        ),
    )
    return DesignResult(
        configuration=FeedbackDirectRConfig(cfb=cfb),
        controller=TwoDofController(
            cy=cfb, cr=RatMat.identity(mfd.inputs), certificate=certs[2].verdict
        ),
        x=x,
        xprime=None,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


# -- unity-feedback restriction ----------------------------------------------------


def _unstable_part(p: Poly) -> Poly:
    out = ONE
    for factor, mult in irreducible_factors(p):
        if not is_hurwitz(factor):
            out = out * factor**mult
    return out


def unity_feedback_admissible(smfd: StableMFD, xprime: RatMat) -> StabilityVerdict:
    """Whether x' survives the unity-feedback restriction: the map
    f = (I + x'@n') @ d'**-1 must be proper and stable.

    For scalar plants the same restriction is a polynomial divisibility
    statement (d_x*b + n_x*a must contain the plant's unstable
    denominator factors, where n' = a/b and x' = n_x/d_x); both forms are
    evaluated and must agree.
    """
    m = smfd.dprime.shape[0]
    if xprime.shape[0] != m:
        raise ShapeError(f"x' must have {m} rows, got {xprime.shape[0]}")
    f = (RatMat.identity(m) + xprime @ smfd.nprime) @ smfd.dprime.inv()
    verdict = rh_inf_verdict(xprime).merged(rh_inf_verdict(f))
    if (
        smfd.nprime.shape == (1, 1)
        and xprime.shape == (1, 1)
        and matrix_is_stable(xprime)
    ):
        # The divisibility form presumes a stable x' (Hurwitz d_x).
        a, b = smfd.nprime.entry(0, 0).num, smfd.nprime.entry(0, 0).den
        n_x, d_x = xprime.entry(0, 0).num, xprime.entry(0, 0).den
        d_u = _unstable_part(smfd.source.d.entry(0, 0))
        combo = d_x * b + n_x * a
        divisible = (combo % d_u).is_zero()
        if divisible != matrix_is_stable(f).stable:
            raise ArithmeticError(
                "scalar divisibility form disagrees with the matrix form"
            )
    return verdict


def find_admissible_unity_xprime(
    smfd: StableMFD, max_total_degree: int = 16
) -> RatMat:
    """Scalar solver for the unity-feedback restriction: scan candidate
    degrees (deg d_x, deg p) in increasing total degree and solve
    d_x*b + n_x*a = p*d_u by coefficient matching; d_x = (s+1)^k."""
    if smfd.nprime.shape != (1, 1):
        raise ValueError("the scan solver handles scalar plants only")
    d_poly = smfd.source.d.entry(0, 0)
    d_u = _unstable_part(d_poly)
    if d_u.is_constant():
        candidate = RatMat.identity(1)
        if not unity_feedback_admissible(smfd, candidate):
            raise ArithmeticError("x' = 1 failed the unity-feedback restriction of a stable plant")
        return candidate
    a, b = smfd.nprime.entry(0, 0).num, smfd.nprime.entry(0, 0).den
    du_deg = d_u.degree() or 0
    for total in range(0, max_total_degree + 1):
        for deg_dx in range(0, total + 1):
            deg_p = total - deg_dx
            d_x = (S + ONE) ** deg_dx
            rhs_poly = d_x * b
            # unknowns: n_x coefficients (deg <= deg_dx), p coefficients (deg <= deg_p)
            n_unknowns = deg_dx + 1
            p_unknowns = deg_p + 1
            top = max(
                (rhs_poly.degree() or 0),
                deg_dx + (a.degree() or 0),
                deg_p + du_deg,
            )
            rows = []
            rhs = []
            for t_pow in range(top + 1):
                row = [
                    a.coeff(t_pow - c) if t_pow >= c else Fraction(0)
                    for c in range(n_unknowns)
                ]
                row += [
                    -d_u.coeff(t_pow - c) if t_pow >= c else Fraction(0)
                    for c in range(p_unknowns)
                ]
                rows.append(row)
                rhs.append(-rhs_poly.coeff(t_pow))
            solved = linsolve_exact(rows, rhs)
            if solved is None:
                continue
            z, _ = solved
            n_x = Poly(tuple(z[:n_unknowns]))
            candidate = RatMat([[RatFn(n_x, d_x)]])
            if unity_feedback_admissible(smfd, candidate):
                return candidate
    raise DesignObstruction(
        (f"no admissible x' found up to total degree {max_total_degree}",)
    )


def unity_feedback_controller(smfd: StableMFD, xprime: RatMat) -> RatMat:
    """Forward compensator cff = f**-1 @ x' realizing y/r = n'@x' in the
    unity-feedback configuration, for an admissible x'."""
    verdict = unity_feedback_admissible(smfd, xprime)
    if not verdict:
        raise DesignObstruction(
            ("unity-feedback restriction failed: " + verdict.describe(),)
        )
    m = smfd.dprime.shape[0]
    f = (RatMat.identity(m) + xprime @ smfd.nprime) @ smfd.dprime.inv()
    try:
        cff = f.inv() @ xprime
    except SingularMatrixError:
        raise DesignObstruction(
            ("I + x'@n' is singular; the unity loop is ill posed",)
        ) from None
    plant = smfd.plant()
    closed = (RatMat.identity(plant.shape[0]) - plant @ cff).inv() @ plant @ cff
    if closed != smfd.nprime @ xprime:
        raise ArithmeticError("unity loop does not realize n' @ x'")
    return cff


# -- controller realization ----------------------------------------------------------


def ff_fb_realization(
    controller: TwoDofController, shift: Fraction | int = 1
) -> tuple[RatMat, RatMat, RatMat]:
    """Split a proper pair (cy, cr) into blocks (r, cff, cfb) with
    u = cff@(cfb@y + r_map@r): left fraction [cy, cr] = dl**-1 @ [nly, nlr],
    rows scaled by powers of (s + shift) so that cfb and r are proper
    stable and cff**-1 is proper stable."""
    cy, cr = controller.cy, controller.cr
    if not (cy.is_proper() and cr.is_proper()):
        raise ValueError("realization requires a proper controller")
    stacked = hstack(cy, cr)
    left = left_coprime_mfd(stacked)
    rows = left.dl.shape[0]
    p_cols = cy.shape[1]
    row_degs = [deg if deg is not None else 0 for deg in left.dl.row_degrees()]
    psis = [hurwitz_shift_polynomial(shift, deg) for deg in row_degs]
    dc = RatMat(
        [[RatFn(left.dl.entry(i, j), psis[i]) for j in range(rows)] for i in range(rows)]
    )
    cfb = RatMat(
        [[RatFn(left.nl.entry(i, j), psis[i]) for j in range(p_cols)] for i in range(rows)]
    )
    r_map = RatMat(
        [
            [RatFn(left.nl.entry(i, j), psis[i]) for j in range(p_cols, left.nl.shape[1])]
            for i in range(rows)
        ]
    )
    cff = dc.inv()
    if cff @ cfb != cy or cff @ r_map != cr:
        raise ArithmeticError("realization blocks do not reproduce (cy, cr)")
    return r_map, cff, cfb


def direct_feedback_from_x(mfd: RightMFD, x: RatMat) -> RatMat:
    """Feedback compensator cfb = x**-1 @ (x@d - I) @ n**-1 for the
    reference-at-input configuration, realizing y/r = n@x exactly."""
    if mfd.outputs != mfd.inputs:
        raise DesignObstruction(("this configuration requires a square plant",))
    xv = matrix_is_stable(x)
    if not xv:
        raise ValueError("x must be stable: " + xv.describe())
    try:
        x_inv = x.inv()
    except SingularMatrixError:
        raise ValueError("x is singular") from None
    try:
        n_inv = mfd.n.to_ratmat().inv()
    except SingularMatrixError:
        raise DesignObstruction(("plant numerator is singular",)) from None
    m = mfd.inputs
    cfb = x_inv @ (x @ mfd.d.to_ratmat() - RatMat.identity(m)) @ n_inv
    plant = mfd.plant()
    closed = plant @ (RatMat.identity(m) - cfb @ plant).inv()
    if closed != mfd.n.to_ratmat() @ x:
        raise ArithmeticError("direct-feedback loop does not realize n @ x")
    return cfb


def siso_conditions(p: RatFn, t: RatFn, sign: int = 1) -> StabilityVerdict:
    """Scalar feasibility test for realizing t on plant p through the
    restricted loops: (1 + t)/d and t/n must both be stable, where
    p = n/d reduced.  ``sign=-1`` selects the negative-feedback variant
    (1 - t)/d."""
    n, d = p.num, p.den
    if n.is_zero():
        raise ValueError("plant is identically zero")
    one_pm_t = RatFn(ONE) + t if sign >= 0 else RatFn(ONE) - t
    s_over_d = one_pm_t / RatFn(d)
    t_over_n = t / RatFn(n)
    return is_stable(s_over_d).merged(is_stable(t_over_n))


# -- problem dispatch ------------------------------------------------------------


def solve_design(smfd: StableMFD, problem: DesignProblem) -> DesignResult:
    """Run the design matching the problem variant and return its result."""
    if isinstance(problem, ModelMatching):
        return model_matching(smfd, problem.t, problem.m)
    if isinstance(problem, DiagonalDecoupling):
        return diagonal_decoupling(smfd, problem.targets)
    if isinstance(problem, Inverse):
        return inverse_problem(smfd)
    if isinstance(problem, StaticDecoupling):
        plant = smfd.plant()
        if matrix_is_stable(plant):
            cy = RatMat.zeros(plant.shape[1], plant.shape[0])
            # the four loop maps of cy = 0 are I, 0, plant and 0
            verdict = rh_inf_verdict(plant)
        else:
            cy, verdict = _youla_feedback(plant, smfd)
        _check_static_target(smfd, problem.lam)
        cr = _dc_precompensator(plant, problem.lam, cy)
        loop_inv = (RatMat.identity(cy.shape[0]) - cy @ plant).inv()
        achieved_t = plant @ loop_inv @ cr
        achieved_m = loop_inv @ cr
        x = smfd.source.d.to_ratmat().inv() @ achieved_m
        vals = achieved_t.eval_at(Fraction(0))
        dc_matches = vals is not None and RatMat(
            [[RatFn.of(v) for v in row] for row in vals]
        ) == problem.lam
        certs = (
            _equality_certificate("dc gain equals lam exactly", bool(dc_matches)),
            Certificate(
                "closed loop stable", matrix_is_stable(achieved_t)
            ),
        )
        return DesignResult(
            configuration=TwoDofConfig(cy=cy, cr=cr),
            controller=TwoDofController(cy=cy, cr=cr, certificate=verdict),
            x=x,
            xprime=_xprime_from_x(smfd, x),
            achieved_t=achieved_t,
            achieved_m=achieved_m,
            certificates=certs,
        )
    if isinstance(problem, DenominatorAssignment):
        if problem.loop == "unity":
            return denominator_assignment_unity(smfd.source, problem.d_t)
        if problem.loop == "direct":
            return denominator_assignment_direct(smfd.source, problem.d_t)
        raise ValueError(f"unknown loop variant {problem.loop!r}")
    raise TypeError(f"unknown design problem {type(problem).__name__}")
