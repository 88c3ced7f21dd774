"""Controller design on top of the stable-fraction machinery.

Every design here reduces to picking a stable parameter: a response
target T is achievable through a two-degree-of-freedom loop exactly when
T = N*X for some stable X with D*X proper, and the restricted loop
shapes (unity feedback, feedback with the reference injected directly at
the plant input) carve admissible subsets out of that parameter set.
Each design is one function that returns its ``DesignResult`` (exact
symbolic maps, the loop's internal-stability verdict and certificates,
each naming the condition it checked with its verdict) or raises
``DesignObstruction`` with the reasons no admissible design exists.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .factor import (
    RightMFD,
    StableMFD,
    left_coprime_mfd,
    poly_row_diophantine,
    stable_left_mfd,
    zeros_and_poles,
)
from .polyalg import (
    ONE,
    ZERO,
    PolyMat,
    RatFn,
    RatMat,
    S,
    ShapeError,
    SingularMatrixError,
    _bareiss,
    _over,
    _over_lcd,
    hstack,
    polymat_det,
)
from .stability import (
    StabilityVerdict,
    is_hurwitz,
    is_stable,
    matrix_is_stable,
    rh_inf_verdict,
)
from .stabilize import (
    InadmissibleParameter,
    LoopMaps,
    TwoDofConfig,
    _youla_feedback,
    gang_of_four,
)

__all__ = [
    "Certificate",
    "DesignObstruction",
    "DesignResult",
    "FfFbRConfig",
    "UnityFeedbackConfig",
    "FeedbackDirectRConfig",
    "ClosedLoopConfig",
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
    "siso_conditions",
]


class Certificate:
    """A named, checked condition with its verdict."""

    __slots__ = ("name", "verdict", "detail")

    def __init__(self, name: str, verdict: StabilityVerdict, detail: str = "") -> None:
        self.name, self.verdict, self.detail = name, verdict, detail

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


# -- closed-loop configurations ----------------------------------------------


class FfFbRConfig:
    """u = cff@(cfb@y + r_map@r): feedforward block behind a feedback
    block and a reference prefilter."""

    __slots__ = ("r", "cff", "cfb")

    def __init__(self, r: RatMat, cff: RatMat, cfb: RatMat) -> None:
        self.r, self.cff, self.cfb = r, cff, cfb


class UnityFeedbackConfig:
    """u = cff@(r + y): the measured output is added to the reference."""

    __slots__ = ("cff",)

    def __init__(self, cff: RatMat) -> None:
        self.cff = cff


class FeedbackDirectRConfig:
    """u = cfb@y + r: the reference enters at the plant input directly."""

    __slots__ = ("cfb",)

    def __init__(self, cfb: RatMat) -> None:
        self.cfb = cfb


ClosedLoopConfig = TwoDofConfig | FfFbRConfig | UnityFeedbackConfig | FeedbackDirectRConfig


class DesignResult:
    """A design's loop and its exact maps; ``verdict`` says the loop is
    internally stabilizing."""

    __slots__ = (
        "configuration", "verdict", "x", "xprime", "achieved_t", "achieved_m", "certificates"
    )

    def __init__(
        self,
        configuration: ClosedLoopConfig,
        verdict: StabilityVerdict,
        x: RatMat,
        xprime: RatMat | None,
        achieved_t: RatMat,
        achieved_m: RatMat,
        certificates: tuple[Certificate, ...],
    ) -> None:
        self.configuration, self.verdict, self.x, self.xprime = configuration, verdict, x, xprime
        self.achieved_t, self.achieved_m, self.certificates = achieved_t, achieved_m, certificates


# -- helpers -------------------------------------------------------------------


def _x_from_xprime(smfd: StableMFD, xprime: RatMat) -> RatMat:
    return RatMat([[e / psi for e in row] for row, psi in zip(xprime.rows, smfd.scaling)])


def _xprime_from_x(smfd: StableMFD, x: RatMat) -> RatMat:
    return RatMat([[e * psi for e in row] for row, psi in zip(x.rows, smfd.scaling)])


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
    return _over(PolyMat(x_rows), last * den)


def check_realizable(
    mfd: RightMFD, t: RatMat, m: RatMat | None = None
) -> tuple[RatMat, RatMat, RatMat]:
    """(x, n@x, d@x) for the stable parameter x with n@x = t (and d@x = m
    when given), or DesignObstruction naming what rules it out."""
    p_rows, m_cols = mfd.n.shape
    if t.shape[0] != p_rows:
        raise ShapeError(f"target must have {p_rows} rows, got {t.shape[0]}")
    if m is not None and m.shape != (m_cols, t.shape[1]):
        raise ShapeError(
            f"control target must be {m_cols}x{t.shape[1]}, got {m.shape}"
        )
    pre: list[str] = []
    for label, mat in (("target t", t), ("control target m", m)):
        if mat is None:
            continue
        if not mat.is_proper():
            pre.append(f"{label} is improper")
        verdict = matrix_is_stable(mat)
        if not verdict:
            pre.append(f"{label} is unstable: " + verdict.describe())
    if pre:
        raise DesignObstruction(pre)

    # a control target fixes x = d**-1 @ m (d is nonsingular), else n @ x = t is solved
    x = _solve_polymat(mfd.n, t) if m is None else _solve_polymat(mfd.d, m)
    if x is None:
        raise DesignObstruction(
            ("rank violation: target lies outside the range of the plant numerator",)
        )
    nx = mfd.n.to_ratmat() @ x
    if nx != t:
        if m is None:
            raise ArithmeticError("realizability solve lost exactness: n @ x != t")
        raise DesignObstruction(("inconsistent target pair: n @ d**-1 @ m differs from t",))

    reasons: list[str] = []
    xv = matrix_is_stable(x)
    if not xv:
        reasons.extend(_unstable_zero_diagnosis(mfd, t))
        reasons.append("parameter x is unstable: " + xv.describe())
    if not x.is_proper():
        reasons.append("parameter x is improper (relative-degree violation)")
    dx = mfd.d.to_ratmat() @ x
    if not dx.is_proper():
        reasons.append(
            "control map d@x is improper (target relative degree below the plant's)"
        )
    if reasons:
        raise DesignObstruction(reasons)
    return x, nx, dx


def _design_result(
    smfd: StableMFD,
    x: RatMat,
    xprime: RatMat,
    dx: RatMat,
    achieved_t: RatMat,
    extra: Sequence[Certificate] = (),
) -> DesignResult:
    """The two-dof design of parameter x (x' = diag(psi) @ x, dx = d@x):
    the central cy, and cr = (I - cy@p) @ d@x = v**-1 @ x', formed from
    ``StableMFD.witness_inverse``, realizing y/r = n@x and u/r = d@x."""
    cy, loop = _youla_feedback(smfd)
    if not matrix_is_stable(x):
        raise InadmissibleParameter("parameter x has unstable poles")
    if not dx.is_proper():
        raise InadmissibleParameter("d@x is improper")
    det, adj = smfd.witness_inverse
    x_den, x_num = _over_lcd(xprime)
    cr = _over((adj @ x_num).scale(smfd.witness_row[0]), det * x_den)
    if not cr.is_proper():
        raise InadmissibleParameter("resulting reference map is improper for this feedback map")
    certs = [
        Certificate("parameter x proper and stable", rh_inf_verdict(x)),
        Certificate("control map d@x proper and stable", rh_inf_verdict(dx)),
        Certificate("feedback map internally stabilizing", loop.verdict),
        *extra,
    ]
    return DesignResult(
        configuration=TwoDofConfig(cy=cy, cr=cr),
        verdict=loop.verdict,
        x=x,
        xprime=xprime,
        achieved_t=achieved_t,
        achieved_m=dx,
        certificates=tuple(certs),
    )


def model_matching(
    smfd: StableMFD, t: RatMat, m: RatMat | None = None
) -> DesignResult:
    """Two-degree-of-freedom design achieving y/r = t (and u/r = m when
    prescribed) exactly, or DesignObstruction."""
    x, achieved_t, dx = check_realizable(smfd.source, t, m)
    extra = [
        _equality_certificate(
            "closed-loop response equals the target", achieved_t == t
        )
    ]
    if m is not None:
        extra.append(
            _equality_certificate("control map equals the prescribed m", dx == m)
        )
    return _design_result(smfd, x, _xprime_from_x(smfd, x), dx, achieved_t, extra)


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
    return _design_result(smfd, x, xprime, control, achieved_t, extra)


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
    return _design_result(smfd, x, xprime, control, achieved_t, extra)


# -- static decoupling -----------------------------------------------------------


def _value_at_origin(mat: RatMat) -> RatMat | None:
    """mat(0) as a constant matrix, or None when an entry has a pole at 0."""
    vals = mat.eval_at(Fraction(0))
    if any(v is None for row in vals for v in row):
        return None
    return RatMat([[RatFn.of(v) for v in row] for row in vals])


def _check_static_target(smfd: StableMFD, lam: RatMat) -> None:
    """Refuse a lam that is not a constant nonsingular diagonal matrix
    matching a square plant, a plant singular at every s, and a plant
    with a zero at the origin."""
    if _value_at_origin(lam) != lam:
        raise ValueError("lam must be a constant matrix")
    diagonal = [lam.entry(i, i) for i in range(min(lam.shape))]
    if lam != RatMat.diag(diagonal):
        raise ValueError("lam must be square and diagonal")
    if any(e.is_zero() for e in diagonal):
        raise ValueError("lam must be nonsingular")
    p_rows, m_cols = smfd.nprime.shape
    if p_rows != m_cols or lam.shape[0] != p_rows:
        raise ShapeError("static decoupling requires a square plant matching lam")
    rank = smfd.nprime.rank()
    if rank < p_rows:
        raise DesignObstruction(
            (f"plant is rank deficient (rank n' = {rank} < {p_rows}, singular at every s);"
             " static decoupling impossible",)
        )
    # n' is proper and stable, so it has no pole at the origin
    if _value_at_origin(smfd.nprime).rank() < p_rows:
        raise DesignObstruction(
            ("plant has a zero at the origin (det n'(0) = 0); static decoupling impossible",)
        )


def _dc_precompensator(loop: LoopMaps, lam: RatMat) -> RatMat:
    """cr = G(0)**-1 @ lam for the closed loop G = P(I - cy P)**-1."""
    g0 = _value_at_origin(loop.p_sens)
    if g0 is None:
        raise DesignObstruction(("closed loop has a pole at the origin",))
    try:
        return g0.inv() @ lam
    except SingularMatrixError:
        raise DesignObstruction(
            ("dc gain is singular for this feedback choice; pick another cy",)
        ) from None


def static_decoupling(
    smfd: StableMFD, lam: RatMat, cy: RatMat | None = None
) -> DesignResult:
    """Constant precompensator cr making the closed-loop DC gain equal lam.

    Stable plants use pure precompensation (cy = 0, cr = P(0)**-1 @ lam);
    unstable plants are first closed with a stabilizing feedback map (the
    central one unless supplied; a supplied one must be internally
    stabilizing) and cr = G(0)**-1 @ lam for G = P(I - cy P)**-1.  lam and
    the plant are checked before any controller work."""
    _check_static_target(smfd, lam)
    plant = smfd.plant()
    if cy is None and not matrix_is_stable(plant):
        # the Youla loop's verdict is decided on its one denominator
        cy, youla = _youla_feedback(smfd)
        loop, verdict = youla.maps, youla.verdict
    else:
        if cy is None:
            cy = RatMat.zeros(plant.shape[1], plant.shape[0])
        loop = gang_of_four(plant, cy)
        verdict = loop.verdict
        if not verdict:
            raise DesignObstruction(
                ("supplied feedback map is not internally stabilizing: " + verdict.describe(),)
            )
    cr = _dc_precompensator(loop, lam)
    achieved_t = loop.p_sens @ cr
    achieved_m = loop.sens @ cr
    xprime = smfd.dprime_inv @ achieved_m
    certs = (
        _equality_certificate("dc gain equals lam exactly", _value_at_origin(achieved_t) == lam),
        Certificate("closed loop stable", matrix_is_stable(achieved_t)),
    )
    return DesignResult(
        configuration=TwoDofConfig(cy=cy, cr=cr),
        verdict=verdict,
        x=_x_from_xprime(smfd, xprime),
        xprime=xprime,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


# -- denominator assignment -------------------------------------------------------


def _denominator_target(
    mfd: RightMFD, d_t: PolyMat, unstable: str
) -> tuple[RatMat, RatMat, RatMat]:
    """(x, n@x, d@x) for x = d_t**-1, after refusing a non-square plant, a
    d_t not shaped like d, a singular n or d_t, and a d_t with a
    non-Hurwitz determinant (reason after ``unstable``)."""
    if mfd.outputs != mfd.inputs:
        raise DesignObstruction(("denominator assignment requires a square plant",))
    if d_t.shape != mfd.d.shape:
        raise ShapeError(f"d_t must be {mfd.d.shape}, got {d_t.shape}")
    for mat, label in ((mfd.n, "plant numerator"), (d_t, "target denominator")):
        if polymat_det(mat).is_zero():
            raise DesignObstruction((f"{label} is singular",))
    verdict = is_hurwitz(polymat_det(d_t).monic())
    if not verdict:
        raise DesignObstruction((unstable + verdict.describe(),))
    x = d_t.to_ratmat().inv()
    return x, mfd.n.to_ratmat() @ x, mfd.d.to_ratmat() @ x


def denominator_assignment_unity(mfd: RightMFD, d_t: PolyMat) -> DesignResult:
    """Unity-feedback forward compensator cff = d @ (d_t + n)**-1 driving
    y/r = n @ d_t**-1 exactly.

    The loop is u = cff @ (r + y), so t = p @ (I - cff @ p)**-1 @ cff and
    the design certifies the identity t**-1 + I == cff**-1 @ p**-1."""
    x, achieved_t, achieved_m = _denominator_target(
        mfd, d_t, "target denominator is not Hurwitz: "
    )
    d_rat = mfd.d.to_ratmat()
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
    plant = mfd.plant()
    # I - cff@p = d @ (d_t + n)**-1 @ d_t @ d**-1, so the loop is well posed
    loop = gang_of_four(plant, cff)
    t_inv = achieved_t.inv()
    identity_holds = (
        t_inv + RatMat.identity(mfd.outputs) == cff.inv() @ plant.inv()
    )
    certs = (
        Certificate("stability condition (d_t + n) @ d**-1", cond_verdict),
        _equality_certificate(
            "closed loop equals n @ d_t**-1", loop.p_sens_cy == achieved_t
        ),
        _equality_certificate(
            "identity t**-1 + I == cff**-1 @ p**-1", identity_holds
        ),
        Certificate("unity loop internally stabilizing", loop.verdict),
    )
    return DesignResult(
        configuration=UnityFeedbackConfig(cff=cff),
        verdict=loop.verdict,
        x=x,
        xprime=None,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


def denominator_assignment_direct(mfd: RightMFD, d_t: PolyMat) -> DesignResult:
    """Feedback compensator cfb = (d - d_t) @ n**-1 with the reference
    injected directly at the plant input; y/r = n @ d_t**-1 exactly."""
    x, achieved_t, achieved_m = _denominator_target(mfd, d_t, "x = d_t**-1 is unstable: ")
    cfb = (mfd.d - d_t).to_ratmat() @ mfd.n.to_ratmat().inv()
    if not cfb.is_proper():
        raise DesignObstruction(("feedback compensator (d - d_t) @ n**-1 is improper",))
    plant = mfd.plant()
    # I - cfb@p = d_t @ d**-1, so the loop is well posed
    loop = gang_of_four(plant, cfb)
    identity_holds = (
        achieved_t.inv() - plant.inv() == cfb.scale(RatFn.of(-1))
    )
    certs = (
        _equality_certificate("closed loop equals n @ d_t**-1", loop.p_sens == achieved_t),
        _equality_certificate("identity t**-1 - p**-1 == -cfb", identity_holds),
        Certificate("loop internally stabilizing", loop.verdict),
    )
    return DesignResult(
        configuration=FeedbackDirectRConfig(cfb=cfb),
        verdict=loop.verdict,
        x=x,
        xprime=None,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


# -- unity-feedback restriction ----------------------------------------------------


def unity_feedback_admissible(smfd: StableMFD, xprime: RatMat) -> StabilityVerdict:
    """Whether x' survives the unity-feedback restriction: the map
    f = (I + x'@n') @ d'**-1 must be proper and stable.

    For scalar plants the same restriction is a polynomial divisibility
    statement (d_x*b + n_x*a must contain the plant's unstable
    denominator factors, where n' = a/b and x' = n_x/d_x); both forms are
    evaluated and must agree.
    """
    return _unity_restriction(smfd, xprime)[1]


def _unity_restriction(
    smfd: StableMFD, xprime: RatMat
) -> tuple[RatMat, StabilityVerdict]:
    """The map f of ``unity_feedback_admissible`` with its verdict."""
    m = smfd.dprime.shape[0]
    if xprime.shape[0] != m:
        raise ShapeError(f"x' must have {m} rows, got {xprime.shape[0]}")
    f = (RatMat.identity(m) + xprime @ smfd.nprime) @ smfd.dprime_inv
    verdict = rh_inf_verdict(xprime).merged(rh_inf_verdict(f))
    if (
        smfd.nprime.shape == (1, 1)
        and xprime.shape == (1, 1)
        and matrix_is_stable(xprime)
    ):
        # The divisibility form presumes a stable x' (Hurwitz d_x).
        a, b = smfd.nprime.entry(0, 0).num, smfd.nprime.entry(0, 0).den
        n_x, d_x = xprime.entry(0, 0).num, xprime.entry(0, 0).den
        combo = d_x * b + n_x * a
        divisible = (combo % smfd.unstable_denominator).is_zero()
        if divisible != matrix_is_stable(f).stable:
            raise ArithmeticError(
                "scalar divisibility form disagrees with the matrix form"
            )
    return f, verdict


# the unity scan's largest total degree deg d_x + deg p
UNITY_SCAN_DEGREE = 16


def find_admissible_unity_xprime(smfd: StableMFD) -> RatMat:
    """Scalar solver for the unity-feedback restriction: scan candidate
    degrees (deg d_x, deg p) in increasing total degree, up to
    UNITY_SCAN_DEGREE, and solve d_x*b + n_x*a = p*d_u by coefficient
    matching; d_x = (s+1)^k."""
    if smfd.nprime.shape != (1, 1):
        raise ValueError("the scan solver handles scalar plants only")
    d_u = smfd.unstable_denominator
    if d_u.is_constant():
        candidate = RatMat.identity(1)
        if not _unity_restriction(smfd, candidate)[1]:
            raise ArithmeticError("x' = 1 failed the unity-feedback restriction of a stable plant")
        return candidate
    a, b = smfd.nprime.entry(0, 0).num, smfd.nprime.entry(0, 0).den
    for total in range(0, UNITY_SCAN_DEGREE + 1):
        for deg_dx in range(0, total + 1):
            d_x = (S + ONE) ** deg_dx
            # n_x*a - p*d_u = -d_x*b with deg n_x <= deg d_x, deg p <= total - deg d_x
            solved = poly_row_diophantine(
                PolyMat([[a]]), PolyMat([[-d_u]]), [-(d_x * b)], deg_dx, total - deg_dx
            )
            if solved is None:
                continue
            candidate = RatMat([[RatFn(solved[0][0], d_x)]])
            if _unity_restriction(smfd, candidate)[1]:
                return candidate
    raise DesignObstruction(
        (f"no admissible x' found up to total degree {UNITY_SCAN_DEGREE}",)
    )


def unity_feedback_controller(smfd: StableMFD, xprime: RatMat) -> tuple[RatMat, LoopMaps]:
    """Forward compensator cff = f**-1 @ x' realizing y/r = n'@x' in the
    unity-feedback configuration, for an admissible x', with the loop maps
    of (plant, cff), whose last map it checks equals n'@x'."""
    f, verdict = _unity_restriction(smfd, xprime)
    if not verdict:
        raise DesignObstruction(
            ("unity-feedback restriction failed: " + verdict.describe(),)
        )
    try:
        cff = f.inv() @ xprime
    except SingularMatrixError:
        raise DesignObstruction(
            ("I + x'@n' is singular; the unity loop is ill posed",)
        ) from None
    # I - cff@p = f**-1 @ d'**-1, so the loop is well posed
    loop = gang_of_four(smfd.plant(), cff)
    if loop.p_sens_cy != smfd.nprime @ xprime:
        raise ArithmeticError("unity loop does not realize n' @ x'")
    return cff, loop


# -- controller realization ----------------------------------------------------------


def ff_fb_realization(
    controller: TwoDofConfig, shift: Fraction | int = 1
) -> tuple[RatMat, RatMat, RatMat]:
    """Split a proper pair (cy, cr) into blocks (r, cff, cfb) with
    u = cff@(cfb@y + r_map@r): left fraction [cy, cr] = dl**-1 @ [nly, nlr],
    rows scaled by powers of (s + shift) so that cfb and r are proper
    stable and cff**-1 is proper stable."""
    cy, cr = controller.cy, controller.cr
    if not (cy.is_proper() and cr.is_proper()):
        raise ValueError("realization requires a proper controller")
    dc, nl = stable_left_mfd(left_coprime_mfd(hstack(cy, cr)), shift)
    p_cols = cy.shape[1]
    cfb = RatMat([row[:p_cols] for row in nl.rows])
    r_map = RatMat([row[p_cols:] for row in nl.rows])
    cff = dc.inv()
    if cff @ cfb != cy or cff @ r_map != cr:
        raise ArithmeticError("realization blocks do not reproduce (cy, cr)")
    return r_map, cff, cfb


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
