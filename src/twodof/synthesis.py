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

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .factor import (
    RightMFD,
    StableMFD,
    _factor_roots,
    _fmt_root,
    _left_null_direction,
    _root_unstable,
    _zero_polynomial,
    left_coprime_mfd,
    stable_left_mfd,
)
from .polyalg import (
    ONE,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    ShapeError,
    SingularMatrixError,
    _is_product,
    _over,
    _over_lcd,
    _polymat_det_adj,
    _solve_polymat,
    hstack,
    poly_divmod,
    polymat_det,
)
from .stability import (
    REASON_IMPROPER,
    StabilityVerdict,
    _routh_is_hurwitz,
    is_hurwitz,
    is_stable,
    matrix_is_stable,
    rh_inf_verdict,
)
from .stabilize import (
    TwoDofConfig,
    _Loop,
    _fraction_loop,
    _stabilizing_feedback,
    _stabilizing_feedbacks,
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


class Certificate(namedtuple("Certificate", "name verdict")):
    """A named, checked condition with its verdict."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict.stable

    def describe(self) -> str:
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.verdict.describe()})"


def _equality_certificate(name: str, holds: bool) -> Certificate:
    return Certificate(name, StabilityVerdict(holds))


class DesignObstruction(Exception):
    """A design problem has no admissible solution; reasons attached."""

    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(self.reasons))


# -- closed-loop configurations ----------------------------------------------


# u = cff@(cfb@y + r_map@r): a feedforward block behind a feedback block and
# a reference prefilter, r_map held as r
FfFbRConfig = namedtuple("FfFbRConfig", "r cff cfb")
# u = cff@(r + y): the measured output is added to the reference
UnityFeedbackConfig = namedtuple("UnityFeedbackConfig", "cff")
# u = cfb@y + r: the reference enters at the plant input directly
FeedbackDirectRConfig = namedtuple("FeedbackDirectRConfig", "cfb")

ClosedLoopConfig = TwoDofConfig | FfFbRConfig | UnityFeedbackConfig | FeedbackDirectRConfig

# A design's loop (a ClosedLoopConfig) and its exact maps; ``verdict`` says
# the loop is internally stabilizing, and ``xprime`` is None when the design
# has no x'.
DesignResult = namedtuple(
    "DesignResult", "configuration verdict x xprime achieved_t achieved_m certificates"
)


# -- helpers -------------------------------------------------------------------


def _verdict_zero_factors(n: PolyMat, verdict: StabilityVerdict) -> list[Poly]:
    """The pole factors ``verdict`` names that divide the zero polynomial of
    n, which is not factored, each once, in ``irreducible_factors`` order:
    degree, then multiplicity in the zero polynomial, then coefficients."""
    zero_poly = _zero_polynomial(n)
    mults: dict[Poly, int] = {}
    for factor, reason in verdict.offending_factors:
        if reason == REASON_IMPROPER or factor in mults:
            continue
        rest, mult = zero_poly, 0
        while (split := poly_divmod(rest, factor))[1].is_zero():
            rest, mult = split[0], mult + 1
        if mult:
            mults[factor] = mult
    return sorted(mults, key=lambda q: (len(q._z), mults[q], q._z[::-1]))


def _verdict_zero_points(n: PolyMat, verdict: StabilityVerdict) -> list[Fraction]:
    """The roots of the linear ``_verdict_zero_factors``: the rational
    unstable zeros of n that ``verdict`` names."""
    return [-q.coeff(0) for q in _verdict_zero_factors(n, verdict) if q.degree() == 1]


def _unstable_zero_diagnosis(mfd: RightMFD, t: RatMat, xv: StabilityVerdict) -> list[str]:
    """Name the plant's unstable zeros the target fails to inherit, read off
    ``xv``, the verdict on the parameter x with n@x = t.

    A reason at z needs eta^T n(z) = 0 and eta^T t(z) != 0, and then x has
    a pole at z: the candidates are the points ``_verdict_zero_points``
    reads off ``xv``; irrational zeros are left to the verdict.  Each z >= 0
    is a root of the zero polynomial, so n(z) loses rank and eta exists, and
    t, stable (``check_realizable``), has no pole there.
    """
    reasons: list[str] = []
    for z in _verdict_zero_points(mfd.n, xv):
        vals = t.eval_at(z)
        eta = _left_null_direction(mfd.n, z)
        combo = [sum(eta[i] * vals[i][j] for i in range(len(eta))) for j in range(t.shape[1])]
        if any(c != 0 for c in combo):
            reasons.append(
                f"plant unstable zero at s = {z} is not inherited by the target"
                f" (direction eta with eta^T N({z}) = 0 has eta^T T({z}) != 0)"
            )
    return reasons


# -- model matching ------------------------------------------------------------


def _target_reasons(label: str, mat: RatMat) -> list[str]:
    """The reasons ``mat``, named ``label``, is not a proper stable target."""
    reasons = [] if mat.is_proper() else [f"{label} is improper"]
    verdict = matrix_is_stable(mat)
    if not verdict:
        reasons.append(f"{label} is unstable: " + verdict.describe())
    return reasons


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
    pre = _target_reasons("target t", t)
    if m is not None:
        pre += _target_reasons("control target m", m)
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
        reasons.extend(_unstable_zero_diagnosis(mfd, t, xv))
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
    cy and cr = (v - k@nl')**-1 @ x' of ``_stabilizing_feedback``, the
    central k = 0 unless it is refused, realizing y/r = n@x and u/r = d@x."""
    cy, cr, loop = _stabilizing_feedback(smfd, xprime)[1:]
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
    return _design_result(smfd, x, smfd.xprime_of(x), dx, achieved_t, extra)


# -- decoupling and inversion ---------------------------------------------------


def _decoupling_zero_diagnosis(
    smfd: StableMFD, targets: Sequence[RatFn], xprime: RatMat, verdict: StabilityVerdict
) -> list[str]:
    """Name, at each point z ``_verdict_zero_points`` reads off the verdict
    on x', the targets t_i(z) != 0 whose column of x' has a pole at z."""
    reasons = []
    for z in _verdict_zero_points(smfd.source.n, verdict):
        misses = [
            i + 1
            for i, tgt in enumerate(targets)
            if tgt.at(z) not in (None, Fraction(0))
            and any(row[i].den(z) == 0 for row in xprime.rows)
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
    pre = [reason for i, tgt in enumerate(targets)
           for reason in _target_reasons(f"target {i + 1}", RatMat(((tgt,),)))]
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
        reasons = _decoupling_zero_diagnosis(smfd, targets, xprime, verdict)
        if not verdict:
            reasons.append("parameter x' not proper-stable: " + verdict.describe())
        if not control.is_proper():
            reasons.append("control map d'@x' is improper")
        raise DesignObstruction(reasons)
    x = smfd.x_of(xprime)
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
        # every unstable zero of the square plant is a pole of x' the verdict names
        reasons = ["exact inversion impossible for this plant"]
        for factor in _verdict_zero_factors(smfd.source.n, verdict):
            try:
                zs = [_fmt_root(z) for z in _factor_roots(factor) if _root_unstable(z, False)]
                reasons += [f"plant has an unstable zero at s = {z}" for z in zs]
            except ArithmeticError:  # roots no float holds: the factor names them
                reasons.append(f"plant has an unstable zero among the roots of {factor}")
        if not xprime.is_proper() or not control.is_proper():
            reasons.append("plant has positive relative degree (n'**-1 improper)")
        if not verdict.stable:
            reasons.append("parameter verdict: " + verdict.describe())
        raise DesignObstruction(reasons)
    identity = RatMat.identity(p_rows)
    achieved_t = smfd.nprime @ xprime
    if achieved_t != identity:
        raise ArithmeticError("inversion lost exactness: n' @ n'**-1 != I")
    x = smfd.x_of(xprime)
    extra = [_equality_certificate("closed-loop response equals I", achieved_t == identity)]
    return _design_result(smfd, x, xprime, control, achieved_t, extra)


# -- static decoupling -----------------------------------------------------------


def _value_at_origin(mat: RatMat) -> RatMat | None:
    """mat(0) as a constant matrix, or None when an entry has a pole at 0."""
    vals = mat.eval_at(Fraction(0))
    if any(v is None for row in vals for v in row):
        return None
    return RatMat(vals)


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


def static_decoupling(smfd: StableMFD, lam: RatMat) -> DesignResult:
    """Constant precompensator cr making the closed-loop DC gain equal lam.

    Stable plants use pure precompensation (cy = 0, cr = P(0)**-1 @ lam);
    unstable plants are first closed with the first feedback map of
    ``_stabilizing_feedbacks`` whose dc gain G(0) is nonsingular (one is,
    as n'(0) is), and cr = G(0)**-1 @ lam for G = P(I - cy P)**-1, which
    has no pole at 0: every loop tried is stable.  lam and the plant are
    checked before any controller work.  The source fraction n @ d**-1 is
    right coprime, so the plant is stable exactly when det d is Hurwitz;
    it is not formed."""
    _check_static_target(smfd, lam)
    n, d = smfd.source.n, smfd.source.d
    if _routh_is_hurwitz(polymat_det(d)):
        cy = RatMat.zeros(*n.shape[::-1])
        loops = [(cy, _fraction_loop(d, n, *_over_lcd(cy)))]
    else:
        loops = ((cy, loop) for _, cy, _, loop in _stabilizing_feedbacks(smfd))
    for cy, loop in loops:  # some loop's dc gain is nonsingular (``_candidates``)
        maps = loop.maps
        dc_gain = _value_at_origin(maps.p_sens)
        if dc_gain.rank() == len(dc_gain.rows):
            break
    cr = dc_gain.inv() @ lam
    achieved_t = maps.p_sens @ cr
    achieved_m = maps.sens @ cr
    xprime = smfd.dprime_inv @ achieved_m
    certs = (
        _equality_certificate("dc gain equals lam exactly", _value_at_origin(achieved_t) == lam),
        Certificate("closed loop stable", matrix_is_stable(achieved_t)),
    )
    return DesignResult(
        configuration=TwoDofConfig(cy=cy, cr=cr),
        verdict=loop.verdict,
        x=smfd.x_of(xprime),
        xprime=xprime,
        achieved_t=achieved_t,
        achieved_m=achieved_m,
        certificates=certs,
    )


# -- denominator assignment -------------------------------------------------------


def _det_adj(mat: PolyMat, singular: str) -> tuple[Poly, PolyMat]:
    """``_polymat_det_adj(mat)``, refusing a singular mat with ``singular``."""
    try:
        return _polymat_det_adj(mat)
    except SingularMatrixError:
        raise DesignObstruction((singular,)) from None


def _denominator_target(
    mfd: RightMFD, d_t: PolyMat, unstable: str
) -> tuple[RatMat, RatMat, RatMat, tuple[Poly, PolyMat]]:
    """(x, n@x, d@x, (det n, adj n)) for x = d_t**-1, after refusing a
    non-square plant, a d_t not shaped like d, a singular n or d_t, and a
    d_t with a non-Hurwitz determinant (reason after ``unstable``); each
    determinant is taken once."""
    if mfd.outputs != mfd.inputs:
        raise DesignObstruction(("denominator assignment requires a square plant",))
    if d_t.shape != mfd.d.shape:
        raise ShapeError(f"d_t must be {mfd.d.shape}, got {d_t.shape}")
    n_det_adj = _det_adj(mfd.n, "plant numerator is singular")
    det, adj = _det_adj(d_t, "target denominator is singular")
    verdict = is_hurwitz(det.monic())
    if not verdict:
        raise DesignObstruction((unstable + verdict.describe(),))
    x = _over(adj, det)
    return x, mfd.n.to_ratmat() @ x, mfd.d.to_ratmat() @ x, n_det_adj


def denominator_assignment_unity(mfd: RightMFD, d_t: PolyMat) -> DesignResult:
    """Unity-feedback forward compensator cff = d @ adj S / det S, S =
    d_t + n, driving y/r = n @ d_t**-1 exactly.

    The loop is u = cff @ (r + y), so t = p @ (I - cff @ p)**-1 @ cff; the
    design certifies t**-1 + I == cff**-1 @ p**-1 as d @ adj S @ S ==
    det S * d."""
    x, achieved_t, achieved_m, _ = _denominator_target(
        mfd, d_t, "target denominator is not Hurwitz: "
    )
    total = d_t + mfd.n
    det, adj = _det_adj(total, "d_t + n is singular; no compensator exists")
    cond_verdict = matrix_is_stable(total.to_ratmat() @ mfd.d.to_ratmat().inv())
    if not cond_verdict:
        raise DesignObstruction(
            ("stability condition (d_t + n) @ d**-1 failed: " + cond_verdict.describe(),)
        )
    num = mfd.d @ adj
    cff = _over(num, det)
    if not cff.is_proper():
        raise DesignObstruction(("compensator d @ (d_t + n)**-1 is improper",))
    # I - cff@p = d @ (d_t + n)**-1 @ d_t @ d**-1, so the loop is well posed
    loop = _fraction_loop(mfd.d, mfd.n, det, num)
    certs = (
        Certificate("stability condition (d_t + n) @ d**-1", cond_verdict),
        _equality_certificate(
            "closed loop equals n @ d_t**-1", loop.maps.p_sens_cy == achieved_t
        ),
        _equality_certificate(
            "identity t**-1 + I == cff**-1 @ p**-1", _is_product(num, total, det, mfd.d)
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
    """Feedback compensator cfb = (d - d_t) @ adj n / det n, the reference
    entering at the plant input: y/r = n @ d_t**-1, and t**-1 - p**-1 ==
    -cfb is certified as (d - d_t) @ adj n @ n == det n * (d - d_t)."""
    x, achieved_t, achieved_m, (det, adj) = _denominator_target(
        mfd, d_t, "x = d_t**-1 is unstable: "
    )
    gap = mfd.d - d_t
    num = gap @ adj
    cfb = _over(num, det)
    if not cfb.is_proper():
        raise DesignObstruction(("feedback compensator (d - d_t) @ n**-1 is improper",))
    # I - cfb@p = d_t @ d**-1, so the loop is well posed
    loop = _fraction_loop(mfd.d, mfd.n, det, num)
    certs = (
        _equality_certificate("closed loop equals n @ d_t**-1", loop.maps.p_sens == achieved_t),
        _equality_certificate(
            "identity t**-1 - p**-1 == -cfb", _is_product(num, mfd.n, det, gap)
        ),
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
            raise ArithmeticError("scalar divisibility form disagrees with the matrix form")
    return f, verdict


def find_admissible_unity_xprime(smfd: StableMFD) -> RatMat:
    """An admissible x' for the unity loop u = cff@(r + y), read off the
    Youla controller: x' = -(u + k@dl') for the k of
    ``_stabilizing_feedback`` (x' = -u where k = None is k = 0).

    The unity loop is the 2-DOF loop with cr = cy, and the Bezout identity
    (v - k@nl')@d' + (u + k@dl')@n' = I gives I + x'@n' = (v - k@nl')@d',
    so f = (I + x'@n')@d'**-1 = v - k@nl' is proper and stable and
    cff = f**-1@x' = -(v - k@nl')**-1@(u + k@dl') = cy (Youla, Jabr &
    Bongiorno 1976; Vidyasagar 1985, ch. 5).  ``_youla_feedback`` checks
    that identity for this k.
    """
    k = _stabilizing_feedback(smfd)[0]
    return -(smfd.u if k is None else smfd.u + k @ smfd.dl_prime)


def unity_feedback_controller(smfd: StableMFD, xprime: RatMat) -> tuple[RatMat, _Loop]:
    """Forward compensator cff = f**-1 @ x' realizing y/r = n'@x' in the
    unity-feedback configuration, for an admissible x', with the loop of
    (plant, cff) as ``_fraction_loop`` forms it: its ``verdict`` is decided
    on its one denominator, and its last map (of ``maps``) is checked to
    equal n'@x'."""
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
    loop = _fraction_loop(smfd.source.d, smfd.source.n, *_over_lcd(cff))
    if loop.maps.p_sens_cy != smfd.nprime @ xprime:
        raise ArithmeticError("unity loop does not realize n' @ x'")
    return cff, loop


# -- controller realization ----------------------------------------------------------


def ff_fb_realization(controller: TwoDofConfig, shift: Fraction | int = 1) -> FfFbRConfig:
    """Split a proper pair (cy, cr) into the blocks of an ``FfFbRConfig`` with
    u = cff@(cfb@y + r_map@r): left fraction [cy, cr] = dl**-1 @ [nly, nlr],
    rows scaled by powers of (s + shift) so that cfb and r are proper
    stable and cff**-1 is proper stable."""
    cy, cr = controller.cy, controller.cr
    if not (cy.is_proper() and cr.is_proper()):
        raise ValueError("realization requires a proper controller")
    dc, nl = stable_left_mfd(left_coprime_mfd(hstack(cy, cr)), shift)
    p_cols = cy.shape[1]
    cfb = RatMat(tuple(row[:p_cols] for row in nl.rows))
    r_map = RatMat(tuple(row[p_cols:] for row in nl.rows))
    cff = dc.inv()
    if cff @ cfb != cy or cff @ r_map != cr:
        raise ArithmeticError("realization blocks do not reproduce (cy, cr)")
    return FfFbRConfig(r_map, cff, cfb)


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
