"""Exact two-degree-of-freedom controller synthesis via polynomial matrix fractions."""

from twodof.polyalg import (  # noqa: F401
    ONE,
    S,
    Poly,
    PolyMat,
    RatFn,
    RatMat,
    ShapeError,
    SingularMatrixError,
    hermite,
    poly_divmod,
    poly_gcd,
    polymat_det,
)
from twodof.stability import (  # noqa: F401
    StabilityVerdict,
    is_hurwitz,
    is_stable,
    matrix_is_stable,
    rh_inf_verdict,
)
from twodof.factor import (  # noqa: F401
    LeftMFD,
    RightMFD,
    StableMFD,
    left_coprime_mfd,
    right_coprime_mfd,
    stable_mfd,
    zeros_and_poles,
)
from twodof.stabilize import (  # noqa: F401
    IllPosedLoop,
    InadmissibleParameter,
    TwoDofConfig,
    all_controllers_from_LX,
    gang_of_four,
    solve_bezout,
    youla_controller,
)
from twodof.synthesis import (  # noqa: F401
    Certificate,
    DesignObstruction,
    DesignResult,
    check_realizable,
    denominator_assignment_direct,
    denominator_assignment_unity,
    diagonal_decoupling,
    ff_fb_realization,
    find_admissible_unity_xprime,
    inverse_problem,
    model_matching,
    siso_conditions,
    static_decoupling,
    unity_feedback_admissible,
    unity_feedback_controller,
)
from twodof.verify import (  # noqa: F401
    certify,
    closed_loop,
    dc_gain,
    simulate_step,
)

__version__ = "0.1.0"
