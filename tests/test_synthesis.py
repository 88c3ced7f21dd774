import random
from fractions import Fraction

import pytest

from twodof.cli import parse_matrix
from twodof.factor import right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, ZERO, Poly, PolyMat, RatFn, RatMat
from twodof.stability import StabilityVerdict, matrix_is_rh_inf
from twodof.stabilize import TwoDofController, is_internally_stabilizing
from twodof.synthesis import (
    Certificate,
    DenominatorAssignment,
    DesignObstruction,
    DiagonalDecoupling,
    Inverse,
    ModelMatching,
    Obstruction,
    StaticDecoupling,
    check_realizable,
    denominator_assignment_direct,
    denominator_assignment_unity,
    diagonal_decoupling,
    direct_feedback_from_x,
    ff_fb_realization,
    find_admissible_unity_xprime,
    inverse_problem,
    model_matching,
    siso_conditions,
    solve_design,
    static_decoupling,
    unity_feedback_admissible,
    unity_feedback_controller,
)


def rf(num, den=ONE):
    return RatFn(num, den)


def example_plant_data():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    return plant, stable_mfd(right_coprime_mfd(plant), shift=2)


def triangular_plant_data():
    plant = RatMat(
        [
            [rf(ONE, S + ONE), rf(ONE, S + 2 * ONE)],
            [rf(ZERO), rf(ONE, S + 3 * ONE)],
        ]
    )
    return plant, stable_mfd(right_coprime_mfd(plant), shift=1)


def test_check_realizable_accepts_matched_target():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    x = check_realizable(smfd.source, t)
    assert not isinstance(x, Obstruction)
    assert x.entry(0, 0) == rf(ONE, (S + ONE) ** 2 * (S + 2 * ONE))


def test_check_realizable_rejects_missing_zero():
    plant, smfd = example_plant_data()
    out = check_realizable(smfd.source, RatMat([[rf(ONE, S + ONE)]]))
    assert isinstance(out, Obstruction)
    assert not out
    assert "s = 1" in str(out)


def test_check_realizable_rejects_improper_and_unstable_targets():
    plant, smfd = example_plant_data()
    out = check_realizable(smfd.source, RatMat([[rf(S ** 2, S + ONE)]]))
    assert isinstance(out, Obstruction) and "improper" in str(out)
    out = check_realizable(smfd.source, RatMat([[rf(ONE, S - ONE)]]))
    assert isinstance(out, Obstruction) and "unstable" in str(out)


def test_check_realizable_relative_degree_limit():
    # plant with relative degree 2: a biproper target needs d@x improper
    plant = RatMat([[rf(ONE, (S + ONE) ** 2)]])
    mfd = right_coprime_mfd(plant)
    out = check_realizable(mfd, RatMat([[rf(S, S + ONE)]]))
    assert isinstance(out, Obstruction)
    assert "improper" in str(out)



def test_check_realizable_rank_deficient_numerator():
    tall = right_coprime_mfd(parse_matrix("1/(s+1); 2/(s+1)"))
    out = check_realizable(tall, parse_matrix("1/(s+1); 1/(s+1)"))
    assert isinstance(out, Obstruction)
    assert out.reasons == (
        "rank violation: target lies outside the range of the plant numerator",
    )
    x = check_realizable(tall, parse_matrix("1/(s+2); 2/(s+2)"))
    assert x == parse_matrix("1/(s+2)")

    # rank 1 square plant: the free column of x is zero
    square = right_coprime_mfd(parse_matrix("1/(s+1), 1/(s+1); 1/(s+2), 1/(s+2)"))
    x = check_realizable(square, parse_matrix("1/(s+3); (s+1)/((s+2)*(s+3))"))
    assert x == parse_matrix("1/(s^2+5*s+6); 0")

def test_model_matching_example():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    res = model_matching(smfd, t)
    assert res.xprime.entry(0, 0) == rf(S + 2 * ONE, (S + ONE) ** 2)
    assert res.achieved_t == t
    assert all(c.passed for c in res.certificates)
    # the produced two-dof loop really places the response
    sens = (RatMat.identity(1) - res.controller.cy @ plant).inv()
    assert plant @ sens @ res.controller.cr == t


def test_model_matching_with_control_target():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    m = smfd.source.d.to_ratmat() @ RatMat(
        [[rf(ONE, (S + ONE) ** 2 * (S + 2 * ONE))]]
    )
    res = model_matching(smfd, t, m)
    assert res.achieved_m == m
    bad_m = m + RatMat.identity(1)
    with pytest.raises(DesignObstruction):
        model_matching(smfd, t, bad_m)


def test_model_matching_obstruction_raises():
    plant, smfd = example_plant_data()
    with pytest.raises(DesignObstruction) as err:
        model_matching(smfd, RatMat([[rf(ONE, S + ONE)]]))
    assert any("s = 1" in reason for reason in err.value.reasons)


def test_diagonal_decoupling_triangular_plant():
    plant, smfd = triangular_plant_data()
    targets = (rf(ONE, S + ONE), rf(2 * ONE, S + 3 * ONE))
    res = diagonal_decoupling(smfd, targets)
    assert res.achieved_t == RatMat.diag(list(targets))
    assert res.achieved_t.entry(0, 1) == rf(ZERO)
    assert res.achieved_t.entry(1, 0) == rf(ZERO)
    assert all(c.passed for c in res.certificates)


def test_diagonal_decoupling_blocked_by_unstable_zero():
    # 2x2 plant with transmission zero at s = 1 entangled across channels
    plant = RatMat(
        [
            [rf(S - ONE, (S + ONE) ** 2), rf(ONE, S + ONE)],
            [rf(ZERO), rf(ONE, S + 2 * ONE)],
        ]
    )
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    with pytest.raises(DesignObstruction) as err:
        diagonal_decoupling(smfd, (rf(ONE, S + ONE), rf(ONE, S + ONE)))
    assert any("s = 1" in r for r in err.value.reasons)
    # the zero direction couples both channels here, so both targets
    # must vanish at it before the design goes through
    blocked = rf(S - ONE, (S + ONE) ** 2)
    res = diagonal_decoupling(smfd, (blocked, blocked))
    assert res.achieved_t == RatMat.diag([blocked, blocked])


def test_inverse_problem_biproper_plant():
    plant = RatMat([[rf(S + 2 * ONE, S + ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    res = inverse_problem(smfd)
    assert res.achieved_t == RatMat.identity(1)
    assert all(c.passed for c in res.certificates)


def test_inverse_problem_blocked_by_relative_degree():
    plant, smfd = triangular_plant_data()
    with pytest.raises(DesignObstruction) as err:
        inverse_problem(smfd)
    assert any("relative degree" in r for r in err.value.reasons)


def test_inverse_problem_blocked_by_unstable_zero():
    plant = RatMat([[rf(S - ONE, S + ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    with pytest.raises(DesignObstruction) as err:
        inverse_problem(smfd)
    assert any("unstable zero at s = 1" in r for r in err.value.reasons)


def test_static_decoupling_stable_plant():
    plant, smfd = triangular_plant_data()
    cr = static_decoupling(smfd, RatMat.identity(2))
    expected = RatMat(
        [[rf(ONE), rf(Poly((Fraction(-3, 2),)))], [rf(ZERO), rf(3 * ONE)]]
    )
    assert cr == expected
    gain = (plant @ cr).eval_at(Fraction(0))
    assert [list(row) for row in gain] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_static_decoupling_unstable_plant_uses_feedback():
    plant = RatMat(
        [
            [rf(ONE, S - ONE), rf(ZERO)],
            [rf(ZERO), rf(ONE, S + 2 * ONE)],
        ]
    )
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    lam = RatMat.diag([rf(ONE), rf(2 * ONE)])
    res = solve_design(smfd, StaticDecoupling(lam=lam))
    assert all(c.passed for c in res.certificates), [
        c.describe() for c in res.certificates
    ]
    gain = res.achieved_t.eval_at(Fraction(0))
    assert [list(row) for row in gain] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(2)],
    ]


def test_static_decoupling_validates_lambda():
    plant, smfd = triangular_plant_data()
    with pytest.raises(ValueError):
        static_decoupling(smfd, RatMat([[rf(S)]]))  # not constant
    with pytest.raises(ValueError):
        static_decoupling(
            smfd, RatMat([[rf(ONE), rf(ONE)], [rf(ZERO), rf(ONE)]])
        )  # not diagonal
    with pytest.raises(ValueError):
        static_decoupling(smfd, RatMat.zeros(2, 2))  # singular


def test_static_decoupling_blocked_by_zero_at_origin():
    plant = RatMat([[rf(S, S + ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    with pytest.raises(DesignObstruction) as err:
        static_decoupling(smfd, RatMat.identity(1))
    assert any("origin" in r for r in err.value.reasons)


def test_denominator_assignment_unity_instance():
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    d_t = PolyMat([[Poly((Fraction(-1, 2), Fraction(-1, 4)))]])  # -s/4 - 1/2
    res = denominator_assignment_unity(mfd, d_t)
    assert res.configuration.cff == RatMat([[rf(-4 * ONE)]])
    assert res.achieved_t == RatMat([[rf(-4 * ONE, S + 2 * ONE)]])
    assert all(c.passed for c in res.certificates), [
        c.describe() for c in res.certificates
    ]


def test_denominator_assignment_direct_instance():
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    res = denominator_assignment_direct(mfd, PolyMat([[S + 2 * ONE]]))
    assert res.configuration.cfb == RatMat([[rf(-4 * ONE)]])
    assert res.achieved_t == RatMat([[rf(ONE, S + 2 * ONE)]])
    assert all(c.passed for c in res.certificates)


def test_denominator_assignment_rejects_non_hurwitz_target():
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    with pytest.raises(DesignObstruction):
        denominator_assignment_unity(mfd, PolyMat([[S - ONE]]))
    with pytest.raises(DesignObstruction):
        denominator_assignment_direct(mfd, PolyMat([[S - ONE]]))


def test_denominator_assignment_two_by_two():
    rng = random.Random(67)
    hits = 0
    for _ in range(8):
        d = PolyMat.diag(
            [
                (S + Poly((Fraction(rng.randint(1, 4)),))) * (S + ONE),
                (S + Poly((Fraction(rng.randint(1, 4)),))) * (S + 2 * ONE),
            ]
        )
        n = PolyMat(
            [
                [Poly((Fraction(rng.randint(1, 3)),)), Poly((Fraction(rng.randint(0, 2)),))],
                [ZERO, Poly((Fraction(rng.randint(1, 3)),))],
            ]
        )
        plant = n.to_ratmat() @ d.to_ratmat().inv()
        mfd = right_coprime_mfd(plant)
        # shift the assigned denominator by a constant so the direct
        # compensator (d - d_t) @ n**-1 stays proper
        half = Poly((Fraction(1, 2),))
        d_t = d - PolyMat.diag([half, half])
        try:
            res = denominator_assignment_unity(mfd, d_t)
        except DesignObstruction:
            continue
        hits += 1
        assert res.achieved_t == mfd.n.to_ratmat() @ d_t.to_ratmat().inv()
        res2 = denominator_assignment_direct(mfd, d_t)
        assert res2.achieved_t == res.achieved_t
    assert hits > 0


def test_unity_feedback_admissibility_instances():
    plant, smfd = example_plant_data()
    assert not unity_feedback_admissible(
        smfd, RatMat([[rf(S + 2 * ONE, (S + ONE) ** 2)]])
    )
    witness = RatMat([[rf(3 * S - 42 * ONE, (S + ONE) ** 2)]])
    assert unity_feedback_admissible(smfd, witness)
    cff = unity_feedback_controller(smfd, witness)
    assert cff.entry(0, 0) == rf(3 * S - 42 * ONE, (S + 11 * ONE) * (S + 2 * ONE))
    assert is_internally_stabilizing(plant, cff)


def test_unity_feedback_controller_rejects_inadmissible():
    plant, smfd = example_plant_data()
    with pytest.raises(DesignObstruction):
        unity_feedback_controller(smfd, RatMat([[rf(S + 2 * ONE, (S + ONE) ** 2)]]))


def test_find_admissible_unity_xprime_scans():
    plant, smfd = example_plant_data()
    xprime = find_admissible_unity_xprime(smfd)
    assert unity_feedback_admissible(smfd, xprime)
    entry = xprime.entry(0, 0)
    combo = entry.den * (S + 2 * ONE) + entry.num * (S - ONE)
    _, rem = divmod(combo, (S - 2 * ONE) ** 2)
    assert rem.is_zero()


def test_find_admissible_unity_xprime_stable_plant_shortcut():
    plant = RatMat([[rf(ONE, S + ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    assert find_admissible_unity_xprime(smfd) == RatMat.identity(1)


def test_unity_closed_loop_matches_parameter():
    plant, smfd = example_plant_data()
    witness = RatMat([[rf(3 * S - 42 * ONE, (S + ONE) ** 2)]])
    cff = unity_feedback_controller(smfd, witness)
    loop = (RatMat.identity(1) - plant @ cff).inv() @ plant @ cff
    assert loop == smfd.nprime @ witness
    control = (RatMat.identity(1) - cff @ plant).inv() @ cff
    assert control == smfd.dprime @ witness


def test_ff_fb_realization_roundtrip():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    res = model_matching(smfd, t)
    r_map, cff, cfb = ff_fb_realization(res.controller, shift=2)
    assert cff @ cfb == res.controller.cy
    assert cff @ r_map == res.controller.cr
    assert matrix_is_rh_inf(r_map)
    assert matrix_is_rh_inf(cfb)
    assert matrix_is_rh_inf(cff.inv())


def test_ff_fb_realization_trivial_split():
    triv = TwoDofController(
        cy=RatMat([[rf(ZERO)]]), cr=RatMat([[rf(ONE, (S + ONE) ** 2)]])
    )
    r_map, cff, cfb = ff_fb_realization(triv, shift=1)
    assert cff == RatMat.identity(1)
    assert cfb == RatMat([[rf(ZERO)]])
    assert r_map == triv.cr


def test_ff_fb_realization_requires_proper_controller():
    improper = TwoDofController(cy=RatMat([[rf(S)]]), cr=RatMat([[rf(ONE)]]))
    with pytest.raises(ValueError):
        ff_fb_realization(improper)


def test_direct_feedback_from_x():
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    cfb = direct_feedback_from_x(mfd, RatMat([[rf(ONE, S + 2 * ONE)]]))
    assert cfb == RatMat([[rf(-4 * ONE)]])
    with pytest.raises(ValueError):
        direct_feedback_from_x(mfd, RatMat([[rf(ZERO)]]))  # singular x
    with pytest.raises(ValueError):
        direct_feedback_from_x(mfd, RatMat([[rf(ONE, S - ONE)]]))  # unstable x


def test_siso_conditions_signs():
    plant = rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)
    t_bad = rf(S - ONE, (S + ONE) ** 2)
    assert not siso_conditions(plant, t_bad)
    witness_t = rf(
        (S - ONE) * (3 * S - 42 * ONE), (S + 2 * ONE) * (S + ONE) ** 2
    )
    assert siso_conditions(plant, witness_t)
    # the negative-feedback variant asks (1 - t)/d to be stable instead
    neg_plant = rf(ONE, S - ONE)
    t = rf(ONE, S + ONE)  # 1 - t = s/(s+1): kills no unstable pole
    assert not siso_conditions(neg_plant, t, sign=-1)
    t2 = rf(2 * ONE, S + ONE)  # 1 - t2 = (s-1)/(s+1)
    assert siso_conditions(neg_plant, t2, sign=-1)


def test_solve_design_dispatch():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    assert solve_design(smfd, ModelMatching(t=t)).achieved_t == t
    tri_plant, tri = triangular_plant_data()
    res = solve_design(tri, DiagonalDecoupling(targets=(rf(ONE, S + ONE), rf(ONE, S + ONE))))
    assert res.achieved_t == RatMat.diag([rf(ONE, S + ONE), rf(ONE, S + ONE)])
    with pytest.raises(DesignObstruction):
        solve_design(tri, Inverse())
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    res = solve_design(
        stable_mfd(mfd, shift=1),
        DenominatorAssignment(d_t=PolyMat([[S + 2 * ONE]]), loop="direct"),
    )
    assert res.configuration.cfb == RatMat([[rf(-4 * ONE)]])
    with pytest.raises(ValueError):
        solve_design(
            stable_mfd(mfd, shift=1),
            DenominatorAssignment(d_t=PolyMat([[S + 2 * ONE]]), loop="sideways"),
        )


def test_certificate_reporting():
    good = Certificate("sample check", StabilityVerdict(True))
    assert good.passed
    assert "PASS" in good.describe()
    bad = Certificate("sample check", StabilityVerdict(False, ((S - ONE, "root in the open right half-plane"),)))
    assert not bad.passed
    assert "FAIL" in bad.describe()
    assert "s - 1" in bad.describe()
