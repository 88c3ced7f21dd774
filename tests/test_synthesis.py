import random
from fractions import Fraction

import pytest

from twodof.cli import main, parse_matrix, parse_poly_matrix
from twodof.factor import right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, ZERO, Poly, PolyMat, RatFn, RatMat, ShapeError
from twodof.stability import StabilityVerdict, rh_inf_verdict
from twodof.stabilize import TwoDofConfig, _stabilizing_feedback, gang_of_four
from twodof.synthesis import (
    Certificate,
    DesignObstruction,
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
from twodof.verify import dc_gain


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
    x, nx, dx = check_realizable(smfd.source, t)
    assert x.entry(0, 0) == rf(ONE, (S + ONE) ** 2 * (S + 2 * ONE))
    assert nx == t
    assert dx == smfd.source.d.to_ratmat() @ x


def test_check_realizable_rejects_missing_zero():
    plant, smfd = example_plant_data()
    with pytest.raises(DesignObstruction) as err:
        check_realizable(smfd.source, RatMat([[rf(ONE, S + ONE)]]))
    assert "s = 1" in str(err.value)


def test_check_realizable_rejects_improper_and_unstable_targets():
    plant, smfd = example_plant_data()
    with pytest.raises(DesignObstruction, match="improper"):
        check_realizable(smfd.source, RatMat([[rf(S ** 2, S + ONE)]]))
    with pytest.raises(DesignObstruction, match="unstable"):
        check_realizable(smfd.source, RatMat([[rf(ONE, S - ONE)]]))


def test_check_realizable_relative_degree_limit():
    # plant with relative degree 2: a biproper target needs d@x improper
    plant = RatMat([[rf(ONE, (S + ONE) ** 2)]])
    mfd = right_coprime_mfd(plant)
    with pytest.raises(DesignObstruction, match="improper"):
        check_realizable(mfd, RatMat([[rf(S, S + ONE)]]))



def test_check_realizable_rank_deficient_numerator():
    tall = right_coprime_mfd(parse_matrix("1/(s+1); 2/(s+1)"))
    with pytest.raises(DesignObstruction) as err:
        check_realizable(tall, parse_matrix("1/(s+1); 1/(s+1)"))
    assert err.value.reasons == (
        "rank violation: target lies outside the range of the plant numerator",
    )
    x, _, _ = check_realizable(tall, parse_matrix("1/(s+2); 2/(s+2)"))
    assert x == parse_matrix("1/(s+2)")

    # rank 1 square plant: the free column of x is zero
    square = right_coprime_mfd(parse_matrix("1/(s+1), 1/(s+1); 1/(s+2), 1/(s+2)"))
    x, _, _ = check_realizable(square, parse_matrix("1/(s+3); (s+1)/((s+2)*(s+3))"))
    assert x == parse_matrix("1/(s^2+5*s+6); 0")

def test_model_matching_example():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    res = model_matching(smfd, t)
    assert res.xprime.entry(0, 0) == rf(S + 2 * ONE, (S + ONE) ** 2)
    assert res.achieved_t == t
    assert all(c.passed for c in res.certificates)
    # the produced two-dof loop really places the response
    sens = (RatMat.identity(1) - res.configuration.cy @ plant).inv()
    assert plant @ sens @ res.configuration.cr == t
    assert res.verdict


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
    for targets in (
        (rf(ONE, S + ONE), rf(2 * ONE, S + 3 * ONE)),
        (rf(ONE, S + ONE), rf(ONE, S + ONE)),
    ):
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
    assert err.value.reasons[0] == "plant unstable zero at s = 1 must be a zero of target(s) 1, 2"


def test_decoupling_refusal_names_only_the_targets_whose_column_takes_the_pole():
    # the zero at s = 1 sits in the first channel alone: column 2 of x'
    # never has a pole there, so target 2 need not vanish at it
    plant = RatMat([[rf(S - ONE, (S + ONE) ** 2), rf(ZERO)], [rf(ZERO), rf(ONE, S + 2 * ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    with pytest.raises(DesignObstruction) as err:
        diagonal_decoupling(smfd, (rf(ONE, S + ONE), rf(ONE, S + ONE)))
    assert err.value.reasons[0] == "plant unstable zero at s = 1 must be a zero of target(s) 1"
    blocked = rf(S - ONE, (S + ONE) ** 2)
    res = diagonal_decoupling(smfd, (blocked, rf(ONE, S + ONE)))
    assert res.achieved_t == RatMat.diag([blocked, rf(ONE, S + ONE)])
    assert res.verdict


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
    res = static_decoupling(smfd, RatMat.identity(2))
    cr = res.configuration.cr
    expected = RatMat(
        [[rf(ONE), rf(Poly((Fraction(-3, 2),)))], [rf(ZERO), rf(3 * ONE)]]
    )
    assert cr == expected
    assert res.configuration.cy == RatMat.zeros(2, 2) and res.verdict
    gain = (plant @ cr).eval_at(Fraction(0))
    assert [list(row) for row in gain] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    res = static_decoupling(smfd, RatMat.diag([rf(2 * ONE), rf(3 * ONE)]))
    assert dc_gain(res.achieved_t) == ((2, 0), (0, 3))


def test_static_decoupling_unstable_plant_uses_feedback():
    plant = RatMat(
        [
            [rf(ONE, S - ONE), rf(ZERO)],
            [rf(ZERO), rf(ONE, S + 2 * ONE)],
        ]
    )
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    lam = RatMat.diag([rf(ONE), rf(2 * ONE)])
    res = static_decoupling(smfd, lam)
    assert all(c.passed for c in res.certificates), [
        c.describe() for c in res.certificates
    ]
    assert res.verdict
    gain = res.achieved_t.eval_at(Fraction(0))
    assert [list(row) for row in gain] == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(2)],
    ]
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("1/(s-1), 1/(s+2); 1/(s+3), 1/(s+1)")), shift=1)
    res = static_decoupling(smfd, RatMat.diag([rf(2 * ONE), rf(3 * ONE)]))
    assert dc_gain(res.achieved_t) == ((2, 0), (0, 3))


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
    # the central controller of this plant does not exist (v = 0), so a
    # design that built it first would fail on the controller, not on lam
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s+1)/(s-2)")), shift=1)
    with pytest.raises(ValueError, match="lam must be a constant matrix"):
        static_decoupling(smfd, parse_matrix("s"))


def test_static_decoupling_blocked_by_zero_at_origin():
    plant = RatMat([[rf(S, S + ONE)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    with pytest.raises(DesignObstruction) as err:
        static_decoupling(smfd, RatMat.identity(1))
    assert any("origin" in r for r in err.value.reasons)


def test_static_decoupling_names_a_rank_deficient_plant(tmp_path, capsys):
    # singular at every s, not only at the origin
    text = "1/(s+1), 1/(s+1); 1/(s+2), 1/(s+2)"
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(text)), shift=1)
    with pytest.raises(DesignObstruction) as err:
        static_decoupling(smfd, RatMat.identity(2))
    assert err.value.reasons == (
        "plant is rank deficient (rank n' = 1 < 2, singular at every s);"
        " static decoupling impossible",
    )
    problem = tmp_path / "rank1.ini"
    problem.write_text(f"[plant]\nmatrix = {text}\n")
    assert main(["static-decouple", str(problem)]) == 2
    out = capsys.readouterr().out
    assert "rank deficient" in out and "origin" not in out


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


# (design, plant, d_t, exception, message): each refusal in its order
DENOMINATOR_REFUSALS = [
    (denominator_assignment_unity, "1/(s+1), 1/(s+2)", "s + 1", DesignObstruction,
     "denominator assignment requires a square plant"),
    (denominator_assignment_direct, "1/(s-2)", "s + 1, 0; 0, s + 1", ShapeError,
     "d_t must be (1, 1), got (2, 2)"),
    (denominator_assignment_unity, "1/(s+1), 1/(s+1); 1/(s+1), 1/(s+1)", "s + 1, 0; 0, s + 1",
     DesignObstruction, "plant numerator is singular"),
    (denominator_assignment_direct, "1/(s-2)", "0", DesignObstruction,
     "target denominator is singular"),
    # d_t = -n: a constant, so its determinant is Hurwitz
    (denominator_assignment_unity, "1/(s-2)", "-1", DesignObstruction,
     "d_t + n is singular; no compensator exists"),
    (denominator_assignment_unity, "1/(s-2)", "s + 3", DesignObstruction,
     "stability condition (d_t + n) @ d**-1 failed: unstable; offending factors:"
     " s - 2 (right-half-plane root)"),
    # cff = d @ (d_t + n)**-1 = -4*(s + 1)
    (denominator_assignment_unity, "1/((s-2)*(s+1))", "-1/4*s - 1/2", DesignObstruction,
     "compensator d @ (d_t + n)**-1 is improper"),
    # cfb = d - d_t = -s^2 - 5*s - 3
    (denominator_assignment_direct, "1/(s-2)", "s^2 + 6*s + 1", DesignObstruction,
     "feedback compensator (d - d_t) @ n**-1 is improper"),
]


@pytest.mark.parametrize("design, plant, d_t, error, message", DENOMINATOR_REFUSALS)
def test_denominator_assignment_refusals(design, plant, d_t, error, message):
    mfd = right_coprime_mfd(parse_matrix(plant))
    with pytest.raises(error) as err:
        design(mfd, parse_poly_matrix(d_t))
    assert type(err.value) is error
    assert str(err.value) == message


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
    cff, loop = unity_feedback_controller(smfd, witness)
    assert cff.entry(0, 0) == rf(3 * S - 42 * ONE, (S + 11 * ONE) * (S + 2 * ONE))
    assert loop.verdict and gang_of_four(plant, cff).verdict


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


def test_find_admissible_unity_xprime_of_a_static_gain():
    # p = 2 has the witness u = 1/2, v = 0, so k = 0 is refused and the
    # stable plant takes k = -u@dl'**-1 = -1/2: x' = -(u + k@dl') = 0, and
    # cff = 0, the feedback map cy = 0 of that k
    smfd = stable_mfd(right_coprime_mfd(RatMat([[2]])), shift=1)
    k = _stabilizing_feedback(smfd)[0]
    assert k == RatMat([[Fraction(-1, 2)]])
    xprime = find_admissible_unity_xprime(smfd)
    assert xprime == RatMat([[0]]) == -(smfd.u + k @ smfd.dl_prime)
    cff, loop = unity_feedback_controller(smfd, xprime)
    assert cff == RatMat([[0]]) and loop.verdict


def test_unity_closed_loop_matches_parameter():
    plant, smfd = example_plant_data()
    witness = RatMat([[rf(3 * S - 42 * ONE, (S + ONE) ** 2)]])
    cff, formed = unity_feedback_controller(smfd, witness)
    loop = (RatMat.identity(1) - plant @ cff).inv() @ plant @ cff
    assert formed.maps.p_sens_cy == loop
    assert loop == smfd.nprime @ witness
    control = (RatMat.identity(1) - cff @ plant).inv() @ cff
    assert control == smfd.dprime @ witness


def test_ff_fb_realization_roundtrip():
    plant, smfd = example_plant_data()
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    res = model_matching(smfd, t)
    r_map, cff, cfb = ff_fb_realization(res.configuration, shift=2)
    assert cff @ cfb == res.configuration.cy
    assert cff @ r_map == res.configuration.cr
    assert rh_inf_verdict(r_map)
    assert rh_inf_verdict(cfb)
    assert rh_inf_verdict(cff.inv())


def test_ff_fb_realization_trivial_split():
    triv = TwoDofConfig(
        cy=RatMat([[rf(ZERO)]]), cr=RatMat([[rf(ONE, (S + ONE) ** 2)]])
    )
    r_map, cff, cfb = ff_fb_realization(triv, shift=1)
    assert cff == RatMat.identity(1)
    assert cfb == RatMat([[rf(ZERO)]])
    assert r_map == triv.cr


def test_ff_fb_realization_requires_proper_controller():
    improper = TwoDofConfig(cy=RatMat([[rf(S)]]), cr=RatMat([[rf(ONE)]]))
    with pytest.raises(ValueError):
        ff_fb_realization(improper)


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


def test_certificate_reporting():
    good = Certificate("sample check", StabilityVerdict(True))
    assert good.passed
    assert "PASS" in good.describe()
    bad = Certificate("sample check", StabilityVerdict(False, ((S - ONE, "root in the open right half-plane"),)))
    assert not bad.passed
    assert "FAIL" in bad.describe()
    assert "s - 1" in bad.describe()


@pytest.mark.parametrize("call, error, message", [
    (lambda: unity_feedback_admissible(stable_mfd(right_coprime_mfd(parse_matrix("1/(s-1)"))),
                                       RatMat([[ONE], [ONE]])),
     ShapeError, "x' must have 1 rows, got 2"),
    (lambda: siso_conditions(RatFn(ZERO), RatFn(ONE)), ValueError, "plant is identically zero"),
], ids=["unity-parameter-rows", "zero-plant"])
def test_invalid_design_input_is_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
