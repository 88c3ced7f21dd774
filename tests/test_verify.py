import math
import random
from fractions import Fraction

import pytest

from twodof.factor import right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, ZERO, Poly, PolyMat, RatFn, RatMat
from twodof.stabilize import IllPosedLoop, TwoDofConfig
from twodof.synthesis import (
    FeedbackDirectRConfig,
    FfFbRConfig,
    UnityFeedbackConfig,
    denominator_assignment_direct,
    ff_fb_realization,
    model_matching,
    unity_feedback_controller,
)
from twodof.verify import (
    ClosedLoopReport,
    certify,
    closed_loop,
    dc_gain,
    simulate_step,
)


def rf(num, den=ONE):
    return RatFn(num, den)


def worked_design():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=2)
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    return plant, smfd, model_matching(smfd, t)


def test_closed_loop_two_dof_places_response():
    plant, smfd, res = worked_design()
    report = closed_loop(plant, res.configuration)
    assert report.t_yr == res.achieved_t
    assert report.t_ur == smfd.dprime @ res.xprime
    assert report.well_posed
    assert all(verdict.stable for _, _, verdict in report.internal_maps)
    assert len(report.internal_maps) == 4


def test_closed_loop_configurations_agree():
    plant, smfd, res = worked_design()
    two_dof = closed_loop(plant, res.configuration)
    r_map, cff, cfb = ff_fb_realization(res.configuration, shift=2)
    split = closed_loop(plant, FfFbRConfig(r=r_map, cff=cff, cfb=cfb))
    assert split.t_yr == two_dof.t_yr
    assert split.t_ur == two_dof.t_ur
    for (_, lhs, _), (_, rhs, _) in zip(split.internal_maps, two_dof.internal_maps):
        assert lhs == rhs


def test_closed_loop_unity_configuration():
    plant, smfd, _ = worked_design()
    witness = RatMat([[rf(3 * S - 42 * ONE, (S + ONE) ** 2)]])
    cff, _ = unity_feedback_controller(smfd, witness)
    report = closed_loop(plant, UnityFeedbackConfig(cff=cff))
    assert report.t_yr == smfd.nprime @ witness
    assert report.t_ur == smfd.dprime @ witness
    assert all(verdict.stable for _, _, verdict in report.internal_maps)


def test_closed_loop_feedback_direct_configuration():
    mfd = right_coprime_mfd(RatMat([[rf(ONE, S - 2 * ONE)]]))
    res = denominator_assignment_direct(mfd, PolyMat([[S + 2 * ONE]]))
    plant = mfd.plant()
    report = closed_loop(plant, res.configuration)
    assert report.t_yr == RatMat([[rf(ONE, S + 2 * ONE)]])
    assert all(verdict.stable for _, _, verdict in report.internal_maps)


def test_closed_loop_rejects_mismatched_feedback_shape():
    plant = RatMat([[rf(ONE, S + ONE)]])
    bad = TwoDofConfig(cy=RatMat.zeros(2, 2), cr=RatMat.zeros(2, 2))
    with pytest.raises(ValueError):
        closed_loop(plant, bad)


def test_closed_loop_ill_posed():
    plant = RatMat([[rf(ONE, S + ONE)]])
    config = TwoDofConfig(cy=RatMat([[rf(S + ONE)]]), cr=RatMat.identity(1))
    with pytest.raises(IllPosedLoop):
        closed_loop(plant, config)


def test_certify_passes_and_fails_by_certificate():
    plant, smfd, res = worked_design()
    report = closed_loop(plant, res.configuration)
    certs = certify(report, res.achieved_t)
    assert len(certs) == 6
    assert all(c.passed for c in certs)
    wrong = certify(report, res.achieved_t + RatMat.identity(1))
    assert not wrong[0].passed
    assert all(c.passed for c in wrong[1:])


def test_certify_flags_internal_instability():
    plant = RatMat([[rf(ONE, S - 2 * ONE)]])
    config = TwoDofConfig(cy=RatMat.zeros(1, 1), cr=RatMat.identity(1))
    report = closed_loop(plant, config)
    assert not all(verdict.stable for _, _, verdict in report.internal_maps)
    certs = certify(report, report.t_yr)
    assert certs[0].passed
    assert any(not c.passed for c in certs[2:])


def test_simulate_first_order_lag_matches_closed_form():
    trace = simulate_step(RatMat([[rf(ONE, S + ONE)]]), horizon=5.0, dt=0.01)
    assert trace.step_size == 0.01
    assert len(trace.time) == 501
    assert trace.time[0] == 0.0
    series = trace.outputs[0][0]
    assert series[0] == 0.0
    worst = max(
        abs(y - (1.0 - math.exp(-t))) for t, y in zip(trace.time, series)
    )
    assert worst < 1e-9


def test_simulate_constant_gain():
    trace = simulate_step(RatMat([[rf(2 * ONE)]]), horizon=1.0, dt=0.1)
    assert all(y == 2.0 for y in trace.outputs[0][0])


def test_simulate_refuses_a_grid_over_the_sample_cap():
    # 10**6 steps give 10**6 + 1 samples, one over the cap
    with pytest.raises(ValueError, match="1000001 samples exceed the cap of 1000000"):
        simulate_step(RatMat([[rf(2 * ONE)]]), horizon=1.0, dt=1e-6)


@pytest.mark.parametrize(
    "horizon, dt, shown",
    [(1e200, 1e-200, "inf"), (1e200, 1.0, "1e\\+200"), (999999.5, 1.0, "1000001")],
)
def test_simulate_refuses_a_step_count_past_the_cap_before_rounding_it(horizon, dt, shown):
    # 1e200 / 1e-200 overflows to inf, which round() cannot take; 999999.5
    # steps round to 10**6, one sample over the cap
    with pytest.raises(ValueError, match=f"^{shown} samples exceed the cap of 1000000$"):
        simulate_step(RatMat([[rf(2 * ONE)]]), horizon=horizon, dt=dt)


def test_simulate_assigned_loop_settles_at_minus_two():
    trace = simulate_step(RatMat([[rf(-4 * ONE, S + 2 * ONE)]]), horizon=10.0, dt=0.01)
    final = trace.final_values()[0]
    assert abs(final - (-2.0)) < 1e-6
    series = trace.outputs[0][0]
    worst = max(
        abs(y - (-2.0 * (1.0 - math.exp(-2.0 * t))))
        for t, y in zip(trace.time, series)
    )
    assert worst < 1e-9


def test_simulate_biproper_feedthrough():
    trace = simulate_step(RatMat([[rf(S + 2 * ONE, S + ONE)]]), horizon=8.0, dt=0.02)
    series = trace.outputs[0][0]
    assert series[0] == 1.0  # instantaneous feedthrough
    worst = max(
        abs(y - (2.0 - math.exp(-t))) for t, y in zip(trace.time, series)
    )
    assert worst < 1e-9


def test_simulate_mimo_structure():
    t = RatMat(
        [
            [rf(ONE, S + ONE), rf(ZERO)],
            [rf(ONE, (S + ONE) * (S + 2 * ONE)), rf(2 * ONE, S + 2 * ONE)],
        ]
    )
    trace = simulate_step(t, horizon=12.0, dt=0.01)
    assert len(trace.outputs) == 2  # one block per input
    assert len(trace.outputs[0]) == 2
    assert trace.inputs == ("unit step at input 1", "unit step at input 2")
    # input 2 never reaches output 1
    assert all(y == 0.0 for y in trace.outputs[1][0])
    gains = dc_gain(t)
    for j in range(2):
        finals = trace.final_values(channel=j)
        for i in range(2):
            assert abs(finals[i] - float(gains[i][j])) < 1e-5


def test_simulate_rejections():
    with pytest.raises(ValueError):
        simulate_step(RatMat([[rf(S)]]), horizon=1.0, dt=0.1)
    with pytest.raises(ValueError):
        simulate_step(RatMat([[rf(ONE, S - ONE)]]), horizon=1.0, dt=0.1)
    good = RatMat([[rf(ONE, S + ONE)]])
    with pytest.raises(ValueError):
        simulate_step(good, horizon=0.0, dt=0.1)
    with pytest.raises(ValueError):
        simulate_step(good, horizon=1.0, dt=-0.1)
    for bad in (math.nan, math.inf):
        for grid in ({"horizon": bad, "dt": 0.1}, {"horizon": 1.0, "dt": bad}):
            with pytest.raises(ValueError, match="^horizon and dt must be positive and finite$"):
                simulate_step(good, **grid)


def test_csv_output_format():
    trace = simulate_step(RatMat([[rf(ONE, S + ONE)]]), horizon=1.0, dt=0.5)
    text = trace.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,y1"
    assert len(lines) == 4  # header + 3 samples
    assert text.endswith("\n")
    for line in lines[1:]:
        t_str, y_str = line.split(",")
        assert float(t_str) >= 0.0
        float(y_str)
    # values carry 12 significant digits
    y_half = float(lines[2].split(",")[1])
    assert abs(y_half - (1.0 - math.exp(-0.5))) < 1e-11
    assert len(lines[2].split(",")[1].replace("-", "").replace(".", "").lstrip("0")) >= 11


def test_csv_multi_output_header():
    t = RatMat([[rf(ONE, S + ONE)], [rf(ONE, S + 2 * ONE)]])
    trace = simulate_step(t, horizon=1.0, dt=0.25)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,y1,y2"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_dc_gain_values():
    t = RatMat([[rf(S - ONE, (S + ONE) ** 2)]])
    assert dc_gain(t) == ((Fraction(-1),),)
    two = RatMat(
        [
            [rf(ONE, S + ONE), rf(3 * ONE, S + 3 * ONE)],
            [rf(ZERO), rf(2 * ONE, S + ONE)],
        ]
    )
    assert dc_gain(two) == (
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(2)),
    )


def test_dc_gain_rejects_pole_at_origin():
    with pytest.raises(ValueError, match="origin"):
        dc_gain(RatMat([[rf(ONE, S)]]))


def test_simulation_settles_to_dc_gain():
    # cross-check: well past ten dominant time constants (allowing for
    # residue magnitudes and repeated poles) the simulated step must sit
    # within 1e-5 of the exact dc gain
    cases = [
        RatMat([[rf(ONE, S + ONE)]]),
        RatMat([[rf(S - ONE, (S + ONE) ** 2)]]),
        RatMat([[rf(-4 * ONE, S + 2 * ONE)]]),
        RatMat([[rf(S + 2 * ONE, (S + ONE) * (S + 3 * ONE))]]),
        RatMat(
            [
                [rf(ONE, S + ONE), rf(ONE, S + 2 * ONE)],
                [rf(ZERO), rf(3 * ONE, S + 3 * ONE)],
            ]
        ),
    ]
    for t in cases:
        gains = dc_gain(t)
        trace = simulate_step(t, horizon=18.0, dt=0.01)
        rows, cols = t.shape
        for j in range(cols):
            finals = trace.final_values(channel=j)
            for i in range(rows):
                assert abs(finals[i] - float(gains[i][j])) < 1e-5, (i, j, t)


def test_simulation_settles_for_random_lags():
    rng = random.Random(404)
    for _ in range(20):
        poles = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        den = ONE
        for p in poles:
            den = den * (S + Poly((Fraction(p),)))
        num = Poly(tuple(Fraction(rng.randint(-3, 3)) for _ in range(len(poles))))
        if num.is_zero():
            num = ONE
        t = RatMat([[rf(num, den)]])
        trace = simulate_step(t, horizon=20.0, dt=0.02)
        expected = float(dc_gain(t)[0][0])
        assert abs(trace.final_values()[0] - expected) < 1e-5


def test_closed_loop_refuses_an_unknown_configuration():
    with pytest.raises(TypeError) as err:
        closed_loop(RatMat([[rf(ONE, S + ONE)]]), (RatMat([[ONE]]),))
    assert str(err.value) == "unknown configuration tuple"
