"""The central controller of a design comes from the fraction it was given.

A design receives a proper-stable fraction with its Bezout witness
(u, v); the central feedback map cy = -v**-1 @ u is built from that
witness and checked once, without refactoring the plant.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twodof.stabilize
from twodof.cli import main, parse_matrix
from twodof.factor import StableMFD, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, Poly, RatFn, RatMat
from twodof.stabilize import InadmissibleParameter, youla_controller
from twodof.synthesis import (
    DesignObstruction,
    StaticDecoupling,
    model_matching,
    solve_design,
    static_decoupling,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
UNSTABLE_2X2 = "1/(s-1), 1/(s+2); 1/(s+3), 1/(s+1)"

BIPROPER_2X2 = (
    "(s+3)/s, (2*s+2)/(s-2); "
    "(2*s^2+2*s-1)/(s^2-s-6), (-s^2-2*s+2)/(s^2+4*s+3)"
)


def rf(num, den=ONE):
    return RatFn(num, den)


def random_proper_plant(rng, rows, cols, max_den=2):
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            dd = rng.randint(1, max_den)
            den = ONE
            for _ in range(dd):
                den = den * Poly((Fraction(rng.randint(-3, 3)), Fraction(1)))
            nd = rng.randint(0, dd)
            num = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(nd + 1)))
            row.append(RatFn(num, den))
        entries.append(row)
    return RatMat(entries)


def count_calls(monkeypatch, names):
    """Wrap each named function under every name a twodof module holds it
    by; returns the live call counts."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("twodof")]
    for name in names:
        original = getattr(twodof.stabilize, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_scalar_design_analyses_its_plant_once(monkeypatch):
    # a plant no other test uses, so no cached analysis of it exists
    plant = RatMat([[rf(S + 3 * ONE, (S - ONE) * (S + 4 * ONE))]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    t = smfd.nprime
    counts = count_calls(
        monkeypatch,
        ["right_coprime_mfd", "stable_mfd", "left_coprime_mfd", "is_internally_stabilizing"],
    )
    res = model_matching(smfd, t)
    assert counts == {
        "right_coprime_mfd": 0,
        "stable_mfd": 0,
        "left_coprime_mfd": 0,
        "is_internally_stabilizing": 1,
    }
    assert res.achieved_t == t
    assert all(c.passed for c in res.certificates)
    assert res.controller.cy == youla_controller(plant, shift=1)


def test_design_controller_matches_plant_level_youla_controller():
    rng = random.Random(43)
    designed = refused = 0
    for trial in range(16):
        size = 1 + trial % 2
        shift = Fraction(1 + trial % 3, 1 + trial % 2)
        plant = random_proper_plant(rng, size, size)
        smfd = stable_mfd(right_coprime_mfd(plant), shift=shift)
        try:
            expected = youla_controller(plant, shift=shift)
        except InadmissibleParameter:
            with pytest.raises(InadmissibleParameter):
                model_matching(smfd, smfd.nprime)
            refused += 1
            continue
        res = model_matching(smfd, smfd.nprime)
        assert res.controller.cy == expected, (plant, shift)
        assert res.controller.certificate
        designed += 1
    assert designed >= 10 and designed + refused == 16


def test_static_design_uses_the_central_controller():
    plant = RatMat([[rf(S + 3 * ONE, (S - ONE) * (S + 4 * ONE))]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=2)
    res = solve_design(smfd, StaticDecoupling(lam=RatMat([[rf(2 * ONE)]])))
    assert res.controller.cy == youla_controller(plant, shift=2)
    assert res.controller.certificate
    assert all(c.passed for c in res.certificates)


def test_improper_central_controller_is_rejected(tmp_path, capsys):
    plant = parse_matrix(BIPROPER_2X2)
    with pytest.raises(InadmissibleParameter, match="improper"):
        youla_controller(plant, shift=1)

    problem = tmp_path / "biproper.ini"
    problem.write_text(f"[plant]\nmatrix = {BIPROPER_2X2}\n")
    assert main(["stabilize", str(problem)]) == 1
    out, err = capsys.readouterr()
    assert "internal stability: stable" not in out
    assert "improper" in err


def test_stabilize_command_checks_each_controller_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch, ["is_internally_stabilizing"])
    assert main(["stabilize", str(PROBLEMS / "example_match.ini")]) == 0
    out = capsys.readouterr().out
    assert out.count("internal stability: stable") == 2
    assert counts == {"is_internally_stabilizing": 2}


def count_plant_builds(monkeypatch):
    builds = []
    original = StableMFD.plant

    def plant(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(StableMFD, "plant", plant)
    return builds


def test_static_design_builds_the_plant_once(monkeypatch, tmp_path, capsys):
    builds = count_plant_builds(monkeypatch)
    counts = count_calls(monkeypatch, ["is_internally_stabilizing"])
    assert main(["static-decouple", str(PROBLEMS / "example_static_decouple.ini")]) == 0
    assert (len(builds), counts["is_internally_stabilizing"]) == (1, 0)

    builds.clear()
    counts["is_internally_stabilizing"] = 0
    problem = tmp_path / "unstable.ini"
    problem.write_text(f"[plant]\nmatrix = {UNSTABLE_2X2}\n[design]\nlambda = 1, 0; 0, 1\n")
    assert main(["static-decouple", str(problem)]) == 0
    assert (len(builds), counts["is_internally_stabilizing"]) == (1, 1)
    out = capsys.readouterr().out
    assert "dc gain:\n  [ 1  0 ]\n  [ 0  1 ]" in out


def test_static_decoupling_checks_a_supplied_feedback_map(monkeypatch):
    plant = parse_matrix(UNSTABLE_2X2)
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    lam = RatMat.identity(2)
    cy = youla_controller(plant, shift=1)
    builds = count_plant_builds(monkeypatch)
    counts = count_calls(monkeypatch, ["is_internally_stabilizing"])
    cr = static_decoupling(smfd, lam, cy)
    assert (len(builds), counts["is_internally_stabilizing"]) == (1, 1)
    assert cr == static_decoupling(smfd, lam)
    with pytest.raises(DesignObstruction, match="supplied feedback map"):
        static_decoupling(smfd, lam, RatMat.zeros(2, 2))
