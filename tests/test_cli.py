import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twodof.synthesis
from twodof.cli import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_EXPONENT,
    ParseError,
    load_problem,
    main,
    parse_matrix,
    parse_poly_matrix,
    parse_rational,
)
from twodof.polyalg import ONE, S, ZERO, Poly, RatFn, RatMat

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def rf(num, den=ONE):
    return RatFn(num, den)


def test_parse_rational_examples():
    assert parse_rational("((s-1)*(s+2))/((s-2)^2)") == rf(
        (S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2
    )
    assert parse_rational("0") == rf(ZERO)
    assert parse_rational("(3*s-42)/((s+1)^2)") == rf(
        3 * S - 42 * ONE, (S + ONE) ** 2
    )
    assert parse_rational("-1/4*s - 1/2") == rf(
        Poly((Fraction(-1, 2), Fraction(-1, 4)))
    )
    assert parse_rational("s") == rf(S)


def test_parse_rational_precedence():
    assert parse_rational("1 + 2*s^2") == rf(2 * S**2 + ONE)
    assert parse_rational("2^3") == rf(Poly((Fraction(8),)))
    assert parse_rational("4/2/2") == rf(ONE)
    assert parse_rational("(s+1)^2*(s+2)") == rf((S + ONE) ** 2 * (S + 2 * ONE))
    assert parse_rational("s+1*2") == rf(S + 2 * ONE)
    assert parse_rational("-s^2") == rf(-(S**2))
    assert parse_rational("1 - 2 - 3") == rf(Poly((Fraction(-4),)))


def test_parse_rational_whitespace():
    assert parse_rational("  ( s + 1 ) / ( s + 2 )  ") == rf(S + ONE, S + 2 * ONE)


def test_parse_rational_error_positions():
    with pytest.raises(ParseError) as err:
        parse_rational("s+")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_rational("(s+1")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_rational("x+1")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_rational("s^(2)")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_rational("s s")
    assert err.value.position == 2
    assert "position" in str(err.value)


def test_parse_rational_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_rational("1/0")
    assert "zero denominator" in str(err.value)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_rational("s/(s-s)")


@pytest.mark.parametrize(
    "text, position, cap",
    [
        ("(s+1)^1600/(s+2)^1600", 6, f"exponent 1600 exceeds the cap of {MAX_EXPONENT}"),
        ("((s+1)^60)^60", 6, f"degree 60 exceeds the cap of {MAX_DEGREE}"),
        ("2^65", 2, f"exponent 65 exceeds the cap of {MAX_EXPONENT}"),
        ("(s+1)^20*(s+2)^21", 8, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("1/(s+1)^21 + 1/(s+2)^20", 11, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
    ],
)
def test_parse_rational_budgets(text, position, cap):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == position
    assert cap in str(err.value)


@pytest.mark.parametrize(
    "text, position, digits",
    [
        ("1" * 4400 + "*s+1", 0, 4400),  # past Python's int-from-text limit
        (f"({'9' * 400}*s+1)^40/(s+2)^40 - (s+5)/(7*s+3)", 1, 400),
        ("s^" + "1" * 200, 2, 200),
    ],
)
def test_parse_rational_literal_cap(text, position, digits):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == position
    assert f"literal of {digits} digits exceeds the cap of {MAX_DIGITS}" in str(err.value)


def test_parse_rational_at_the_caps():
    assert parse_rational(f"2^{MAX_EXPONENT}") == rf(Poly((Fraction(2**MAX_EXPONENT),)))
    big = 10**MAX_DIGITS - 1
    assert parse_rational(f"{big}*s+1") == rf(Poly((Fraction(1), Fraction(big))))
    # a printed polynomial sums terms of falling degree, none above the cap
    value = rf((S + ONE) ** MAX_DEGREE, (S + 2 * ONE) ** MAX_DEGREE)
    assert parse_rational(str(value)) == value
    assert parse_rational(f"(s+1)^{MAX_DEGREE}/(s+2)^{MAX_DEGREE}") == value


def test_parse_rational_short_degree_40_input_is_fast():
    # short literals that reach the degree cap, up to the 100-digit cap: the
    # sum's gcd and the normalisation run over Z in well under the half
    # second allowed
    b = S + 9 * ONE
    p, q = 99 * S**2 + 99 * S + ONE, S**2 + 99 * S + 99 * ONE
    cases = [
        (
            f"({n}*s+1)^20/(s+2)^20 + (s+9)^20/(s+3)^20",
            # already in lowest terms: the numerator vanishes at neither -2 nor -3
            (n * S + ONE) ** 20 * (S + 3 * ONE) ** 20 + b**20 * (S + 2 * ONE) ** 20,
            ((S + 2 * ONE) * (S + 3 * ONE)) ** 20,
        )
        for n in (9, 10**20 - 1, 10**100 - 1)
    ]
    # the roots of p are the reciprocals of those of q, and none is +-1
    cases.append(("(99*s^2+99*s+1)^20/(s^2+99*s+99)^20", p**20, q**20))
    for text, num, den in cases:
        start = time.perf_counter()
        value = parse_rational(text)
        assert time.perf_counter() - start < 0.5, text
        assert (value.num, value.den) == (num, den)


def test_shipped_problem_files_parse():
    matrix_keys = {"t", "m", "lambda", "d_t", "targets", "cy", "cr", "r", "cff", "cfb"}
    problems = sorted(PROBLEMS.glob("*.ini"))
    assert len(problems) == 12
    for path in problems:
        pf = load_problem(str(path))
        for section in (pf.design, pf.configuration):
            for key, text in section.items():
                if key in matrix_keys:
                    parse_matrix(text)


def test_printed_forms_parse_back():
    rng = random.Random(77)
    for _ in range(40):
        num = Poly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))))
        den = Poly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))))
        if den.is_zero():
            den = S + ONE
        value = rf(num, den)
        assert parse_rational(str(value)) == value


def test_parse_matrix():
    mat = parse_matrix("1/(s+1), 0; s, 2")
    assert mat.shape == (2, 2)
    assert mat.entry(0, 0) == rf(ONE, S + ONE)
    assert mat.entry(1, 0) == rf(S)
    assert mat.entry(1, 1) == rf(2 * ONE)
    with pytest.raises(ValueError):
        parse_matrix("1, 2; 3")


def test_matrix_round_trip():
    rng = random.Random(78)
    for _ in range(10):
        rows = []
        for _ in range(2):
            rows.append(
                [
                    rf(
                        Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))),
                        S + Poly((Fraction(rng.randint(1, 5)),)),
                    )
                    for _ in range(2)
                ]
            )
        mat = RatMat(rows)
        text = "; ".join(
            ", ".join(str(mat.entry(i, j)) for j in range(2)) for i in range(2)
        )
        assert parse_matrix(text) == mat


def test_parse_poly_matrix():
    mat = parse_poly_matrix("s+2, 1; 0, s^2")
    assert mat.shape == (2, 2)
    assert mat.entry(1, 1) == S**2
    with pytest.raises(ValueError, match="polynomial"):
        parse_poly_matrix("1/(s+1)")


def test_load_problem(tmp_path):
    path = tmp_path / "prob.ini"
    path.write_text(
        "[plant]\nmatrix = 1/(s+1), 0; 0, 1/(s+2)\n"
        "[design]\nt = 1/(s+1)\n"
        "[options]\nshift = 2\n"
    )
    pf = load_problem(str(path))
    assert pf.plant is not None and pf.plant.shape == (2, 2)
    assert pf.design == {"t": "1/(s+1)"}
    assert pf.options == {"shift": "2"}
    assert pf.configuration == {}
    with pytest.raises(ValueError, match="cannot read"):
        load_problem(str(tmp_path / "missing.ini"))


def test_main_match_success(capsys):
    code = main(["match", str(PROBLEMS / "example_match.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "x'" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_main_match_obstruction(capsys):
    code = main(["match", str(PROBLEMS / "example_match_reject.ini")])
    out = capsys.readouterr().out
    assert code == 2
    assert "design obstruction" in out
    assert "s = 1" in out


def test_main_factor_report(capsys):
    code = main(["factor", str(PROBLEMS / "example_match.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "zero at s = 1 (multiplicity 1, unstable)" in out
    assert "pole at s = 2 (multiplicity 2, unstable)" in out
    assert "diag((s + 2)^2)" in out


@pytest.mark.parametrize("shift", ["1/0", "abc"])
def test_main_refuses_a_malformed_shift_as_a_usage_error(capsys, shift):
    code = main(["match", str(PROBLEMS / "example_match.ini"), "--shift", shift])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: argument --shift: invalid Fraction value: {shift!r}\n"


SHIFT_COMMANDS = [
    "factor", "stabilize", "match", "decouple", "invert", "static-decouple",
    "assign-denominator", "unity-parameter",
]


@pytest.mark.parametrize("command", SHIFT_COMMANDS)
@pytest.mark.parametrize("given", ["option", "flag"])
def test_main_refuses_a_nonpositive_shift_before_printing(tmp_path, capsys, command, given):
    path = tmp_path / "prob.ini"
    options = "[options]\nshift = -1\n" if given == "option" else ""
    path.write_text("[plant]\nmatrix = 1/(s-1)\n" + options)
    argv = [command, str(path)] + (["--shift", "0"] if given == "flag" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: shift must be positive\n"


@pytest.mark.parametrize("command", ["factor", "stabilize", "match"])
def test_main_refuses_a_malformed_shift_option(tmp_path, capsys, command):
    path = tmp_path / "prob.ini"
    path.write_text("[plant]\nmatrix = 1/(s-1)\n[options]\nshift = 1/0\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: invalid Fraction value: '1/0'\n"


def test_main_factor_shift_precedence(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text("[plant]\nmatrix = 1/(s-1)\n[options]\nshift = 3\n")
    code = main(["factor", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "(s + 3)" in out
    code = main(["factor", str(path), "--shift", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(s + 2)" in out


def test_main_stabilize(capsys):
    code = main(["stabilize", str(PROBLEMS / "example_match.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "bezout x1" in out
    assert "central feedback map cy" in out
    assert "internal stability: stable" in out


def test_main_static_decouple(capsys):
    code = main(["static-decouple", str(PROBLEMS / "example_static_decouple.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "cr" in out
    assert "dc gain" in out


def test_main_assign_denominator(capsys):
    code = main(["assign-denominator", str(PROBLEMS / "example_assign_denominator.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_main_assign_denominator_refuses_an_unknown_loop(tmp_path, monkeypatch, capsys):
    path = tmp_path / "prob.ini"
    path.write_text("[plant]\nmatrix = 1/(s-2)\n[design]\nd_t = s + 3\nloop = sideways\n")

    def no_design(*args):
        raise AssertionError("a design ran for an unknown loop")

    monkeypatch.setattr(twodof.synthesis, "_denominator_target", no_design)
    code = main(["assign-denominator", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: unknown loop variant 'sideways'\n"


@pytest.mark.parametrize(
    "command",
    ["factor", "stabilize", "match", "decouple", "invert", "static-decouple",
     "assign-denominator", "unity-parameter"],
)
def test_main_refuses_an_improper_plant_before_printing(tmp_path, capsys, command):
    # every subcommand that analyses the plant goes through stable_mfd
    path = tmp_path / "prob.ini"
    path.write_text("[plant]\nmatrix = (s+1)^2/(s+2)\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: plant must be proper\n")


def test_main_unity_parameter(capsys):
    code = main(["unity-parameter", str(PROBLEMS / "example_unity.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "admissible x'" in out
    assert "unity-loop cff" in out
    assert "internal stability: stable" in out


def test_main_verify_feedback_direct(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text(
        "[plant]\nmatrix = 1/(s-2)\n"
        "[config]\nloop = feedback-direct\ncfb = -4\n"
        "[design]\nt = 1/(s+2)\n"
    )
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "well posed: yes" in out
    assert "closed-loop response equals the desired t: PASS" in out


def test_main_verify_unity(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text(
        "[plant]\nmatrix = 1/(s-2)\n"
        "[config]\nloop = unity\ncff = -4\n"
    )
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "y/r" in out and "u/r" in out
    assert out.count("stable") >= 4


def test_main_verify_ill_posed(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text(
        "[plant]\nmatrix = 1/(s+1)\n"
        "[config]\nloop = two-dof\ncy = s+1\ncr = 1\n"
    )
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "ill-posed" in captured.err


def test_main_simulate_stdout(capsys):
    code = main(["simulate", str(PROBLEMS / "example_simulate.ini"), "--horizon", "1", "--dt", "0.5"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "t,y1"
    assert len(lines) == 4


def test_main_simulate_out_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            str(PROBLEMS / "example_simulate.ini"),
            "--horizon",
            "2",
            "--dt",
            "0.25",
            "--out",
            str(target),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out
    text = target.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,y1"
    assert len(lines) == 10
    final = float(lines[-1].split(",")[1])
    assert abs(final - (1.0 - 2.718281828459045 ** -2.0)) < 1e-9


def test_main_simulate_option_precedence(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text("[design]\nt = 1/(s+1)\n[options]\nhorizon = 1\ndt = 0.5\n")
    code = main(["simulate", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 4  # options section drives the grid
    code = main(["simulate", str(path), "--dt", "0.25"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 6  # flag beats the options section


def test_main_simulate_unstable_target(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text("[design]\nt = 1/(s-1)\n")
    code = main(["simulate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "unstable" in captured.err


@pytest.mark.parametrize("channel", [0, 3])
def test_main_simulate_refuses_a_channel_outside_the_inputs(tmp_path, capsys, channel):
    path = tmp_path / "prob.ini"
    path.write_text(f"[design]\nt = 1/(s+1), 2/(s+2)\nchannel = {channel}\n")
    code = main(["simulate", str(path), "--horizon", "1", "--dt", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: channel {channel} is outside 1..2\n"


def test_main_input_errors(tmp_path, capsys):
    code = main(["factor", str(tmp_path / "missing.ini")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err

    bad = tmp_path / "bad.ini"
    bad.write_text("[plant]\nmatrix = s+\n")
    code = main(["factor", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parse error" in captured.err
    assert "position" in captured.err


def test_main_usage_errors(capsys):
    assert main(["bogus-command", "x.ini"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["match"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, twodof.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_starts_without_dataclasses_inspect_or_typing():
    # start-up cost: import twodof, import twodof.cli and twodof match on
    # both shipped match problems load none of these; -S keeps the .pth
    # files of site-packages, which may import typing, out of the process
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import contextlib, io, sys\n"
        "heavy = ('dataclasses', 'inspect', 'typing')\n"
        "seen = lambda: [m for m in heavy if m in sys.modules]\n"
        "import twodof\n"
        "loaded = [seen()]\n"
        "import twodof.cli\n"
        "loaded.append(seen())\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = twodof.cli.main(['match', path])\n"
        "    loaded.append((code, seen()))\n"
        "print(loaded)\n"
    )
    files = sorted(str(path) for path in PROBLEMS.glob("example_match*.ini"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *files],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert [Path(f).name for f in files] == ["example_match.ini", "example_match_reject.ini"]
    assert out.strip() == "[[], [], (0, []), (2, [])]"


def test_cli_runs_leave_sympy_unloaded():
    # factoring is in-house: no subcommand on a shipped problem (simulate
    # excluded, it only adds scipy) may import sympy, the test-only oracle
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, twodof\n"
        "loaded = ['sympy' in sys.modules]\n"
        "from test_cli_golden import RUNS, run\n"
        "for key in RUNS:\n"
        "    run(key)\n"
        "loaded.append('sympy' in sys.modules)\n"
        "print(len(RUNS), loaded)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "108 [False, False]"
