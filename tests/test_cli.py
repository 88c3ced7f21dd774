import argparse
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twodof.cli
import twodof.factor
import twodof.synthesis
from twodof.cli import (
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    ParseError,
    _fraction,
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


@pytest.mark.parametrize(
    "text, position",
    [("s^\u00b2", 2), ("1/(s+\u00b2)", 5), ("\u0663*s", 0), ("s^\u0661", 2)],
)
def test_parse_rational_refuses_non_ascii_digits(text, position):
    # a superscript or Arabic-Indic digit is no literal: it is refused
    # where it stands, not read as its value or failed without a position
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert str(err.value) == f"unexpected character {text[position]!r} at position {position}"


@pytest.mark.parametrize(
    "text, token",
    [
        ("s s, 1; 1, 1", "s"),
        ("1/(s-1), 2/(s\u00b2+2); 1/(s+3), 1", "\u00b2"),
        ("1/(s-1), 2/(s+2); 1/(s+3)), 1/(s+1)", ")"),
        ("s, 1; 1/0, s^99", "/"),
        ("s, 1; 1, s^99", "99"),
        ("1, 2; (s+1)^41, 1", "^"),
        ("1, 2/(s+; 1, 1", ";"),  # the cell ends where its separator stands
        ("1/(s-1), 2/(s+2); 1/(s+3), 1/(s+", None),  # the text ends early
    ],
)
def test_parse_matrix_error_positions_point_into_the_text(text, token):
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    pos = err.value.position
    if token is None:
        assert pos == len(text)
    else:
        assert text.startswith(token, pos)
    assert str(err.value).endswith(f" at position {pos}")


def test_parse_rational_zero_denominator():
    for text, position in [("1/0", 1), ("1/(s-s)", 1), ("s/(s-s)", 1), ("s/(s+1)/0", 7)]:
        with pytest.raises(ParseError) as err:
            parse_rational(text)
        assert str(err.value) == f"zero denominator at position {position}"


@pytest.mark.parametrize(
    "text, position, cap",
    [
        ("(s+1)^1600/(s+2)^1600", 6, f"exponent 1600 exceeds the cap of {MAX_EXPONENT}"),
        ("((s+1)^60)^60", 6, f"degree 60 exceeds the cap of {MAX_DEGREE}"),
        ("2^65", 2, f"exponent 65 exceeds the cap of {MAX_EXPONENT}"),
        ("(s+1)^20*(s+2)^21", 8, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("1/(s+1)^21 + 1/(s+2)^20", 11, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        # one past each cap
        ("(s+1)^41", 5, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("(s+1)^40*s", 8, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("s*(s+1)^40", 1, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("(s+1)^40/(s+2)^40/s", 17, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        ("1/s^40 + s", 7, f"degree 41 exceeds the cap of {MAX_DEGREE}"),
        # powers of powers: one more ^64 would form a 55.7-million-bit integer
        ("((10^64)^64)^64", 12, f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits"),
        ("(((10^64)^64)^64)^64", 13, f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits"),
        ("((1/10^64)^64)^64", 14, f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits"),
    ],
)
def test_parse_rational_budgets(text, position, cap):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == position
    assert str(err.value) == f"{cap} at position {position}"


@pytest.mark.parametrize(
    "text, position, digits",
    [
        ("1" * 4400 + "*s+1", 0, 4400),  # past Python's int-from-text limit
        (f"({'9' * 400}*s+1)^40/(s+2)^40 - (s+5)/(7*s+3)", 1, 400),
        ("s^" + "1" * 200, 2, 200),
        ("1" * 101, 0, 101),
        ("s + " + "1" * 101 + "*s", 4, 101),
    ],
)
def test_parse_rational_literal_cap(text, position, digits):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == position
    cap = f"literal of {digits} digits exceeds the cap of {MAX_DIGITS}"
    assert str(err.value) == f"{cap} at position {position}"


def test_parse_rational_at_the_caps():
    assert parse_rational(f"2^{MAX_EXPONENT}") == rf(Poly((Fraction(2**MAX_EXPONENT),)))
    big = 10**MAX_DIGITS - 1
    assert parse_rational(f"{big}*s+1") == rf(Poly((Fraction(1), Fraction(big))))
    assert parse_rational(str(big)) == rf(Poly((big,)))
    # the longest coefficient one power of an in-cap literal makes
    assert parse_rational(f"({big})^{MAX_EXPONENT}") == rf(Poly((big**MAX_EXPONENT,)))
    assert parse_rational(f"(1/{big})^{MAX_EXPONENT}") == rf(Poly((Fraction(1, big**MAX_EXPONENT),)))
    assert parse_rational("(s+1)^40") == rf((S + ONE) ** 40)
    assert parse_rational("(s+1)^40/(s+1)^40*s") == rf(S)  # reduced before the '*'
    assert parse_rational("(s+1)^20*(s+2)^20") == rf((S + ONE) ** 20 * (S + 2 * ONE) ** 20)
    assert parse_rational("1/s^39 + s") == rf(S**40 + ONE, S**39)
    # a printed polynomial sums terms of falling degree, none above the cap
    value = rf((S + ONE) ** MAX_DEGREE, (S + 2 * ONE) ** MAX_DEGREE)
    assert parse_rational(str(value)) == value
    assert parse_rational(f"(s+1)^{MAX_DEGREE}/(s+2)^{MAX_DEGREE}") == value


def test_parse_rational_nesting_cap():
    # each level of nesting takes three frames of the recursive parser
    assert MAX_NESTING == 64
    assert parse_rational("(" * 64 + "s+1" + ")" * 64) == rf(S + ONE)
    with pytest.raises(ParseError) as err:
        parse_rational("(" * 65 + "s+1" + ")" * 65)
    assert err.value.position == 64
    assert str(err.value) == "parentheses nested deeper than 64 at position 64"


def test_main_refuses_deep_nesting_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "deep.ini"
    path.write_text(f"[plant]\nmatrix = 1/(s+1)\n[design]\nt = {'(' * 1000}s{')' * 1000}\n")
    code = main(["match", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "parse error: parentheses nested deeper than 64 at position 64\n"


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
    # degree-40 sides with 100-digit coefficients: coprime, and sharing a
    # degree-20 factor (with the content 10**100 // 9 of 9...9*s + 7...7)
    nines, sevens = 10**100 - 1, 7 * (10**100 // 9)
    cases.append((
        f"({nines}*s+1)^40/({sevens}*s+3)^40",
        (nines * S + ONE) ** 40 * Fraction(1, sevens**40),
        (S + Poly((Fraction(3, sevens),))) ** 40,
    ))
    shared = f"({nines}*s+{sevens})^20"
    cases.append((
        f"({shared}*(s+2)^20)/({shared}*({nines}*s+3)^20)",
        (S + 2 * ONE) ** 20 * Fraction(1, nines**20),
        (S + Poly((Fraction(3, nines),))) ** 20,
    ))
    for text, num, den in cases:
        start = time.perf_counter()
        value = parse_rational(text)
        assert time.perf_counter() - start < 0.5, text
        assert (value.num, value.den) == (num, den)


def test_shipped_problem_files_parse():
    matrix_keys = {"t", "m", "lambda", "d_t", "targets", "cy", "cr", "r", "cff", "cfb"}
    problems = sorted(PROBLEMS.glob("*.ini"))
    assert len(problems) == 17
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


@pytest.mark.parametrize("given", ["option", "flag"])
@pytest.mark.parametrize(
    "shift", ["1e2000", "1e-20000", "1" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1)]
)
def test_main_refuses_a_shift_beyond_the_digit_cap(tmp_path, capsys, given, shift):
    # exponent notation reaches the cap of an expression literal too
    path = tmp_path / "prob.ini"
    options = f"[options]\nshift = {shift}\n" if given == "option" else ""
    path.write_text("[plant]\nmatrix = 1/(s-1)\n" + options)
    argv = ["match", str(path)] + (["--shift", shift] if given == "flag" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    prefix = "argument --shift: " if given == "flag" else ""
    assert captured.err == (
        f"error: {prefix}Fraction value {shift!r} exceeds the cap of {MAX_DIGITS} digits\n"
    )


@pytest.mark.parametrize(
    "shift, value",
    [
        ("9" * MAX_DIGITS, Fraction("9" * MAX_DIGITS)),
        ("1/" + "7" * MAX_DIGITS, 1 / Fraction("7" * MAX_DIGITS)),
        ("1e99", Fraction(10) ** 99),
        ("0.5e-99", Fraction(1, 2 * 10**99)),
        ("2.5E+3", Fraction(2500)),
    ],
)
def test_a_shift_within_the_digit_cap_is_read_exactly(shift, value):
    assert _fraction(shift) == value


def test_a_shift_exponent_past_the_cap_forms_no_number(monkeypatch):
    # 10**999999999 would take minutes and gigabytes to form: the exponent
    # alone is refused, before any Fraction is built
    def no_fraction(text):
        raise AssertionError(f"Fraction({text!r}) was formed")

    monkeypatch.setattr(twodof.cli, "Fraction", no_fraction)
    for shift in ["1e-999999999", "2.5E+999999999"]:
        with pytest.raises(argparse.ArgumentTypeError, match="exceeds the cap of 100 digits"):
            _fraction(shift)


@pytest.mark.parametrize("given", ["option", "flag"])
def test_main_match_refuses_an_unknown_sign(tmp_path, capsys, given):
    # any sign but pos/neg is refused before printing: "positive" once read
    # as the negative-feedback test ((1-t)/d, t/n)
    path = tmp_path / "prob.ini"
    options = "[options]\nsign = positive\n" if given == "option" else ""
    path.write_text("[plant]\nmatrix = 1/(s-1)\n[design]\nt = 1/(s+1)\n" + options)
    argv = ["match", str(path)] + (["--sign", "positive"] if given == "flag" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.count("\n") == 1
    if given == "option":
        assert captured.err == "error: invalid sign: 'positive' (choose from 'pos', 'neg')\n"
    else:
        assert captured.err.startswith("error: argument --sign: invalid choice: 'positive'")


@pytest.mark.parametrize("sign, shown", [("pos", "(1+t)/d"), ("neg", "(1-t)/d")])
def test_main_match_reads_the_sign_option(tmp_path, capsys, sign, shown):
    path = tmp_path / "prob.ini"
    path.write_text(
        f"[plant]\nmatrix = 1/(s-1)\n[design]\nt = 1/(s+1)\n[options]\nsign = {sign}\n"
    )
    main(["match", str(path)])
    out = capsys.readouterr().out
    assert out.startswith(f"scalar restricted-loop feasibility ({shown}, t/n): ")


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


def printed_value(out: str, label: str) -> str:
    """The value a ``_print_named`` line of ``out`` prints under a label
    matching the pattern ``label``: the rest of its line and the matrix rows
    below it."""
    return re.search(rf"^{label} =(.*\n(?:  \[.*\n)*)", out, re.M).group(1)


@pytest.mark.parametrize(
    "name", [p.name for p in sorted(PROBLEMS.glob("*.ini")) if "[plant]" in p.read_text()]
)
def test_unity_parameter_prints_the_feedback_map_stabilize_prints(capsys, name):
    # the unity loop is the 2-DOF loop with cr = cy, and x' = -(u + k@dl')
    # makes cff = f**-1@x' the Youla feedback map cy of the same k
    problem = str(PROBLEMS / name)
    assert main(["unity-parameter", problem]) == 0
    unity = capsys.readouterr().out
    assert unity.endswith("internal stability: stable\n")
    assert main(["stabilize", problem]) == 0
    stabilize = capsys.readouterr().out
    assert printed_value(unity, "unity-loop cff") == printed_value(
        stabilize, "(?:central )?feedback map cy"
    )


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


@pytest.mark.parametrize(
    "text, final",
    [
        # y/r = p @ (I - cy@p)**-1 @ cr = 2/(s + 2)
        ("[plant]\nmatrix = 1/(s+1)\n[config]\nloop = two-dof\ncy = -1\ncr = 2\n", 1 - math.exp(-2)),
        ("[plant]\nmatrix = 3/(s+3)\n", 1 - math.exp(-3)),
    ],
    ids=["config loop", "bare plant"],
)
def test_main_simulate_a_loop_or_a_bare_plant(tmp_path, capsys, text, final):
    path = tmp_path / "prob.ini"
    path.write_text(text)
    code = main(["simulate", str(path), "--horizon", "1", "--dt", "0.5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "t,y1" and len(lines) == 4
    assert abs(float(lines[-1].split(",")[1]) - final) < 1e-9


def test_main_simulate_refuses_a_file_with_nothing_to_simulate(tmp_path, capsys):
    path = tmp_path / "prob.ini"
    path.write_text("[options]\nhorizon = 1\n")
    code = main(["simulate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "error: nothing to simulate: give [design] t, a [config], or a [plant]\n"
    )


def test_main_simulate_refuses_an_infinite_step(capsys):
    code = main(["simulate", str(PROBLEMS / "example_simulate.ini"), "--dt", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: horizon and dt must be positive and finite\n"


def test_main_simulate_refuses_a_step_count_past_float_range(capsys):
    # 1e200 / 1e-200 overflows to inf, which is over the sample cap
    code = main([
        "simulate", str(PROBLEMS / "example_simulate.ini"), "--horizon", "1e200", "--dt", "1e-200",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: inf samples exceed the cap of 1000000\n"


@pytest.mark.parametrize("channel", [0, 3])
def test_main_simulate_refuses_a_channel_outside_the_inputs(tmp_path, capsys, channel):
    path = tmp_path / "prob.ini"
    path.write_text(f"[design]\nt = 1/(s+1), 2/(s+2)\nchannel = {channel}\n")
    code = main(["simulate", str(path), "--horizon", "1", "--dt", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: channel {channel} is outside 1..2\n"



def test_main_simulate_refuses_a_channel_past_the_digit_cap(tmp_path, capsys):
    # the length is checked before int() reads the text, and not echoed
    path = tmp_path / "prob.ini"
    path.write_text(f"[design]\nt = 1/(s+1)\nchannel = {'9' * (MAX_DIGITS + 1)}\n")
    code = main(["simulate", str(path), "--horizon", "1", "--dt", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: channel of {MAX_DIGITS + 1} characters exceeds the cap of {MAX_DIGITS}\n"


@pytest.mark.parametrize("text", ["\u0662", "1_0"])
@pytest.mark.parametrize(
    "name, kind, argv, section",
    [
        ("shift", "Fraction", ["match"], "options"),
        ("horizon", "float", ["simulate"], "options"),
        ("dt", "float", ["simulate"], "options"),
        ("channel", "channel", ["simulate"], "design"),
        ("shift", "Fraction", ["match", "--shift"], None),
        ("horizon", "float", ["simulate", "--horizon"], None),
        ("dt", "float", ["simulate", "--dt"], None),
    ],
)
def test_main_refuses_a_number_that_is_not_ascii_digits(tmp_path, capsys, text, name, kind, argv, section):
    # int, float and Fraction read the Arabic-Indic digit two and '_' as
    # digits: `--shift \u0662` once ran with shift 2 and `channel = \u0661`
    # simulated channel 1
    path = tmp_path / "prob.ini"
    value = f"[{section}]\n{name} = {text}\n" if section else ""
    path.write_text("[plant]\nmatrix = 1/(s-1), 1/(s+2)\n" + value)
    code = main([argv[0], str(path), *argv[1:], *([text] if not section else [])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    prefix = "" if section else f"argument --{name}: "
    assert captured.err == f"error: {prefix}invalid {kind} value: {text!r}\n"

@pytest.mark.parametrize("plant, zero", [("(s^2-2)/(s+1)^3", "1.41421"), ("(s^2-2*s+5)/(s+1)^3", "1+2j")])
def test_invert_and_factor_print_an_irrational_zero_alike(tmp_path, capsys, plant, zero):
    path = tmp_path / "prob.ini"
    path.write_text(f"[plant]\nmatrix = {plant}\n")
    assert main(["invert", str(path)]) == 2
    assert f"  - plant has an unstable zero at s = {zero}\n" in capsys.readouterr().out
    assert main(["factor", str(path)]) == 0
    assert f"zero at s = {zero} (multiplicity 1, unstable)" in capsys.readouterr().out


# 10^320 is past the float range (about 1.8e308): each root is found on a
# variable scaled by a power of two, so no coefficient becomes such a float
HUGE = "10^64*10^64*10^64*10^64*10^64"


def run_main(tmp_path, capsys, command, plant):
    path = tmp_path / "prob.ini"
    path.write_text(f"[plant]\nmatrix = {plant}\n")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invert_names_zeros_past_the_float_range_of_their_square(tmp_path, capsys):
    assert run_main(tmp_path, capsys, "invert", f"(s^2 + {HUGE})/(s+1)^3") == (2, (
        "design obstruction:\n"
        "  - exact inversion impossible for this plant\n"
        "  - plant has an unstable zero at s = 0+1e+160j\n"
        "  - plant has an unstable zero at s = 0-1e+160j\n"
        "  - plant has positive relative degree (n'**-1 improper)\n"
        f"  - parameter verdict: unstable; offending factors: s^2 + {10**320}"
        " (imaginary-axis root), improper entry\n"
    ), "")


def test_factor_prints_poles_past_the_float_range_of_their_square(tmp_path, capsys):
    assert run_main(tmp_path, capsys, "factor", f"1/(s^2 + {HUGE})") == (0, (
        "plant: 1 outputs, 1 inputs\n"
        "right numerator n = 1\n"
        f"right denominator d = s^2 + {10**320}\n"
        "left numerator n~ = 1\n"
        f"left denominator d~ = s^2 + {10**320}\n"
        "column scaling: diag((s + 1)^2)\n"
        "stable numerator n' = (1)/(s^2 + 2*s + 1)\n"
        f"stable denominator d' = (s^2 + {10**320})/(s^2 + 2*s + 1)\n"
        f"witness u (u@n' + v@d' = I) = ({3 - 10**320}*s - {3 * 10**320 - 1})/(s + 1)\n"
        "witness v = (s + 3)/(s + 1)\n"
        "zero polynomial: 1\n"
        f"pole polynomial: s^2 + {10**320}\n"
        "pole at s = 0+1e+160j (multiplicity 1, unstable)\n"
        "pole at s = 0-1e+160j (multiplicity 1, unstable)\n"
    ), "")


def test_factor_prints_zeros_past_the_float_range_of_their_square(tmp_path, capsys):
    assert run_main(tmp_path, capsys, "factor", f"(s^2 + {HUGE})/(s+1)^3") == (0, (
        "plant: 1 outputs, 1 inputs\n"
        f"right numerator n = s^2 + {10**320}\n"
        "right denominator d = s^3 + 3*s^2 + 3*s + 1\n"
        f"left numerator n~ = s^2 + {10**320}\n"
        "left denominator d~ = s^3 + 3*s^2 + 3*s + 1\n"
        "column scaling: diag((s + 1)^3)\n"
        f"stable numerator n' = (s^2 + {10**320})/(s^3 + 3*s^2 + 3*s + 1)\n"
        "stable denominator d' = 1\n"
        "witness u (u@n' + v@d' = I) = 0\n"
        "witness v = 1\n"
        f"zero polynomial: s^2 + {10**320}\n"
        "pole polynomial: s^3 + 3*s^2 + 3*s + 1\n"
        "zero at s = 0+1e+160j (multiplicity 1, unstable)  direction [1]\n"
        "zero at s = 0-1e+160j (multiplicity 1, unstable)  direction [1]\n"
        "pole at s = -1 (multiplicity 3, stable)\n"
    ), "")


def test_factor_refuses_roots_no_one_float_scale_holds(tmp_path, capsys):
    # roots near -10^448 and -10^-448: scaled to one size, an end coefficient
    # of s^2 + 10^448*s + 1 is 10^-448 of the largest, below the float range
    code, out, err = run_main(tmp_path, capsys, "factor", "1/(s^2 + (10^64)^7*s + 1)")
    assert (code, err) == (1, "error: the roots of a degree-2 factor span more than the float range\n")
    assert out.startswith("plant: 1 outputs, 1 inputs\n") and "pole at" not in out



def test_factor_refuses_roots_past_the_float_range(tmp_path, capsys):
    # poles at +-10^320 j: found on u = s / 2**1063, they are refused when
    # scaled back past the float range, not stopped by a math range error
    code, out, err = run_main(tmp_path, capsys, "factor", "1/(s^2 + (10^64)^10)")
    assert (code, err) == (1, "error: the roots of a degree-2 factor lie beyond the float range\n")
    assert out.endswith("witness v = (s + 3)/(s + 1)\n")


@pytest.mark.parametrize("zeros, factor, reason", [
    # +-10^320 j, past the float range
    ("s^2 + (10^64)^10", f"s^2 + {10**640}", "imaginary-axis root"),
    # near 10^448 and 10^-448, which no one float scale holds
    ("s^2 - (10^64)^7*s + 1", f"s^2 - {10**448}*s + 1", "right-half-plane root"),
], ids=["past-the-float-range", "no-one-float-scale"])
def test_invert_names_the_factor_of_zeros_no_float_holds(tmp_path, capsys, zeros, factor, reason):
    assert run_main(tmp_path, capsys, "invert", f"({zeros})/(s+1)^3") == (2, (
        "design obstruction:\n"
        "  - exact inversion impossible for this plant\n"
        f"  - plant has an unstable zero among the roots of {factor}\n"
        "  - plant has positive relative degree (n'**-1 improper)\n"
        f"  - parameter verdict: unstable; offending factors: {factor} ({reason}), improper entry\n"
    ), "")

# the zeros of s^6 + 2*s^5 - 2*s^4 + 2*s^3 + 36*s^2 + 57*s + 23, one
# irreducible factor: real part descending, each pair upper root first
ORDERED = "(s^3 - 2)/(s+1)^4, 1/(s+2); (s-3)/(s+1)^2, (s^2+s+1)/(s+3)^2"


def test_factor_lists_the_roots_of_a_factor_in_one_order(tmp_path, capsys):
    code, out, err = run_main(tmp_path, capsys, "factor", ORDERED)
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("zero at")] == [
        "zero at s = 1.80393+1.68653j (multiplicity 1, unstable)  direction [1, -0.448351+0.589702j]",
        "zero at s = 1.80393-1.68653j (multiplicity 1, unstable)  direction [1, -0.448351-0.589702j]",
        "zero at s = -0.656117 (multiplicity 1, stable)",
        "zero at s = -1.5977+0.848573j (multiplicity 1, stable)",
        "zero at s = -1.5977-0.848573j (multiplicity 1, stable)",
        "zero at s = -1.75635 (multiplicity 1, stable)",
    ]


def test_invert_lists_the_unstable_zeros_in_the_order_of_factor(tmp_path, capsys):
    code, out, err = run_main(tmp_path, capsys, "invert", ORDERED)
    assert (code, err) == (2, "")
    assert out.splitlines()[:5] == [
        "design obstruction:",
        "  - exact inversion impossible for this plant",
        "  - plant has an unstable zero at s = 1.80393+1.68653j",
        "  - plant has an unstable zero at s = 1.80393-1.68653j",
        "  - plant has positive relative degree (n'**-1 improper)",
    ]


# 1 followed by 99 zeros, the longest literal, to the 64th power has 6337
# digits: within the power cap, past Python's 4300-digit int-to-text limit
LONGEST = "1" + "0" * (MAX_DIGITS - 1)


@pytest.mark.parametrize("plant, zeros", [
    (f"({LONGEST})^64/(s+1)", 6336),
    (f"({LONGEST})^64*({LONGEST})^64/(s+1)", 12672),
], ids=["power", "product"])
def test_factor_prints_in_cap_values_past_the_int_to_text_limit(tmp_path, capsys, plant, zeros):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_main(tmp_path, capsys, "factor", plant)
    assert (code, err) == (0, "")
    assert "\nright numerator n = 1" + "0" * zeros + "\n" in out
    assert sys.get_int_max_str_digits() == limit


def test_main_match_realizes_the_scalar_zero_plant(tmp_path, capsys):
    # the restricted-loop feasibility line divides by the plant, so a zero
    # plant goes without it
    path = tmp_path / "prob.ini"
    path.write_text("[plant]\nmatrix = 0\n[design]\nt = 0\n")
    code = main(["match", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("x = 0\nx' = 0\ncy = 0\ncr = 0\n")
    assert "PASS" in captured.out and "FAIL" not in captured.out


def test_main_match_refuses_a_unity_target_of_the_wrong_width_before_designing(tmp_path, capsys):
    # the unity loop feeds back y, so t needs one column per plant output
    path = tmp_path / "prob.ini"
    diag = "1/(s+1), 0; 0, 1/(s+2)"
    path.write_text(f"[plant]\nmatrix = {diag}\n[design]\nt = 1/(s+1); 1/(s+2)\n[config]\nloop = unity\n")
    code = main(["match", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: a unity loop needs t with 2 columns, one per plant output\n"


# t = n'@x' for the x' of find_admissible_unity_xprime on the unstable 2x2
UNITY_2X2 = "1/(s-1), 1/(s+2); 1/(s+3), 1/(s+1)"
UNITY_2X2_T = (
    "(-1/3*s^2 - 10/3*s - 13/3)/(s^3 + 3*s^2 + 3*s + 1), (s + 3)/(s^2 + 2*s + 1); "
    "(-1/3*s^2 - 1/3*s + 2/3)/(s^3 + 3*s^2 + 3*s + 1), (s - 1)/(s^2 + 2*s + 1)"
)


def test_main_match_closes_a_mimo_unity_loop(tmp_path, capsys):
    smfd = twodof.factor.stable_mfd(twodof.factor.right_coprime_mfd(parse_matrix(UNITY_2X2)))
    assert smfd.nprime @ twodof.synthesis.find_admissible_unity_xprime(smfd) == parse_matrix(UNITY_2X2_T)
    path = tmp_path / "prob.ini"
    problem = f"[plant]\nmatrix = {UNITY_2X2}\n[design]\nt = {{}}\n[config]\nloop = unity\n"
    path.write_text(problem.format(UNITY_2X2_T))
    assert main(["match", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unity-loop cff" in out and "closed-loop cross-check" in out and "FAIL" not in out
    path.write_text(problem.format("1/(s+1)^2, 0; 0, 1/(s+1)^2"))
    assert main(["match", str(path)]) == 2
    assert "unity-feedback restriction failed" in capsys.readouterr().out


def _obstruction(*reasons):
    return 2, "design obstruction:\n" + "".join(f"  - {r}\n" for r in reasons), ""


def _error(message):
    return 1, "", f"error: {message}\n"


ROW_PLANT = "[plant]\nmatrix = 1/(s+1), 1/(s+2)\n"
DIAGONAL_PLANT = "[plant]\nmatrix = 1/(s+1), 0; 0, 1/(s+2)\n"
SCALAR_PLANT = "[plant]\nmatrix = 1/(s+1)\n"


@pytest.mark.parametrize("command, text, expected", [
    ("decouple", ROW_PLANT + "[design]\ntargets = 1/(s+1)\n",
     _obstruction("decoupling requires a square plant")),
    ("invert", ROW_PLANT, _obstruction("exact inversion requires a square plant")),
    ("decouple", DIAGONAL_PLANT + "[design]\ntargets = 1/(s+1)\n",
     _error("expected 2 targets, got 1")),
    ("decouple", DIAGONAL_PLANT + "[design]\ntargets = s, 1/(s+1)\n",
     _obstruction("target 1 is improper")),
    ("decouple", DIAGONAL_PLANT + "[design]\ntargets = 1/(s-1), 1/(s+1)\n",
     _obstruction("target 1 is unstable: unstable; offending factors: s - 1 (right-half-plane root)")),
    ("decouple",
     "[plant]\nmatrix = 1/(s+1), 1/(s+1); 1/(s+1), 1/(s+1)\n[design]\ntargets = 1/(s+1), 1/(s+1)\n",
     _obstruction("plant transfer matrix is singular (det n' = 0); cannot decouple")),
    ("verify", "[plant]\nmatrix = 1/(s+1)\n[config]\nloop = cascade\n",
     _error("unknown loop 'cascade'; expected one of "
            "['feedback-direct', 'ff-fb-r', 'two-dof', 'unity']")),
    ("match", "[plant]\nmatrix = 0, -1/((s+1)*(s-3)); 2/(s-3), 2*(s+1)/(s+3)\n[design]\nt = 1; 0\n",
     _obstruction("parameter x is improper (relative-degree violation)",
                  "control map d@x is improper (target relative degree below the plant's)")),
    ("decouple",
     "[plant]\nmatrix = 1/(s-3), 2*(s-3)/((s+1)*(s+3)); 0, -2/((s+2)*(s+1))\n"
     "[design]\ntargets = 1/(s+1), 1/(s+1)\n",
     _obstruction("parameter x' not proper-stable: unstable; offending factors: improper entry",
                  "control map d'@x' is improper")),
    ("static-decouple", SCALAR_PLANT + "[design]\nlambda = 1/s\n",
     _error("lam must be a constant matrix")),
    ("static-decouple", DIAGONAL_PLANT + "[design]\nlambda = 1\n",
     _error("static decoupling requires a square plant matching lam")),
    ("match", SCALAR_PLANT + "[design]\nt = 1/(s+1); 1/(s+2)\n",
     _error("target must have 1 rows, got 2")),
], ids=["decouple-row", "invert-row", "one-target", "improper-target", "unstable-target",
        "singular-plant", "unknown-loop", "improper-x", "improper-control-map",
        "lambda-pole", "lambda-shape", "target-rows"])
def test_main_refuses_a_design_it_cannot_make(tmp_path, capsys, command, text, expected):
    path = tmp_path / "prob.ini"
    path.write_text(text)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize("command, text, code, out_tail, err", [
    ("match", "[plant]\nmatrix = (s+2)/(s+1)\n[design]\nt = -1\n[config]\nloop = unity\n", 2,
     "design obstruction:\n  - I + x'@n' is singular; the unity loop is ill posed\n", ""),
    # t(oo) = -p(oo), so f = (I + x'@n') @ d'**-1 vanishes at infinity
    ("match", "[plant]\nmatrix = (s+1)/(s-2)\n[design]\nt = (-s^2-5)/(s+1)^2\n[config]\nloop = unity\n", 2,
     "design obstruction:\n  - unity-loop cff = f**-1@x' is improper: f is singular at infinity\n", ""),
    ("match", SCALAR_PLANT + "[design]\nt = 1/(s+1)\nm = 1, 1\n", 1,
     "scalar restricted-loop feasibility ((1+t)/d, t/n): stable\n",
     "error: control target must be 1x1, got (1, 2)\n"),
    ("factor", "[plant]\nmatrix = 0\n", 0, "zero polynomial: 1\npole polynomial: 1\n", ""),
    ("verify", SCALAR_PLANT + "[config]\nloop = two-dof\ncy = 0\ncr = 1\n[design]\nt = 1/(s+2)\n", 0,
     "closed-loop response equals the desired t: FAIL (unstable)\nloop well posed: PASS (stable)\n"
     + "".join(f"internal map {name} proper and stable: PASS (stable)\n"
               for name in ("(I - cy@p)**-1", "(I - cy@p)**-1 @ cy",
                            "p @ (I - cy@p)**-1", "p @ (I - cy@p)**-1 @ cy")), ""),
    # x' is read off the Youla controller, so a pole of multiplicity 17 is
    # designed like any other unstable plant
    ("unity-parameter", "[plant]\nmatrix = 1/(s-1)^17\n", 0, "internal stability: stable\n", ""),
], ids=["unity-loop-ill-posed", "unity-loop-improper-cff", "control-target-shape", "zero-plant",
        "target-not-realized", "unity-high-multiplicity"])
def test_main_ends_its_report_with(tmp_path, capsys, command, text, code, out_tail, err):
    path = tmp_path / "prob.ini"
    path.write_text(text)
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.endswith(out_tail) and captured.err == err


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


# a cubic with a stable pair at real part -2.5e-11, once found by np.roots
CUBIC = "10000000000/(10000000000*s^3 - 9999999999*s^2 + 10000000000*s - 10000000000)"


def test_cli_runs_leave_numpy_and_scipy_unloaded(tmp_path):
    # numpy and scipy are test oracles only: a fresh process of either
    # float-using command imports neither
    cubic = tmp_path / "cubic.ini"
    cubic.write_text(f"[plant]\nmatrix = {CUBIC}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import contextlib, io, sys, twodof.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = twodof.cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    for argv in (["factor", cubic], ["simulate", PROBLEMS / "example_simulate.ini"]):
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert (argv[0], out.strip()) == (argv[0], "0 []")


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
    # excluded) may import sympy, the test-only oracle
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
    assert out.strip() == "153 [False, False]"
