"""Command-line front end.

Problem files are INI-style with four sections:

    [plant]
    matrix = (s-1)*(s+2)/(s-2)^2

    [design]
    problem = match
    t = (s-1)/(s+1)^2

    [config]
    loop = two-dof

    [options]
    shift = 2

Matrix values separate entries with ',' and rows with ';'.  Every entry
is a rational expression over s: sums/differences of terms, '*' and '/',
'^' with an unsigned integer exponent, parentheses, integer literals
(so 3/4 is simply the division of two literals).  A leading '-' is
accepted at the start of an expression or parenthesized group.  Literals
longer than MAX_DIGITS digits, exponents above MAX_EXPONENT, parentheses
nested deeper than MAX_NESTING, any step whose unreduced numerator or
denominator would exceed degree MAX_DEGREE, and any power that could have
a coefficient of more than MAX_DIGITS * MAX_EXPONENT digits, are refused
before they are computed: exact normalisation of a high-degree fraction
with long coefficients can take minutes, a power of a power of a power
can take minutes and gigabytes, and each level of nesting takes four
frames of the recursive parser.
"""

from __future__ import annotations

import argparse
import configparser
import math
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction

from .factor import StableMFD, _fmt_root, right_coprime_mfd, stable_mfd, zeros_and_poles
from .polyalg import ONE, S, Poly, PolyMat, RatFn, RatMat, ShapeError, _as_ratfn
from .stabilize import IllPosedLoop, TwoDofConfig, _youla_feedback, solve_bezout
from .synthesis import (
    DesignObstruction,
    DesignResult,
    FeedbackDirectRConfig,
    FfFbRConfig,
    UnityFeedbackConfig,
    denominator_assignment_direct,
    denominator_assignment_unity,
    diagonal_decoupling,
    find_admissible_unity_xprime,
    inverse_problem,
    model_matching,
    siso_conditions,
    static_decoupling,
    unity_feedback_controller,
)
from .verify import certify, closed_loop, dc_gain, simulate_step

__all__ = ["ParseError", "parse_rational", "parse_matrix", "main"]

MAX_EXPONENT = 64
MAX_NESTING = 64
MAX_DEGREE = 40
# The slowest in-cap inputs found parse in 0.2-0.3 s (2 cores, CPython
# 3.11.7): sums of two quotients of 20th powers of linear factors with
# 100-digit coefficients.  A literal of more than 4300 digits would overflow
# Python's int-from-text limit.
MAX_DIGITS = 100


# -- expression grammar ---------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_SYMBOLS = set("s+-*/^()")
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": operator.pow,
}


def _apply(op: str, a: Poly | RatFn, b: Poly | RatFn | int, pos: int) -> Poly | RatFn:
    """a op b (b an int exponent for '^'), refused past the degree cap or,
    for '^', the digit cap of a power (see the module docstring).  It stays a
    `Poly` until a '/', or a `Poly` meeting a `RatFn`, makes it a `RatFn`."""
    an, ad = _degrees(a)
    if op == "^":
        degree = b * max(an, ad)
        # each integer storing a**b is at most (sum of |c|)**b over those storing a
        size = max(max(sum(map(abs, p._z)), p._d) for p in _parts(a))
        if b * math.log10(size) > MAX_DIGITS * MAX_EXPONENT:
            raise ParseError(f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits", pos)
    else:
        bn, bd = _degrees(b)
        if op == "/":  # a / b multiplies a by bd / bn
            bn, bd = bd, bn
        degree = max(max(an + bd, bn + ad) if op in "+-" else an + bn, ad + bd)
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the cap of {MAX_DEGREE}", pos)
    if op == "/" and a.__class__ is b.__class__ is Poly:
        return RatFn(a, b)
    if op != "^" and a.__class__ is not b.__class__:
        a, b = _as_ratfn(a), _as_ratfn(b)
    return _BINARY[op](a, b)


def _parts(x: Poly | RatFn) -> tuple[Poly, Poly]:
    return (x, ONE) if x.__class__ is Poly else (x.num, x.den)


def _degrees(x: Poly | RatFn) -> tuple[int, int]:
    num, den = _parts(x)
    return num.degree() or 0, den.degree() or 0


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    # [0-9], not \d or str.isdigit, which take superscript and Arabic-Indic digits
    for match in re.finditer(r"[0-9]+|\S", text):
        tok, i = match.group(), match.start()
        if tok[0] in "0123456789":
            if len(tok) > MAX_DIGITS:
                raise ParseError(f"literal of {len(tok)} digits exceeds the cap of {MAX_DIGITS}", i)
            tokens.append(("int", tok, i))
        elif tok in _SYMBOLS:
            tokens.append((tok, tok, i))
        else:
            raise ParseError(f"unexpected character {tok!r}", i)
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0  # parentheses open

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            want = "end of input" if kind == "end" else repr(kind)
            raise ParseError(f"expected {want}, found {tok[1] or 'end of input'!r}", tok[2])
        self.k += 1
        return tok

    def expression(self) -> Poly | RatFn:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        value = -self.term() if negate else self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            value = _apply(op, value, self.term(), pos)
        return value

    def term(self) -> Poly | RatFn:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("zero denominator", pos)
            value = _apply(op, value, rhs, pos)
        return value

    def factor(self) -> Poly | RatFn:
        value = self.base()
        if self.peek()[0] == "^":
            pos = self.take()[2]
            _, text, exp_pos = self.take("int")
            k = int(text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds the cap of {MAX_EXPONENT}", exp_pos)
            value = _apply("^", value, k, pos)
        return value

    def base(self) -> Poly | RatFn:
        kind, text, pos = self.peek()
        if kind == "s":
            self.take()
            return S
        if kind == "int":
            self.take()
            return Poly((int(text),))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            inner = self.expression()
            self.take(")")
            self.depth -= 1
            return inner
        raise ParseError(
            f"expected 's', a number, or '(', found {text or 'end of input'!r}", pos
        )


def parse_rational(text: str) -> RatFn:
    parser = _Parser(text)
    value = parser.expression()
    parser.take("end")
    return _as_ratfn(value)


def parse_matrix(text: str) -> RatMat:
    rows = [[parse_rational(cell) for cell in row.split(",")] for row in text.split(";")]
    if len({len(row) for row in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return RatMat(rows)


def parse_poly_matrix(text: str) -> PolyMat:
    mat = parse_matrix(text)
    for i, row in enumerate(mat.rows):
        for j, entry in enumerate(row):
            if entry.den != ONE:
                raise ValueError(
                    f"entry ({i + 1},{j + 1}) must be a polynomial, got {entry}"
                )
    return PolyMat(tuple(tuple(e.num for e in row) for row in mat.rows))


# -- problem files ---------------------------------------------------------------


ProblemFile = namedtuple("ProblemFile", "plant design configuration options")


def load_problem(path: str) -> ProblemFile:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=None)
    loaded = cp.read(path)
    if not loaded:
        raise ValueError(f"cannot read problem file {path!r}")
    plant = None
    if cp.has_option("plant", "matrix"):
        plant = parse_matrix(cp.get("plant", "matrix"))
    section = lambda name: dict(cp.items(name)) if cp.has_section(name) else {}
    return ProblemFile(
        plant=plant,
        design=section("design"),
        configuration=section("config"),
        options=section("options"),
    )


def _require_plant(pf: ProblemFile) -> RatMat:
    if pf.plant is None:
        raise ValueError("problem file needs a [plant] section with a matrix key")
    return pf.plant


def _design(pf: ProblemFile, key: str) -> str:
    if key not in pf.design:
        raise ValueError(f"problem file needs {key} in the [design] section")
    return pf.design[key]


def _option(pf: ProblemFile, args: argparse.Namespace, name: str, default, conv):
    cli_value = getattr(args, name.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if name in pf.options:
        try:
            return conv(pf.options[name])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
    return default


def _shift(pf: ProblemFile, args: argparse.Namespace) -> Fraction:
    """The stable divisor shift (--shift, else [options] shift, else 1),
    refused before anything is printed unless it is positive."""
    shift = _option(pf, args, "shift", Fraction(1), _fraction)
    if shift <= 0:
        raise ValueError("shift must be positive")
    return shift


def _stable_plant_data(pf: ProblemFile, args: argparse.Namespace) -> tuple[RatMat, StableMFD]:
    """The plant and its one analysis (``stable_mfd``), which refuses an
    improper plant before anything is printed."""
    plant = _require_plant(pf)
    shift = _shift(pf, args)
    return plant, stable_mfd(right_coprime_mfd(plant), shift=shift)


# -- report helpers ---------------------------------------------------------------


def _fmt_matrix(rows: Sequence[Sequence]) -> str:
    cells = [[str(e) for e in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    lines = []
    for row in cells:
        padded = [cell.ljust(w) for cell, w in zip(row, widths)]
        lines.append("  [ " + "  ".join(padded).rstrip() + " ]")
    return "\n".join(lines)


def _print_named(name: str, mat: RatMat | PolyMat) -> None:
    if mat.shape == (1, 1):
        print(f"{name} = {mat.entry(0, 0)}")
    else:
        print(f"{name} =")
        print(_fmt_matrix(mat.rows))


def _shift_power(shift: Fraction, degree: int) -> str:
    base = f"(s + {shift})" if shift >= 0 else f"(s - {-shift})"
    return base if degree == 1 else f"{base}^{degree}"


def _print_design_result(res: DesignResult) -> None:
    _print_named("x", res.x)
    if res.xprime is not None:
        _print_named("x'", res.xprime)
    for name, mat in zip(res.configuration._fields, res.configuration):
        _print_named(name, mat)
    _print_named("achieved y/r", res.achieved_t)
    _print_named("achieved u/r", res.achieved_m)
    print("certificates:")
    for cert in res.certificates:
        print("  " + cert.describe())


def _verify_against(plant: RatMat, res: DesignResult, desired_t: RatMat) -> None:
    report = closed_loop(plant, res.configuration)
    print("closed-loop cross-check:")
    for cert in certify(report, desired_t):
        print("  " + cert.describe())


# -- subcommands --------------------------------------------------------------------


def cmd_factor(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    mfd, left = smfd.source, smfd.left
    print(f"plant: {plant.shape[0]} outputs, {plant.shape[1]} inputs")
    _print_named("right numerator n", mfd.n)
    _print_named("right denominator d", mfd.d)
    _print_named("left numerator n~", left.nl)
    _print_named("left denominator d~", left.dl)
    scaling = ", ".join(
        _shift_power(smfd.shift, deg) if deg else "1" for deg in smfd.col_degrees
    )
    print(f"column scaling: diag({scaling})")
    _print_named("stable numerator n'", smfd.nprime)
    _print_named("stable denominator d'", smfd.dprime)
    _print_named("witness u (u@n' + v@d' = I)", smfd.u)
    _print_named("witness v", smfd.v)
    report = zeros_and_poles(mfd)
    print(f"zero polynomial: {report.zero_polynomial}")
    print(f"pole polynomial: {report.pole_polynomial}")
    for zero in report.zeros:
        tag = "unstable" if zero.unstable else "stable"
        line = f"zero at s = {_fmt_root(zero.location)} (multiplicity {zero.multiplicity}, {tag})"
        if zero.direction is not None:
            line += "  direction [" + ", ".join(_fmt_root(v) for v in zero.direction) + "]"
        print(line)
    for pole in report.poles:
        tag = "unstable" if pole.unstable else "stable"
        print(f"pole at s = {_fmt_root(pole.location)} (multiplicity {pole.multiplicity}, {tag})")


def cmd_stabilize(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    x1, x2 = solve_bezout(smfd.source)
    _print_named("bezout x1 (x1@d + x2@n = I)", x1)
    _print_named("bezout x2", x2)
    # the loop's verdict is decided on its one denominator; its maps are not formed
    cy, _, loop = _youla_feedback(smfd)
    _print_named("central feedback map cy", cy)
    print(f"internal stability: {loop.verdict.describe()}")
    m_in, p_out = plant.shape[1], plant.shape[0]
    # k is strictly proper, so v - k@nl' equals the nonsingular v at infinity
    # and its cy is proper: the sample is admissible
    sample = RatMat([[RatFn(ONE, S + (1 + smfd.shift)) for _ in range(p_out)] for _ in range(m_in)])
    cy2, _, loop2 = _youla_feedback(smfd, sample)
    _print_named("sample parameter k", sample)
    _print_named("sample feedback map cy", cy2)
    print(f"internal stability: {loop2.verdict.describe()}")


def cmd_match(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    t = parse_matrix(_design(pf, "t"))
    m = parse_matrix(pf.design["m"]) if "m" in pf.design else None
    sign = {"pos": 1, "neg": -1}.get(text := _option(pf, args, "sign", "pos", str))
    if sign is None:
        raise ValueError(f"invalid sign: {text!r} (choose from 'pos', 'neg')")
    unity = pf.configuration.get("loop") == "unity"
    if unity and (plant.shape[1], t.shape[1]) != (1, 1):  # the shape of x'
        raise ValueError("unity-loop realization is implemented for scalar designs")
    if plant.shape == (1, 1) and t.shape == (1, 1) and not plant.entry(0, 0).is_zero():
        feas = siso_conditions(plant.entry(0, 0), t.entry(0, 0), sign=sign)
        print(f"scalar restricted-loop feasibility ((1{'+' if sign >= 0 else '-'}t)/d, t/n): {feas.describe()}")
    res = model_matching(smfd, t, m)
    _print_design_result(res)
    if unity:
        cff, _ = unity_feedback_controller(smfd, res.xprime)
        _print_named("unity-loop cff", cff)
    _verify_against(plant, res, t)


def cmd_decouple(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    targets = tuple(parse_rational(cell) for cell in _design(pf, "targets").split(","))
    res = diagonal_decoupling(smfd, targets)
    _print_design_result(res)
    _verify_against(plant, res, res.achieved_t)


def cmd_invert(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    res = inverse_problem(smfd)
    _print_design_result(res)
    _verify_against(plant, res, RatMat.identity(plant.shape[0]))


def cmd_static_decouple(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    lam = (
        parse_matrix(pf.design["lambda"])
        if "lambda" in pf.design
        else RatMat.identity(plant.shape[0])
    )
    res = static_decoupling(smfd, lam)
    _print_design_result(res)
    gain = dc_gain(res.achieved_t)
    print("dc gain:")
    print(_fmt_matrix(gain))


# [design] loop -> the denominator assignment of that loop
_ASSIGNMENTS = {"unity": denominator_assignment_unity, "direct": denominator_assignment_direct}


def cmd_assign_denominator(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant, smfd = _stable_plant_data(pf, args)
    d_t = parse_poly_matrix(_design(pf, "d_t"))
    loop = pf.design.get("loop", "unity")
    if loop not in _ASSIGNMENTS:
        raise ValueError(f"unknown loop variant {loop!r}")
    res = _ASSIGNMENTS[loop](smfd.source, d_t)
    _print_design_result(res)
    _verify_against(plant, res, res.achieved_t)


_CONFIGS = {
    "two-dof": TwoDofConfig,
    "ff-fb-r": FfFbRConfig,
    "unity": UnityFeedbackConfig,
    "feedback-direct": FeedbackDirectRConfig,
}


def _configuration(pf: ProblemFile) -> object:
    """The [config] section's loop, its matrices named by the fields of the
    loop's configuration record."""
    loop = pf.configuration.get("loop", "two-dof")
    if loop not in _CONFIGS:
        raise ValueError(
            f"unknown loop {loop!r}; expected one of {sorted(_CONFIGS)}"
        )
    mats = {}
    for key in _CONFIGS[loop]._fields:
        if key not in pf.configuration:
            raise ValueError(f"[config] section needs {key} for loop {loop!r}")
        mats[key] = parse_matrix(pf.configuration[key])
    return _CONFIGS[loop](**mats)


def cmd_verify(pf: ProblemFile, args: argparse.Namespace) -> None:
    plant = _require_plant(pf)
    config = _configuration(pf)
    report = closed_loop(plant, config)
    _print_named("y/r", report.t_yr)
    _print_named("u/r", report.t_ur)
    print(f"well posed: {'yes' if report.well_posed else 'no'}")
    for name, _, verdict in report.internal_maps:
        print(f"internal map {name}: {verdict.describe()}")
    if "t" in pf.design:
        desired = parse_matrix(pf.design["t"])
        for cert in certify(report, desired):
            print(cert.describe())


def cmd_simulate(pf: ProblemFile, args: argparse.Namespace) -> None:
    if "t" in pf.design:
        target = parse_matrix(pf.design["t"])
    elif pf.configuration:
        plant = _require_plant(pf)
        target = closed_loop(plant, _configuration(pf)).t_yr
    elif pf.plant is not None:
        target = pf.plant
    else:
        raise ValueError("nothing to simulate: give [design] t, a [config], or a [plant]")
    horizon = float(_option(pf, args, "horizon", 10.0, float))
    dt = float(_option(pf, args, "dt", 0.01, float))
    if len(text := pf.design.get("channel", "1")) > MAX_DIGITS:
        raise ValueError(f"channel of {len(text)} characters exceeds the cap of {MAX_DIGITS}")
    channel = int(text)
    if not 1 <= channel <= target.shape[1]:
        raise ValueError(f"channel {channel} is outside 1..{target.shape[1]}")
    trace = simulate_step(target, horizon=horizon, dt=dt)
    csv = trace.to_csv(channel - 1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(csv)
        finals = ", ".join(f"{v:.6g}" for v in trace.final_values(channel - 1))
        print(f"wrote {args.out} ({len(trace.time)} samples, final values {finals})")
    else:
        sys.stdout.write(csv)


def cmd_unity_parameter(pf: ProblemFile, args: argparse.Namespace) -> None:
    # convenience used by `match` problem files with loop = unity when no
    # target is known yet: search for an admissible scalar parameter
    _, smfd = _stable_plant_data(pf, args)
    xprime = find_admissible_unity_xprime(smfd)
    _print_named("admissible x'", xprime)
    cff, loop = unity_feedback_controller(smfd, xprime)
    _print_named("unity-loop cff", cff)
    print(f"internal stability: {loop.verdict.describe()}")


# -- driver ----------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused as a usage error rather than a traceback
    when malformed, with a zero denominator, or with a numerator or
    denominator of more than MAX_DIGITS digits; an exponent past MAX_DIGITS
    plus the mantissa's length breaks that cap before 10**exponent is formed."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        big = bool(exponent) and abs(int(exponent)) > MAX_DIGITS + len(mantissa)
        value = None if big else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    if big or max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"Fraction value {text!r} exceeds the cap of {MAX_DIGITS} digits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twodof",
        description="Exact two-degree-of-freedom controller design and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func: Callable[[ProblemFile, argparse.Namespace], None], **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("problem", help="problem file (INI sections: plant/design/config/options)")
        p.add_argument("--shift", type=_fraction, default=None,
                       help="stable divisor shift for the proper-stable factorization (default 1)")
        p.set_defaults(func=func)
        return p

    add("factor", cmd_factor, help="coprime fractions, stable fractions, zeros and poles")
    add("stabilize", cmd_stabilize, help="Bezout witnesses and stabilizing feedback maps")
    p_match = add("match", cmd_match, help="exact model matching through the two-parameter loop")
    p_match.add_argument("--sign", choices=("pos", "neg"), default=None,
                         help="feedback-sign convention for the scalar feasibility check")
    add("decouple", cmd_decouple, help="exact diagonal decoupling")
    add("invert", cmd_invert, help="exact inversion (y/r = I)")
    add("static-decouple", cmd_static_decouple, help="constant precompensator for a diagonal dc gain")
    add("assign-denominator", cmd_assign_denominator, help="closed-loop denominator assignment")
    add("unity-parameter", cmd_unity_parameter, help="search an admissible unity-feedback parameter")
    add("verify", cmd_verify, help="closed-loop maps and stability report for a configuration")
    p_sim = add("simulate", cmd_simulate, help="step-response CSV for a transfer matrix or configuration")
    p_sim.add_argument("--horizon", type=float, default=None, help="simulation length in seconds")
    p_sim.add_argument("--dt", type=float, default=None, help="fixed step size in seconds")
    p_sim.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # in-cap values can outgrow Python's 4300-digit int-to-text limit (README)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args.func(load_problem(args.problem), args)
        return 0
    except DesignObstruction as exc:
        print("design obstruction:")
        for reason in exc.reasons:
            print(f"  - {reason}")
        return 2
    except IllPosedLoop as exc:
        print(f"ill-posed loop: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ShapeError, ArithmeticError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
