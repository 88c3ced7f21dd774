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
can take minutes and gigabytes, and each level of nesting takes three
frames of the recursive parser (expression, term, factor).
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
from .polyalg import ONE, S, PolyMat, RatFn, RatMat, _dot, _from_z, _mul, _trim
from .stabilize import IllPosedLoop, TwoDofConfig, _stabilizing_feedback, _youla_feedback, solve_bezout
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
        self.message, self.position = message, position


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_TOKEN = re.compile(r"[0-9]+|\S")
# the first literal past the digit cap or character of no token: [0-9], not
# \d or str.isdigit, which take superscript and Arabic-Indic digits
_REFUSED = re.compile(r"[0-9]{%d,}|[^\s0-9s+\-*/^()]" % (MAX_DIGITS + 1))


def _degrees(x: list[int] | RatFn) -> tuple[int, int]:
    return (max(len(x) - 1, 0), 0) if x.__class__ is list else (x.num.degree() or 0, x.den.degree())


class _Parser:
    """Recursive descent over one text's tokens, ASCII once the refusals pass.
    A polynomial is carried as its integer coefficients (no trailing zeros)
    until a '/', or meeting a `RatFn`, makes it a `RatFn`."""

    def __init__(self, text: str):
        bad = _REFUSED.search(text)
        if bad:
            tok, i = bad.group(), bad.start()
            if tok[0] in "0123456789":
                raise ParseError(f"literal of {len(tok)} digits exceeds the cap of {MAX_DIGITS}", i)
            raise ParseError(f"unexpected character {tok!r}", i)
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]  # "": the end of input
        self.k = 0
        self.depth = 0  # parentheses open

    def error(self, message: str, k: int) -> ParseError:
        """``message`` at the position of token ``k``, worked out only here."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[k])

    def take(self, want: str) -> None:
        tok = self.tokens[self.k]
        if tok != want:
            want = repr(want) if want else "end of input"
            raise self.error(f"expected {want}, found {tok or 'end of input'!r}", self.k)
        self.k += 1

    def expression(self) -> list[int] | RatFn:
        tokens = self.tokens
        negate = tokens[self.k] == "-"
        self.k += negate
        value = self.term()
        if negate:
            value = [-x for x in value] if value.__class__ is list else -value
        while tokens[self.k] in ("+", "-"):
            self.k += 1
            value = self.apply(self.k - 1, value, self.term())
        return value

    def term(self) -> list[int] | RatFn:
        tokens = self.tokens
        value = self.factor()
        while tokens[self.k] in ("*", "/"):
            k = self.k
            self.k += 1
            rhs = self.factor()
            if tokens[k] == "/" and (rhs.is_zero() if rhs.__class__ is RatFn else not rhs):
                raise self.error("zero denominator", k)
            value = self.apply(k, value, rhs)
        return value

    def factor(self) -> list[int] | RatFn:
        k = self.k
        tok = self.tokens[k]
        self.k += 1
        if tok == "s":
            value = [0, 1]
        elif tok.isdigit():
            value = [int(tok)] if tok.strip("0") else []
        elif tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", k)
            self.depth += 1
            value = self.expression()
            self.take(")")
            self.depth -= 1
        else:
            raise self.error(f"expected 's', a number, or '(', found {tok or 'end of input'!r}", k)
        if self.tokens[self.k] == "^":
            k = self.k
            exp = self.tokens[k + 1]
            if not exp.isdigit():
                raise self.error(f"expected 'int', found {exp or 'end of input'!r}", k + 1)
            self.k += 2
            if int(exp) > MAX_EXPONENT:
                raise self.error(f"exponent {int(exp)} exceeds the cap of {MAX_EXPONENT}", k + 1)
            value = self.apply(k, value, int(exp))
        return value

    def apply(self, k: int, a, b) -> list[int] | RatFn:
        """a op b for the operator token ``k`` (b an int exponent for '^'),
        refused there past the degree cap or, for '^', the digit cap of a
        power (see the module docstring)."""
        op, (an, ad) = self.tokens[k], _degrees(a)
        if op == "^":
            degree = b * max(an, ad)
            # each integer storing a**b is at most (sum of |c|)**b over those storing a
            parts = ((a, 1),) if a.__class__ is list else ((a.num._z, a.num._d), (a.den._z, a.den._d))
            size = max(max(sum(map(abs, z)), d) for z, d in parts)
            if b * math.log10(size) > MAX_DIGITS * MAX_EXPONENT:
                raise self.error(f"power exceeds the cap of {MAX_DIGITS * MAX_EXPONENT} digits", k)
        else:
            bn, bd = _degrees(b)
            if op == "/":  # a / b multiplies a by bd / bn
                bn, bd = bd, bn
            degree = max(max(an + bd, bn + ad) if op in "+-" else an + bn, ad + bd)
        if degree > MAX_DEGREE:
            raise self.error(f"degree {degree} exceeds the cap of {MAX_DEGREE}", k)
        if op == "^":
            return list((_from_z(a) ** b)._z) if a.__class__ is list else a**b
        if a.__class__ is list and b.__class__ is list:
            if op == "/":
                return RatFn(_from_z(a), _from_z(b))
            if op == "*":
                return _mul(a, b)
            return _trim(_dot((a, b), ((1,), (1 if op == "+" else -1,))))  # (a, b).(1, +-1)
        a, b = (RatFn(_from_z(x)) if x.__class__ is list else x for x in (a, b))
        return _BINARY[op](a, b)


def parse_rational(text: str) -> RatFn:
    parser = _Parser(text)
    value = parser.expression()
    parser.take("")
    return RatFn(_from_z(value)) if value.__class__ is list else value


def parse_matrix(text: str) -> RatMat:
    """Entries split by ',' and rows by ';'; error positions are in ``text``."""
    rows, start = [], 0
    try:
        for line in text.split(";"):
            rows.append([])
            for cell in line.split(","):
                rows[-1].append(parse_rational(cell))
                start += len(cell) + 1
    except ParseError as err:
        raise ParseError(err.message, start + err.position) from None
    if len({len(row) for row in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return RatMat(tuple(map(tuple, rows)))


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
        return conv(pf.options[name])
    return default


def _stable_plant_data(pf: ProblemFile, args: argparse.Namespace) -> tuple[RatMat, StableMFD]:
    """The plant and its one analysis (``stable_mfd`` at --shift, else [options]
    shift, else 1), which refuses an improper plant or a shift <= 0 before printing."""
    plant = _require_plant(pf)
    shift = _option(pf, args, "shift", Fraction(1), _fraction)
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
    k, cy, _, loop = _stabilizing_feedback(smfd)
    if k is not None:  # k = 0 is refused; of the other k, only -u@dl'**-1 gives cy = 0
        zero_cy = cy == RatMat.zeros(*cy.shape)
        _print_named("parameter k = -u@dl'**-1" if zero_cy else "constant parameter k", k)
    _print_named("central feedback map cy" if k is None else "feedback map cy", cy)
    print(f"internal stability: {loop.verdict.describe()}")
    m_in, p_out = plant.shape[1], plant.shape[0]
    # the sample is k plus a strictly proper term, so v - sample@nl' equals
    # the nonsingular v - k@nl' at infinity and its cy is proper: the sample
    # is admissible
    sample = RatMat(((RatFn(ONE, S + (1 + smfd.shift)),) * p_out,) * m_in)
    if k is not None:
        sample = k + sample
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
    horizon = _option(pf, args, "horizon", 10.0, _float)
    dt = _option(pf, args, "dt", 0.01, _float)
    if len(text := pf.design.get("channel", "1")) > MAX_DIGITS:
        raise ValueError(f"channel of {len(text)} characters exceeds the cap of {MAX_DIGITS}")
    channel = int(_ascii(text, "channel"))
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
    # target is known yet: x' read off the Youla controller, so that the
    # printed cff is the feedback map cy that `stabilize` prints
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


def _ascii(text: str, kind: str) -> str:
    """``text``, refused unless ASCII with no '_', as the grammar's literals
    are: int, float and Fraction also read '٢' (Arabic-Indic) and '_'."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")
    return text


def _float(text: str) -> float:
    return float(_ascii(text, "float"))


_float.__name__ = "float"  # argparse names a refused value's type by it


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused as a usage error rather than a traceback
    when malformed, with a zero denominator, or with a numerator or
    denominator of more than MAX_DIGITS digits; an exponent past MAX_DIGITS
    plus the mantissa's length breaks that cap before 10**exponent is formed."""
    mantissa, _, exponent = _ascii(text, "Fraction").lower().partition("e")
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
    add("unity-parameter", cmd_unity_parameter, help="unity-loop parameter read off the Youla controller")
    add("verify", cmd_verify, help="closed-loop maps and stability report for a configuration")
    p_sim = add("simulate", cmd_simulate, help="step-response CSV for a transfer matrix or configuration")
    p_sim.add_argument("--horizon", type=_float, default=None, help="simulation length in seconds")
    p_sim.add_argument("--dt", type=_float, default=None, help="fixed step size in seconds")
    p_sim.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    limit = sys.get_int_max_str_digits()
    try:
        args = parser.parse_args(argv)  # a usage error is a ValueError
        # in-cap values can outgrow Python's 4300-digit int-to-text limit (README)
        sys.set_int_max_str_digits(0)
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
    except (ValueError, argparse.ArgumentTypeError, ArithmeticError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
