"""Checks made apart from the program under test.

Everything here works on plain data: expression text, integer root lists
and coefficient lists (``Fraction`` or int, lowest power first).  The
program's results are converted to that form before they are checked, so
a check never asks the program to judge its own output.  The float
evaluator below reads the program's expression grammar on its own, so the
CLI's printed maps are evaluated without the program's parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

# Sample points off the real axis: every plant, target and parameter pole
# and zero the benchmark builds is an integer, so none lies on them.
POINTS = (0.5 + 1.0j, -0.3 + 2.0j, 2.0 + 0.5j, 3.0j)
REL_TOL = 1e-6
# Every closed-loop pole the designs can produce sits at a negative integer
# (shift, target and parameter poles), so a stable root stays far below this.
STABILITY_MARGIN = -1e-3


# -- float evaluation of the expression grammar --------------------------------


_TOKEN = re.compile(r"\s*(?:(\d+)|(s)|([-+*/^()]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def evaluate(text: str, s0: complex) -> complex:
    """Value of a rational expression over ``s`` at ``s0``, in floats."""
    toks = _tokens(text)
    k = 0

    def peek():
        return toks[k] if k < len(toks) else None

    def take():
        nonlocal k
        k += 1
        return toks[k - 1]

    def expression():
        neg = peek() == "-"
        if neg:
            take()
        value = term()
        if neg:
            value = -value
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            value = value * factor() if take() == "*" else value / factor()
        return value

    def factor():
        value = base()
        if peek() == "^":
            take()
            value = value ** int(take())
        return value

    def base():
        tok = take()
        if tok == "s":
            return complex(s0)
        if tok == "(":
            value = expression()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if tok is not None and tok.isdigit():
            return complex(int(tok))
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    value = expression()
    if k != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def evaluate_matrix(text: str, s0: complex) -> np.ndarray:
    return np.array(
        [[evaluate(cell, s0) for cell in row.split(",")] for row in text.split(";")]
    )


# -- exact polynomials as coefficient lists --------------------------------------


def poly_from_roots(roots, gain=1) -> list[Fraction]:
    coeffs = [Fraction(gain)]
    for r in roots:
        coeffs = poly_mul(coeffs, [Fraction(-r), Fraction(1)])
    return coeffs


def poly_mul(a, b) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sub(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [
        Fraction(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        for i in range(n)
    ]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def poly_gcd(a, b) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def poly_value(coeffs, s0: complex) -> complex:
    return complex(np.polyval([float(c) for c in reversed(coeffs)], s0)) if coeffs else 0j


def ratfn_value(rf, s0: complex) -> complex:
    num, den = rf
    return poly_value(num, s0) / poly_value(den, s0)


def max_root_real(coeffs) -> float | None:
    """Largest real part among the float roots, or None for a constant."""
    if len(coeffs) <= 1:
        return None
    return float(max(np.roots([float(c) for c in reversed(coeffs)]).real))


def hurwitz_by_roots(coeffs) -> bool:
    top = max_root_real(coeffs)
    return top is None or top < STABILITY_MARGIN


def close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= REL_TOL * (1 + np.abs(b))))


def names_zero(reasons, z) -> bool:
    pattern = re.compile(rf"\bs = {re.escape(str(z))}(?![\d/])")
    return any(pattern.search(r) for r in reasons)


# -- per-workload checks ----------------------------------------------------------
# Each returns a list of problems; an empty list means the result passed.


def check_youla(plant_text: str, cy, maps) -> list[str]:
    """``cy`` and each of the four ``maps`` are matrices of (num, den)."""
    errors = []
    for i, row in enumerate(cy):
        for j, (num, den) in enumerate(row):
            if len(num) > len(den):
                errors.append(f"cy[{i}][{j}] is improper")
    for name, mat in zip(("S", "S@cy", "P@S", "P@S@cy"), maps):
        for row in mat:
            for num, den in row:
                if not hurwitz_by_roots(den):
                    errors.append(f"map {name} has a denominator root at Re >= {STABILITY_MARGIN}")
    if errors:
        return errors
    for s0 in POINTS:
        p = evaluate_matrix(plant_text, s0)
        c = np.array([[ratfn_value(e, s0) for e in row] for row in cy])
        sens = np.linalg.inv(np.eye(c.shape[0]) - c @ p)
        expect = (sens, sens @ c, p @ sens, p @ sens @ c)
        for name, mat, want in zip(("S", "S@cy", "P@S", "P@S@cy"), maps, expect):
            got = np.array([[ratfn_value(e, s0) for e in row] for row in mat])
            if not close(got, want):
                errors.append(f"map {name} disagrees with the float loop at s = {s0}")
    return errors


def check_siso_design(case, outcome) -> list[str]:
    """``case`` is the generated problem; ``outcome`` is either
    ("obstructed", reasons) or ("realized", data) with data holding the
    achieved responses, cy, cr and the program's certificates."""
    kind, data = outcome
    if case.zero is not None:
        if kind != "obstructed":
            return [f"target drops the plant zero s = {case.zero} but a design came back"]
        if not names_zero(data, case.zero):
            return [f"obstruction reasons do not name s = {case.zero}: {list(data)}"]
        return []
    if kind != "realized":
        return [f"realizable target was refused: {list(data)}"]
    errors = []
    target = case.target_coeffs
    if data["achieved_t"] != target:
        errors.append("achieved t differs from the target")
    if data["t_yr"] != target:
        errors.append("closed-loop y/r differs from the target")
    failed = [name for name, passed in data["certificates"] if not passed]
    if failed:
        errors.append(f"certificates failed: {failed}")
    q, p = data["cy"]
    char = poly_sub(poly_mul(case.a, p), poly_mul(case.b, q))
    if not char or not hurwitz_by_roots(char):
        errors.append("closed-loop polynomial a*p - b*q is not Hurwitz by its roots")
    # cy and cr act as one controller p**-1 [q, r]: cr may share cy's
    # unstable poles, but any pole of cr outside p must be stable.
    cr_den = data["cr"][1]
    if not hurwitz_by_roots(poly_divmod(cr_den, poly_gcd(cr_den, p))[0]):
        errors.append("cr has an unstable pole that cy does not share")
    for s0 in POINTS:
        pv = evaluate(case.plant_text, s0)
        t = pv * ratfn_value(data["cr"], s0) / (1 - ratfn_value(data["cy"], s0) * pv)
        if not close(t, evaluate(case.target_text, s0)):
            errors.append(f"float closed loop misses the target at s = {s0}")
    return errors


def check_cli_match(case, returncode: int, stdout: str) -> list[str]:
    """``case`` carries the plant and target text, the exit code known by
    construction and, for an obstructed target, the zero it drops."""
    if returncode != case.expect_exit:
        return [f"exit code {returncode}, expected {case.expect_exit}"]
    if returncode == 2:
        if "design obstruction" not in stdout:
            return ["exit 2 without a design obstruction report"]
        if case.zero is not None and not names_zero(stdout.splitlines(), case.zero):
            return [f"obstruction report does not name s = {case.zero}"]
        return []
    printed = dict(
        line.split(" = ", 1) for line in stdout.splitlines() if line.startswith(("cy = ", "cr = "))
    )
    if set(printed) != {"cy", "cr"}:
        return ["scalar cy and cr were not printed"]
    if ": FAIL" in stdout:
        return ["a printed certificate failed"]
    errors = []
    for s0 in POINTS:
        pv = evaluate(case.plant_text, s0)
        t = pv * evaluate(printed["cr"], s0) / (1 - evaluate(printed["cy"], s0) * pv)
        if not close(t, evaluate(case.target_text, s0)):
            errors.append(f"printed cy, cr miss the target at s = {s0}")
    return errors
