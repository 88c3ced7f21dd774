"""The three workloads: seeded inputs, the timed op, and its check.

A workload's run is a fixed number of rounds.  Every round has the same
make-up (the same kinds and sizes of op, in the same numbers) so every
round does comparable work and the share of failed ops is the same in
every run; the inputs of each round are fresh draws from the seed.
"""

from __future__ import annotations

import configparser
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent

# The named fault: at shift 1 this plant's minimal proper-stable Bezout
# witness has v = 0, so model matching raises although cy = -3 stabilizes
# the plant and shift 2 designs it.  Its ops are counted as failed.
FAULT_PLANT = "(s+1)/(s-2)"
FAULT_TARGET = "(s+1)/(s+1)^2"


def _factors(roots) -> str:
    return "*".join(f"(s-{r})" if r > 0 else f"(s+{-r})" for r in roots)


# -- scalar design problems ------------------------------------------------------


@dataclass(frozen=True)
class SisoCase:
    """P = b/a and target t; ``zero`` is the right-half-plane zero of P the
    target drops (the design must be obstructed), or None."""

    plant_text: str
    target_text: str
    a: tuple
    b: tuple
    target_coeffs: tuple
    zero: int | None


STABLE_POLES = range(-6, 0)
UNSTABLE_POLES = range(1, 5)
ZEROS = [z for z in range(-7, 6) if z != 0]


def siso_case(rng: random.Random, obstructed: bool, unstable: bool) -> SisoCase:
    """A strictly proper plant with three integer poles and two integer
    zeros, and the target b/(s+sigma)^3, minus one unstable zero when
    ``obstructed``.  Strict properness keeps the named v = 0 fault out of
    the seeded cases; it occurs only for biproper plants."""
    if unstable:
        poles = [rng.choice(UNSTABLE_POLES)] + rng.sample(STABLE_POLES, 2)
    else:
        poles = rng.sample(STABLE_POLES, 3)
    sigma = rng.randint(1, 4)
    free = [z for z in ZEROS if z not in poles and z != -sigma]
    if obstructed:
        zero = rng.choice([z for z in free if z > 0])
        zeros = [zero, rng.choice([z for z in free if z != zero])]
    else:
        zero, zeros = None, rng.sample(free, 2)
    gain = rng.choice([-3, -2, -1, 1, 2, 3])
    kept = [z for z in zeros if z != zero]
    den_t = oracles.poly_from_roots([-sigma] * 3)
    return SisoCase(
        plant_text=f"{gain}*{_factors(zeros)}/({_factors(poles)})",
        target_text=f"{gain}*{_factors(kept)}/(s+{sigma})^3",
        a=tuple(oracles.poly_from_roots(poles)),
        b=tuple(oracles.poly_from_roots(zeros, gain)),
        target_coeffs=(tuple(oracles.poly_from_roots(kept, gain)), tuple(den_t)),
        zero=zero,
    )


FAULT_CASE = SisoCase(
    plant_text=FAULT_PLANT,
    target_text=FAULT_TARGET,
    a=(Fraction(-2), Fraction(1)),
    b=(Fraction(1), Fraction(1)),
    target_coeffs=((Fraction(1),), (Fraction(1), Fraction(1))),
    zero=None,
)


def _coeffs(poly) -> tuple:
    deg = poly.degree()
    return () if deg is None else tuple(poly.coeff(k) for k in range(deg + 1))


def _ratfn(r) -> tuple:
    return (_coeffs(r.num), _coeffs(r.den))


def _ratmat(m) -> list:
    rows, cols = m.shape
    return [[_ratfn(m.entry(i, j)) for j in range(cols)] for i in range(rows)]


def youla_data(result) -> tuple:
    """(cy, four loop maps) of a youla-mimo op, as plain coefficients."""
    cy, maps = result
    return _ratmat(cy), [_ratmat(m) for m in maps]


def siso_data(result) -> tuple:
    """A siso-design op's outcome in the form oracles.check_siso_design reads."""
    kind, data = result
    if kind == "obstructed":
        return kind, data
    res, report, certs = data
    return kind, {
        "achieved_t": _ratfn(res.achieved_t.entry(0, 0)),
        "t_yr": _ratfn(report.t_yr.entry(0, 0)),
        "cy": _ratfn(res.configuration.cy.entry(0, 0)),
        "cr": _ratfn(res.configuration.cr.entry(0, 0)),
        "certificates": [(c.name, c.passed) for c in (*res.certificates, *certs)],
    }


class Outcome:
    OK, FAILED, WRONG = "ok", "failed", "wrong"


def _failure(exc: BaseException) -> tuple[str, str]:
    return Outcome.FAILED, f"{type(exc).__name__}: {exc}"


# -- workloads ---------------------------------------------------------------------


class YoulaMimo:
    """All stabilizing controllers of fixed 2x2 plants: each op draws a
    proper stable parameter k and builds cy and the four loop maps."""

    name = "youla-mimo"
    # Strictly proper, each with unstable poles: v(oo) is then invertible,
    # so every proper stable k admits a proper cy.  Chosen for a similar
    # cost per op (per-plant medians 450-490 ms at reference speed), so the
    # median does not sit between plants of different cost.
    PLANTS = (
        "1/(s-1), 2/(s+2); 1/(s+3), 1/(s+1)",
        "1/(s-2), 1/(s+1); 1/(s+2), (s-1)/((s+3)*(s+1))",
        "2/(s-1), 1/(s+3); 1/(s+1), 1/(s-2)",
    )
    K_PER_PLANT = 2

    def __init__(self, seed: int, rounds: int, out_dir: Path, traced: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = rounds

    def _k_text(self) -> str:
        def entry():
            c1 = self.rng.choice([-3, -2, -1, 1, 2, 3])
            return f"({c1}*s + {self.rng.randint(0, 4)})/(s + {self.rng.randint(1, 5)})"

        return "; ".join(", ".join(entry() for _ in range(2)) for _ in range(2))

    def setup(self) -> None:
        from twodof.cli import parse_matrix
        from twodof.stabilize import gang_of_four, youla_controller

        self.youla, self.gang = youla_controller, gang_of_four
        self.plants = [parse_matrix(p) for p in self.PLANTS]
        self.schedule = [
            [
                (idx, k_text, parse_matrix(k_text))
                for idx in range(len(self.PLANTS))
                for k_text in [self._k_text() for _ in range(self.K_PER_PLANT)]
            ]
            for _ in range(self.rounds)
        ]
        # Each plant's analysis is computed once and reused by every op.
        for plant in self.plants:
            self.youla(plant)
        self.run(self.schedule[0][0])

    def ops(self, r: int) -> list:
        return self.schedule[r]

    def run(self, op):
        plant = self.plants[op[0]]
        cy = self.youla(plant, op[2])
        return cy, self.gang(plant, cy)

    def check(self, op, result) -> tuple[str, str | None]:
        if isinstance(result, BaseException):
            return _failure(result)
        errors = oracles.check_youla(self.PLANTS[op[0]], *youla_data(result))
        return (Outcome.WRONG, f"k = {op[1]}: {errors}") if errors else (Outcome.OK, None)


class SisoDesign:
    """Exact model matching from text on a fresh scalar plant per op."""

    name = "siso-design"
    # Per round: realized designs on stable and unstable plants, targets
    # that drop an unstable zero, and one op of the named fault.
    MIX = ((False, False, 16), (False, True, 16), (True, False, 3), (True, True, 4))

    def __init__(self, seed: int, rounds: int, out_dir: Path, traced: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = rounds

    def _round(self) -> list[SisoCase]:
        cases = [
            siso_case(self.rng, obstructed, unstable)
            for obstructed, unstable, count in self.MIX
            for _ in range(count)
        ]
        cases.append(FAULT_CASE)
        self.rng.shuffle(cases)
        return cases

    def setup(self) -> None:
        from twodof.cli import parse_matrix
        from twodof.factor import right_coprime_mfd, stable_mfd
        from twodof.stabilize import InadmissibleParameter
        from twodof.synthesis import DesignObstruction, model_matching
        from twodof.verify import certify, closed_loop

        self.parse, self.rcf, self.smfd = parse_matrix, right_coprime_mfd, stable_mfd
        self.match, self.closed_loop, self.certify = model_matching, closed_loop, certify
        self.obstruction = DesignObstruction
        self.schedule = [self._round() for _ in range(self.rounds)]
        warm = random.Random("warm-up")
        for case in (siso_case(warm, False, True), siso_case(warm, True, True), FAULT_CASE):
            try:
                self.run(case)
            except InadmissibleParameter:
                pass  # the fault case; its analysis is now cached as in every later round

    def ops(self, r: int) -> list:
        return self.schedule[r]

    def run(self, case: SisoCase):
        plant = self.parse(case.plant_text)
        target = self.parse(case.target_text)
        smfd = self.smfd(self.rcf(plant))
        try:
            res = self.match(smfd, target)
        except self.obstruction as exc:
            return "obstructed", tuple(exc.reasons)
        report = self.closed_loop(plant, res.configuration)
        return "realized", (res, report, self.certify(report, target))

    def check(self, case: SisoCase, result) -> tuple[str, str | None]:
        if isinstance(result, BaseException):
            return _failure(result)
        errors = oracles.check_siso_design(case, siso_data(result))
        return (Outcome.WRONG, f"{case.plant_text} -> {case.target_text}: {errors}") if errors else (Outcome.OK, None)


@dataclass(frozen=True)
class CliCase:
    path: str
    plant_text: str
    target_text: str
    expect_exit: int
    zero: int | None = None


class CliMatch:
    """One ``twodof match`` process at a time on problem files."""

    name = "cli-match"
    # (obstructed, unstable) of the seeded files in each round.
    MIX = ((False, True), (False, False), (True, True))
    SHIPPED = (("problems/example_match.ini", 0, None), ("problems/example_match_reject.ini", 2, 1))

    def __init__(self, seed: int, rounds: int, out_dir: Path, traced: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = rounds
        self.dir = out_dir / self.name
        self.traced = traced
        self.root = HERE.parent
        self.tracer = None  # set by a traced run: it gathers the children's stats
        self._launched = 0

    def _write(self, name: str, plant: str, target: str) -> str:
        path = self.dir / name
        path.write_text(f"[plant]\nmatrix = {plant}\n\n[design]\nproblem = match\nt = {target}\n")
        return str(path)

    def _shipped(self, rel: str, expect: int, zero) -> CliCase:
        cp = configparser.ConfigParser(interpolation=None)
        path = self.root / rel
        if not cp.read(path):
            raise FileNotFoundError(path)
        return CliCase(str(path), cp["plant"]["matrix"], cp["design"]["t"], expect, zero)

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for old in self.dir.glob("*"):
            old.unlink()
        shipped = [self._shipped(*s) for s in self.SHIPPED]
        fault = CliCase(self._write("fault.ini", FAULT_PLANT, FAULT_TARGET), FAULT_PLANT, FAULT_TARGET, 0)
        self.schedule = []
        for r in range(self.rounds):
            seeded = []
            for i, (obstructed, unstable) in enumerate(self.MIX):
                c = siso_case(self.rng, obstructed, unstable)
                path = self._write(f"r{r}_{i}.ini", c.plant_text, c.target_text)
                seeded.append(CliCase(path, c.plant_text, c.target_text, 2 if obstructed else 0, c.zero))
            ops = seeded + shipped + [fault]
            self.rng.shuffle(ops)
            self.schedule.append(ops)
        self.run(shipped[0])

    def ops(self, r: int) -> list:
        return self.schedule[r]

    def run(self, case: CliCase):
        trace_out = None
        if self.traced:
            self._launched += 1
            trace_out = self.dir / f"trace-{self._launched}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace_out), "match", case.path]
        else:
            cmd = [sys.executable, "-m", "twodof.cli", "match", case.path]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=self.root)
        return proc, trace_out

    def check(self, case: CliCase, result) -> tuple[str, str | None]:
        if isinstance(result, BaseException):
            return _failure(result)
        proc, trace_out = result
        if self.tracer is not None:
            self.tracer.merge(json.loads(trace_out.read_text()))
        if proc.returncode == 1:
            return Outcome.FAILED, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "exit 1"
        errors = oracles.check_cli_match(case, proc.returncode, proc.stdout)
        return (Outcome.WRONG, f"{case.path}: {errors}") if errors else (Outcome.OK, None)


WORKLOADS = {w.name: w for w in (YoulaMimo, SisoDesign, CliMatch)}
