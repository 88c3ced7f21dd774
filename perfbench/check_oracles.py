"""Show that each workload's check rejects a deliberately wrong result.

    PYTHONPATH=src python3 perfbench/check_oracles.py

For every workload a real result of the program must pass its check, and
each corrupted copy of it must be rejected: a controller coefficient
perturbed, a stability verdict flipped, an obstruction reason that does
not name the zero, a wrong exit code.  Exits 1 if any check lacks teeth.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

failures: list[str] = []


def expect(label: str, errors: list[str], should_pass: bool) -> None:
    ok = not errors if should_pass else bool(errors)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'passes' if not errors else errors[0]}")
    if not ok:
        failures.append(label)


def bump(rf, which: int = 0):
    """A copy of (num, den) with one numerator coefficient moved by 1/7."""
    num, den = rf
    num = list(num)
    num[which] += Fraction(1, 7)
    return tuple(num), den


def youla_teeth() -> None:
    wl = workloads.YoulaMimo(1, 1, None, False)
    wl.setup()
    op = wl.ops(0)[0]
    plant = wl.PLANTS[op[0]]
    cy, maps = workloads.youla_data(wl.run(op))
    expect("youla-mimo real result", oracles.check_youla(plant, cy, maps), True)
    bad_cy = [row[:] for row in cy]
    bad_cy[0][1] = bump(bad_cy[0][1])
    expect("youla-mimo cy coefficient perturbed", oracles.check_youla(plant, bad_cy, maps), False)
    bad_maps = [[row[:] for row in m] for m in maps]
    num, den = bad_maps[2][1][0]
    bad_maps[2][1][0] = (num, tuple(oracles.poly_mul(den, [Fraction(-1), Fraction(1)])))
    expect("youla-mimo map verdict flipped to an unstable pole", oracles.check_youla(plant, cy, bad_maps), False)
    num, den = cy[1][0]
    improper = [row[:] for row in cy]
    improper[1][0] = (tuple(num) + (Fraction(0),) * (len(den) - len(num)) + (Fraction(1),), den)
    expect("youla-mimo improper cy", oracles.check_youla(plant, improper, maps), False)


def siso_teeth() -> None:
    wl = workloads.SisoDesign(1, 1, None, False)
    wl.setup()
    cases = wl.ops(0)
    realized = next(c for c in cases if c.zero is None and c is not workloads.FAULT_CASE)
    obstructed = next(c for c in cases if c.zero is not None)
    kind, data = workloads.siso_data(wl.run(realized))
    expect("siso-design real design", oracles.check_siso_design(realized, (kind, data)), True)
    expect(
        "siso-design cy coefficient perturbed",
        oracles.check_siso_design(realized, (kind, dict(data, cy=bump(data["cy"])))),
        False,
    )
    flipped = [(name, not passed) if i == 2 else (name, passed) for i, (name, passed) in enumerate(data["certificates"])]
    expect(
        "siso-design stability verdict flipped",
        oracles.check_siso_design(realized, (kind, dict(data, certificates=flipped))),
        False,
    )
    expect(
        "siso-design achieved t off the target",
        oracles.check_siso_design(realized, (kind, dict(data, achieved_t=bump(data["achieved_t"])))),
        False,
    )
    expect(
        "siso-design realizable target refused",
        oracles.check_siso_design(realized, ("obstructed", ("plant unstable zero at s = 1",))),
        False,
    )
    kind, reasons = wl.run(obstructed)
    expect("siso-design real obstruction", oracles.check_siso_design(obstructed, (kind, reasons)), True)
    vague = tuple(r.replace(f"s = {obstructed.zero}", "s = z") for r in reasons)
    expect(
        "siso-design obstruction not naming the zero",
        oracles.check_siso_design(obstructed, (kind, vague)),
        False,
    )
    expect(
        "siso-design design returned for an obstructed target",
        oracles.check_siso_design(obstructed, ("realized", data)),
        False,
    )


def cli_teeth(out: Path) -> None:
    wl = workloads.CliMatch(1, 1, out, False)
    wl.setup()
    cases = wl.ops(0)
    realized = next(c for c in cases if c.expect_exit == 0 and c.zero is None and "fault" not in c.path)
    obstructed = next(c for c in cases if c.zero is not None and "problems" not in c.path)
    proc, _ = wl.run(realized)
    expect("cli-match real design", oracles.check_cli_match(realized, proc.returncode, proc.stdout), True)
    expect("cli-match wrong exit code", oracles.check_cli_match(realized, 2, proc.stdout), False)
    lines = proc.stdout.splitlines()
    cy_line = next(i for i, line in enumerate(lines) if line.startswith("cy = "))
    bad = lines[:]
    bad[cy_line] = f"cy = 1/7 + {lines[cy_line][len('cy = '):]}"
    expect("cli-match printed cy perturbed", oracles.check_cli_match(realized, 0, "\n".join(bad)), False)
    proc, _ = wl.run(obstructed)
    expect("cli-match real obstruction", oracles.check_cli_match(obstructed, proc.returncode, proc.stdout), True)
    vague = proc.stdout.replace(f"s = {obstructed.zero}", "s = z")
    expect("cli-match obstruction not naming the zero", oracles.check_cli_match(obstructed, 2, vague), False)
    expect("cli-match wrong exit code on an obstruction", oracles.check_cli_match(obstructed, 0, proc.stdout), False)


def main() -> int:
    youla_teeth()
    siso_teeth()
    cli_teeth(Path(__file__).resolve().parent.parent / ".perfbench_out" / "check-oracles")
    if failures:
        print(f"{len(failures)} checks without teeth: {failures}")
        return 1
    print("every check rejects its corrupted results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
