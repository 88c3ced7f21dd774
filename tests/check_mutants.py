"""Each mutant of ``src/twodof`` named here fails one of the tests named with it.

A mutant is a file of ``src/twodof``, an exact source text that must occur
exactly once in it, its replacement, and the ids of the tests that must
catch it.  The script copies ``src/`` to a temporary directory and runs
every named test against the copy, unmutated, which must pass.  Then it
applies each mutant to the copy in turn and runs its tests there.  A
mutant is killed only when its file still compiles and a named test fails
on a wrong value: a failure by ``NameError``, ``AttributeError`` or
``ImportError`` comes from a replacement that names what no longer
exists, and does not count.  Exits 1 when the unmutated copy fails, when
a source text does not occur exactly once, or when a mutant is not
killed.  Run from anywhere, outside tier-1:

    python tests/check_mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOOP = "tests/test_loop_maps.py::"
ALGEBRA = "tests/test_algebra_properties.py::"
FACTOR = "tests/test_factor.py::"
POLYALG = "tests/test_polyalg.py::"
CENTRAL = "tests/test_central_controller.py::"

# (what the mutant breaks, file, source text, replacement, test ids)
MUTANTS = (
    ("the read-off's size certificate dropped", "polyalg.py",
     "if not quos or 2 * sum(map(abs, g)) * max(max(map(abs, q), default=0) for q in quos) >= x:",
     "if not quos:",
     [ALGEBRA + "test_the_read_off_tail_reads_each_gcd_once_and_each_entry_over_den"]),
    ("the loop's point taken from the inputs' norms, not the product bound", "polyalg.py",
     "    x = _point(bound)\n    a_x, b_x",
     "    x = _point(max(map(max, a_norms + b_norms)))\n    a_x, b_x",
     [LOOP + "test_gang_of_four_equals_the_inversion_formula_on_drawn_pairs"]),
    ("the loop's det M(x) = 0 test removed", "polyalg.py",
     "    if not det:\n        return None\n    values = [det",
     "    values = [det",
     [LOOP + "test_ill_posed_loop_is_refused",
      LOOP + "test_gang_of_four_equals_the_inversion_formula_on_drawn_pairs"]),
    ("the (l, x) sweep's cy = f**-1 @ l taken as l @ f**-1, which only a 2x2 tells apart",
     "stabilize.py",
     "    cy = f_inv @ l\n",
     "    cy = l @ f_inv\n",
     ["tests/test_stabilize.py::test_all_controllers_from_lx_roundtrip"]),
    ("the certificate's kernel left unprimitive", "factor.py",
     "kernel = [_row_lowest(_z_line(row)[0], 0)[0] for row in _reduce(rows)]",
     "kernel = [_z_line(row)[0] for row in _reduce(rows)]",
     [FACTOR + "test_the_seeded_4x4_analysis_does_pinned_work"]),
    ("the certificate's w stored unreduced", "factor.py",
     "reduced = (_divided_row(kernel, mus, row, None, math.inf) for row in u.rows[:m])",
     "reduced = ((*_z_line(row), None) for row in u.rows[:m])",
     [FACTOR + "test_the_seeded_4x4_analysis_does_pinned_work"]),
    ("_certified's identity check dropped", "factor.py",
     "if not _is_product(w, stacked, ONE, PolyMat.identity(m)):",
     "if False:",
     [FACTOR + "test_hermite_transform_certifies_the_fraction",
      FACTOR + "test_a_quotient_left_with_a_common_divisor_fails_its_certificate"]),
    ("_is_product's margin bit dropped", "polyalg.py",
     "    x = _point(bound)\n    fd, fv",
     "    x = _point(bound) >> 1\n    fd, fv",
     [ALGEBRA + "test_a_difference_that_vanishes_at_half_the_point_is_refused[10]"]),
    ("the shared pass taking its cofactors without the size certificate", "polyalg.py",
     "            g, quos = _read_off(h, x, [dv])\n"
     "            shared[h] = quos and (_horner(g, x, 1), 2 * sum(map(abs, g)),",
     "            g = _read_off(h, x, ())[0]\n"
     "            quos = [_interpolate(dv // _horner(g, x, 1), x)]\n"
     "            shared[h] = quos and (_horner(g, x, 1), 0,",
     [ALGEBRA + "test_a_shared_candidate_that_fails_its_certificate_takes_the_gcd_kernel"]),
    ("the shared read-off tail dropping den's denominator", "polyalg.py",
     "den._d * g[-1], _monic_z(quos[0])",
     "g[-1], _monic_z(quos[0])",
     [ALGEBRA + "test_a_product_over_one_denominator_is_the_product_over_it"]),
    ("the shared read-off tail's memo reusing the first entry's gcd for every later entry", "polyalg.py",
     "        h = gv if (gv := math.gcd(v, dv)) > x >> 1 else 1  # 1: coprime\n",
     "        h = next(iter(shared.keys() - {1}), 0) or (gv if (gv := math.gcd(v, dv)) > x >> 1 else 1)\n",
     [ALGEBRA + "test_the_read_off_tail_reads_each_gcd_once_and_each_entry_over_den",
      ALGEBRA + "test_a_product_over_one_denominator_is_the_product_over_it"]),
    ("the Youla kernel's point taken from the inputs' norms, not the det/adj bound", "polyalg.py",
     "    x = _point(m * math.prod(max(sum(r[:m]), 1) for r in norms) * max(1, *(v for r in norms for v in r[m:])))",
     "    x = _point(max(1, *(v for r in norms for v in r)))",
     [CENTRAL + "test_the_youla_kernel_reads_the_polynomial_factors"]),
    ("_polymat_det_adj's rank test dropped", "polyalg.py",
     '        if len(cols) < r:  # a singular a still has a nonzero last pivot\n'
     '            raise SingularMatrixError("matrix is singular")\n',
     "",
     [POLYALG + "test_ratmat_solves_match_ratfn_gauss_jordan",
      LOOP + "test_gang_of_four_equals_the_inversion_formula_on_drawn_pairs"]),
    ("the construction's extension step dropped (J empty)", "stabilize.py",
     "[order[c - m] for c in pivots if c >= m]",
     "[]",
     [CENTRAL + "test_an_unstable_scalar_plant_refused_at_k_zero_designs_with_k_one",
      CENTRAL + "test_the_constructed_k_designs_what_the_scan_missed[first-row]"]),
    ("the construction taking nl's rows in forward order", "stabilize.py",
     "range(len(nl))[::-1]",
     "range(len(nl))",
     [CENTRAL + "test_the_central_parameter_stays_where_it_is_admissible_or_the_plant_unstable",
      CENTRAL + "test_a_plant_refused_at_k_zero_designs_with_the_constructed_k[biproper]"]),
    ("the reference map cr scaled by the witness's lcd, not the parameter's", "stabilize.py",
     "cr = _over_product(adj, x_num.scale(den), det * x_den)",
     "cr = _over_product(adj, x_num.scale(smfd.witness_row[0]), det * x_den)",
     [CENTRAL + "test_every_admitted_k_gives_the_designs_response"]),
    ("static decoupling without its dc-gain test", "synthesis.py",
     "if dc_gain.rank() == len(dc_gain.rows):",
     "if True:",
     [CENTRAL + "test_static_decoupling_refuses_a_singular_dc_gain_of_the_central_loop"]),
    ("the unity parameter's k term dropped (x' = -u for every k)", "synthesis.py",
     "return -(smfd.u if k is None else smfd.u + k @ smfd.dl_prime)",
     "return -smfd.u",
     [CENTRAL + "test_the_unity_parameter_is_read_off_the_youla_controller",
      "tests/test_cli_golden.py::test_cli_output_matches_golden"
      "[unity-parameter example_scanned_parameter.ini]"]),
    ("_built without its entry-class check", "polyalg.py",
     "        for e in row:\n            if e.__class__ is not ring:\n                return False\n",
     "",
     [POLYALG + "test_the_grid_behaves_alike_for_both_kinds[PolyMat]",
      POLYALG + "test_the_grid_behaves_alike_for_both_kinds[RatMat]"]),
    ("_gcd not putting back a zero input's []", "polyalg.py",
     "    if live is fs:  # no zero input to put back\n",
     "    if True:\n",
     [ALGEBRA + "test_gcd_of_several_polynomials_on_every_path[fs2]"]),
    ("the unity loop's witness taken with u = x', not -x'", "synthesis.py",
     "_youla_feedback(smfd._replace(u=-xprime, v=f))",
     "_youla_feedback(smfd._replace(u=xprime, v=f))",
     [CENTRAL + "test_the_unity_loop_is_the_central_loop_of_its_witness"]),
    ("the improper-cff refusal given the ill-posed text", "synthesis.py",
     "(\"unity-loop cff = f**-1@x' is improper: f is singular at infinity\",)",
     "(\"I + x'@n' is singular; the unity loop is ill posed\",)",
     ["tests/test_cli.py::test_main_ends_its_report_with[unity-loop-improper-cff]"]),
)

# the errors of a replacement that names what no longer exists
STALE = ("NameError", "UnboundLocalError", "AttributeError", "ImportError", "ModuleNotFoundError")


def run_tests(src: Path, ids: list[str]) -> tuple[int, list[str]]:
    """pytest's exit code for ``ids`` with ``twodof`` imported from
    ``src``, and the message of each failed test."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="1000")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *ids]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.partition(" - ")[2] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every = list(dict.fromkeys(test for *_, ids in MUTANTS for test in ids))
        code, _ = run_tests(src, every)
        print(f"unmutated: {len(every)} tests, exit {code}")
        if code != 0:
            return 1
        for what, name, old, new, ids in MUTANTS:
            path = src / "twodof" / name
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"{what}: its source text occurs {text.count(old)} times in {name}")
                continue
            mutated = text.replace(old, new)
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError as exc:
                problems.append(f"{what}: the mutated {name} does not compile: {exc}")
                continue
            path.write_text(mutated)
            code, failed = run_tests(src, ids)
            path.write_text(text)
            # pytest exits 1 when a test failed, and otherwise 0 or 2 to 5
            wrong = [message for message in failed if not message.startswith(STALE)]
            verdict = "killed" if code == 1 and wrong else f"NOT KILLED (exit {code}, {failed})"
            print(f"{verdict}: {what}")
            if verdict != "killed":
                problems.append(f"{what}: pytest exit {code}, failures {failed}")
    print("\n".join(problems) or f"all {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
