"""Every executable line of ``src/twodof`` is reached by tier-1, or named here.

Runs the tier-1 suite (``pytest`` over ``tests/``) in this process under a
``sys.settrace`` line tracer and compares the lines it reached with the
executable lines of ``src/twodof/*.py``: the ``co_lines()`` of each module's
compiled code objects, taken recursively.  Exits 1 when tier-1 fails, when
an executable line is unreached and ``ALLOWED`` does not name it, when a
line ``ALLOWED`` names is reached, or when an entry of ``ALLOWED`` does not
match exactly one line of its file.  Run from anywhere, outside tier-1:

    python tests/check_reach.py

Line tables differ across Python versions; the allowlist is kept for
CPython 3.11.  Lines that run only in a child process (``python -m
twodof.cli``) are not seen.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twodof"

# (file, the stripped source text of one line, why no tier-1 test reaches it)
ALLOWED = (
    ("cli.py", "sys.exit(main())", "runs only as `python -m twodof.cli`, in a child process"),
    ("factor.py", 'raise ArithmeticError("Hermite pivot block does not divide [d0; n0]")',
     "self-check: det R divides [d0; n0] @ adj R exactly"),
    ("factor.py", 'raise ArithmeticError(f"no Bezout witness of degree up to {limit}")',
     "self-check: a coprime fraction has a witness within stable_mfd's and solve_bezout's limits"),
    ("factor.py", 'raise ArithmeticError("Bezout witness fails alpha @ n + beta @ d = diag(phi) @ rhs")',
     "self-check: each witness row solves its equation, and an elimination at a degree the "
     "division reached has a solution"),
    ("polyalg.py", "return None  # no candidate at six points: the caller falls back to the PRS",
     "GCDHEU's give-up after six points, for any number of inputs; 2.6 million random pairs "
     "never reached it"),
    ("polyalg.py", 'raise ArithmeticError("Bareiss elimination lost exactness")',
     "self-check: each division by the previous pivot is exact"),
    ("stabilize.py",
     'raise InadmissibleParameter("resulting reference map is improper for this feedback map")',
     "postcondition: a design passes x' = d'**-1 @ (d@x), proper as d@x is, and the k it "
     "takes gives a proper cy, so v - k@nl' is nonsingular at infinity and "
     "cr = (v - k@nl')**-1 @ x' is proper"),
    ("stability.py", 'raise ValueError("polynomial is not even")',
     "self-check: an irreducible symmetric factor other than s is even"),
    ("synthesis.py", 'raise ArithmeticError("realizability solve lost exactness: n @ x != t")',
     "self-check: the elimination's x solves n @ x = t"),
    ("synthesis.py", "raise ArithmeticError(\"decoupling lost exactness: n' @ x' != diag(targets)\")",
     "self-check: x' = n'**-1 @ diag(targets)"),
    ("synthesis.py", "raise ArithmeticError(\"inversion lost exactness: n' @ n'**-1 != I\")",
     "self-check: x' = n'**-1"),
    ("synthesis.py", 'raise ArithmeticError("scalar divisibility form disagrees with the matrix form")',
     "self-check: the two forms of the unity restriction agree"),
    ("synthesis.py", 'raise ArithmeticError("realization blocks do not reproduce (cy, cr)")',
     "self-check: the left fraction's blocks reproduce (cy, cr)"),
)


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the compiled module's code objects, recursively."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowed_line(path: Path, text: str) -> int:
    """The number of the one line of ``path`` that, stripped, is ``text``;
    raises ``LookupError`` unless exactly one line matches."""
    hits = [k for k, line in enumerate(path.read_text().splitlines(), 1) if line.strip() == text]
    if len(hits) != 1:
        raise LookupError(f"{path.name}: {text!r} matches {len(hits)} lines, not 1")
    return hits[0]


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the line tracer: (exit code, lines
    reached per source file name)."""
    import pytest

    prefix = str(SRC) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {Path(f).name: lines for f, lines in reached.items()}


def main() -> int:
    code, reached = traced_run(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")])
    problems = [] if code == 0 else [f"tier-1 exited {code}"]
    allowed: dict[str, set[int]] = {}
    for name, text, _reason in ALLOWED:
        try:
            line = allowed_line(SRC / name, text)
        except LookupError as exc:
            problems.append(f"allowlist: {exc}")
            continue
        if line in reached.get(name, set()):
            problems.append(f"allowlist: {name}:{line} is reached: {text}")
        allowed.setdefault(name, set()).add(line)
    total = unreached = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(path.name, set()) - allowed.get(path.name, set()))
        total += len(lines)
        unreached += len(missed)
        source = path.read_text().splitlines()
        problems += [f"unreached: {path.name}:{k}: {source[k - 1].strip()}" for k in missed]
    print(f"check_reach: {total} executable lines, {unreached} unreached and not allowlisted, "
          f"{len(ALLOWED)} allowlist entries")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
