"""Golden CLI outputs: stdout, stderr and exit code of every subcommand
except ``simulate`` (its CSV is floating point) on every shipped problem
file, run in-process through ``main()`` and compared byte for byte with
``tests/data/cli_golden.json``.

A change meant to alter what the CLI prints regenerates the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and says so; the script
prints the keys it adds and the keys whose stored entry it changes, so a
commit that only adds problem files shows 0 changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from twodof.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
SUBCOMMANDS = (
    "factor",
    "stabilize",
    "match",
    "decouple",
    "invert",
    "static-decouple",
    "assign-denominator",
    "unity-parameter",
    "verify",
)
PROBLEMS = sorted(path.name for path in (ROOT / "problems").glob("*.ini"))
RUNS = [f"{command} {problem}" for command in SUBCOMMANDS for problem in PROBLEMS]


def run(key):
    command, problem = key.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(ROOT / "problems" / problem)])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert len(RUNS) == 153
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("key", RUNS)
def test_cli_output_matches_golden(golden, key):
    assert run(key) == golden[key]


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    fresh = {key: run(key) for key in RUNS}
    added = [key for key in RUNS if key not in stored]
    changed = [key for key in RUNS if key in stored and stored[key] != fresh[key]]
    for label, keys in (("added", added), ("changed", changed)):
        print(f"{label} {len(keys)}", *keys, sep="\n  ")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
