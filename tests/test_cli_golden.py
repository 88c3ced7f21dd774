"""Golden CLI outputs: stdout, stderr and exit code of every subcommand
except ``simulate`` (its CSV is floating point) on every shipped problem
file, run in-process through ``main()`` and compared byte for byte with
``tests/data/cli_golden.json``.

A change meant to alter what the CLI prints regenerates the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and says so.
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
    assert len(RUNS) == 72
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("key", RUNS)
def test_cli_output_matches_golden(golden, key):
    assert run(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: run(key) for key in RUNS}, indent=1) + "\n")
