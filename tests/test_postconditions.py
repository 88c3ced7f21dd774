"""Postconditions of the package raise, so they also hold under python -O,
every public function and method of the package has a user, README
documents exactly the names the package exports, and its records take no
attribute beyond their slots."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import twodof
from twodof.cli import ProblemFile
from twodof.factor import LeftMFD, PoleInfo, RightMFD, ZeroInfo, ZeroReport
from twodof.stability import StabilityVerdict
from twodof.stabilize import TwoDofConfig
from twodof.synthesis import (
    Certificate,
    DesignResult,
    FeedbackDirectRConfig,
    FfFbRConfig,
    UnityFeedbackConfig,
)
from twodof.verify import ClosedLoopReport, SimulationTrace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twodof"


def parsed(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_package_uses_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed(sources)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def public_definitions(tree):
    """Top-level public functions, and public methods of public classes,
    each with its definition node."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_definitions(readers):
    """The package's public definitions that neither the package nor the
    files ``readers`` use.  A use is a name or attribute read outside the
    definition's own body: the definition itself, a read of its name
    inside it (a self-call, or a call of a like-named method), the strings
    of __all__ and re-exporting imports do not count."""
    package = parsed(sorted(PACKAGE.glob("*.py")))
    reads = {}
    for _, tree in package + parsed(readers):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append(node)
    unused = []
    for path, tree in package:
        for qualname, definition in public_definitions(tree):
            own = set(map(id, ast.walk(definition)))
            if all(id(node) in own for node in reads.get(qualname.rpartition(".")[2], ())):
                unused.append(f"{path.name}:{qualname}")
    return unused


def test_every_public_function_has_a_user():
    assert unused_public_definitions(sorted((ROOT / "tests").glob("*.py"))) == []


def test_the_package_itself_uses_all_but_the_library_only_names():
    # library API that no subcommand reaches; every other public definition
    # has a reader in src/ itself; unity_feedback_admissible has none, as
    # x' is read off the Youla controller with no candidate to test
    assert unused_public_definitions([]) == [
        "factor.py:ZeroReport.unstable_zeros",
        "stabilize.py:youla_controller",
        "stabilize.py:all_controllers_from_LX",
        "synthesis.py:unity_feedback_admissible",
        "synthesis.py:ff_fb_realization",
    ]


def readme_api_table():
    """(module, name) pairs of README's table of the names twodof exports."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Names exported by `twodof`"):]
    section = section[: section.index("\n## ")]
    rows = re.findall(r"^\| `(twodof\.\w+)` \| (.*) \|$", section, re.M)
    return [(module, name) for module, names in rows for name in re.findall(r"`(\w+)`", names)]


def test_readme_documents_exactly_the_exported_names():
    table = readme_api_table()
    exported = {
        name
        for name, value in vars(twodof).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(name for _, name in table) == sorted(exported)
    for module, name in table:
        assert getattr(twodof, name) is vars(importlib.import_module(module))[name], name


RECORDS = (
    StabilityVerdict, Certificate, TwoDofConfig, FfFbRConfig, UnityFeedbackConfig,
    FeedbackDirectRConfig, DesignResult, ZeroInfo, PoleInfo, ZeroReport, RightMFD,
    LeftMFD, ClosedLoopReport, SimulationTrace, ProblemFile,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_a_new_attribute(cls):
    # slots alone decide this, so a record built without __init__ shows it;
    # a namedtuple record is a tuple, which object.__new__ refuses to build
    record = (tuple if issubclass(cls, tuple) else object).__new__(cls)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
