"""Postconditions of the package raise, so they also hold under python -O,
and every public function and method of the package has a user."""

import ast
from pathlib import Path

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
    """Top-level public functions, and public methods of public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_every_public_function_has_a_user():
    # A use is a name or attribute read anywhere in src/ or tests/: the
    # definition itself, the strings of __all__ and re-exporting imports
    # do not count.
    package = parsed(sorted(PACKAGE.glob("*.py")))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for _, tree in package + parsed(sorted((ROOT / "tests").glob("*.py")))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{path.name}:{qualname}"
        for path, tree in package
        for qualname in public_definitions(tree)
        if qualname.rpartition(".")[2] not in used
    ]
    assert unused == []
