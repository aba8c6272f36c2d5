"""Checks on the package source itself."""
import ast
import pathlib

import pytest

from conftest import SRC

PACKAGE_FILES = sorted(pathlib.Path(SRC, "qtransport").glob("*.py"))


def test_package_files_found():
    assert {"cli.py", "qae.py", "transport.py"} <= {p.name for p in PACKAGE_FILES}


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so every check in the package must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


# Public names no other package module reads, each with why it stays.
KEPT = {
    "build_a_operator": "gate-level A, the definition predicate_probability is held to",
    "build_grover_operator": "gate-level Q, the definition amplified_probabilities is held to",
}


def test_public_names_are_used_or_kept():
    # a public def or class that no module but __init__ names is test-only
    # code or a dead helper; it moves to the tests or goes, unless KEPT says why
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE_FILES}
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert public - referenced == set(KEPT)
