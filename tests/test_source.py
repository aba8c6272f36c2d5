"""Checks on the package source itself."""
import ast
import pathlib

import pytest

from conftest import SRC

PACKAGE_FILES = sorted(pathlib.Path(SRC, "qtransport").glob("*.py"))


def test_package_files_found():
    assert {"cli.py", "qae.py", "sim.py", "transport.py"} <= {p.name for p in PACKAGE_FILES}


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so every check in the package must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"
