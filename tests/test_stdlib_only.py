"""The runtime stays standard-library only.

Every module of the package is parsed, not imported, and each import must
be relative, of the package itself, or of a standard-library module.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonbasis"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree: ast.AST) -> list[str]:
    """Top-level names of the absolute imports in a module."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_package_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_intra_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        root
        for root in imported_roots(tree)
        if root != PACKAGE.name and root not in sys.stdlib_module_names
    ]
    assert outside == [], f"{path.name} imports non-stdlib modules {outside}"
