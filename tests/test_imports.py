"""Every module-level import in the package is used or re-exported.

The repository runs no linter, so this stands in for its unused-import rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tcassim

MODULES = sorted(Path(tcassim.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that no name in the module
    reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "import os.path\n__all__ = ['np']\n\n@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == [(1, "field"), (3, "os")]
