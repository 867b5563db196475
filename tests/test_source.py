"""Static checks on the package source, read with the stdlib ast module."""

import ast
from pathlib import Path

import pytest

import graphcalc

_SOURCES = sorted(Path(graphcalc.__file__).resolve().parent.glob("*.py"))


def _unused_top_level_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that no code in it reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_top_level_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom __future__ import annotations\nb()\n")
    assert _unused_top_level_imports(tree) == ["os", "d"]
