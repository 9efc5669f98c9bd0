"""Public API: every exported name resolves, and the package imports only the stdlib."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

MODULES = [
    "filcol",
    "filcol.analysis",
    "filcol.cli",
    "filcol.dynamics",
    "filcol.errors",
    "filcol.integrate",
    "filcol.verify",
]

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "filcol").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_stdlib_and_the_package(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    foreign = [
        name for name in imported
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "filcol"
    ]
    assert foreign == []
