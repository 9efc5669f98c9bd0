"""Public API: every exported name resolves."""

from __future__ import annotations

import importlib

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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
