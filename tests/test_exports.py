"""Every module's ``__all__`` names something it defines, and the package
imports only exported names.

Tools that walk ``__all__`` with ``getattr`` (the benchmark's tracer does)
would fail on a stale entry left behind by a deletion.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import giantflux

MODULES = sorted(info.name for info in pkgutil.iter_modules(giantflux.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"giantflux.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(giantflux.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, ast.dump(node)
        exported = importlib.import_module(f"giantflux.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
