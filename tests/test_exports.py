"""Every module's ``__all__`` names something it defines, and each public
name has one import path: its module.

Tools that walk ``__all__`` with ``getattr`` (the benchmark's tracer does)
would fail on a stale entry left behind by a deletion.  The package
``__init__`` only pins BLAS threads and holds the version, so importing one
module loads that module and what it imports, not the whole package.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_package_imports_no_submodule():
    tree = ast.parse(Path(giantflux.__file__).read_text())
    relative = [ast.dump(node) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []


def test_module_import_loads_only_what_it_needs():
    env = dict(os.environ, PYTHONPATH=str(Path(giantflux.__file__).parents[1]))
    others = ["theory", "walk", "graph_oracle", "harness", "limit_sampler", "cli"]
    probe = (f"import sys, giantflux.weights; "
             f"print([m for m in {others!r} if 'giantflux.' + m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
