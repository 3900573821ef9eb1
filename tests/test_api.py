"""The public names each layer module lists in ``__all__``, and the
packages the library imports.

The benchmark's tracer calls ``getattr`` on every ``__all__`` entry of these
modules, so a stale entry breaks every traced run, and its per-layer metrics
count calls of the functions named below.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import biaxial

MODULES = ("core", "counting", "synthesis", "oracle", "serialization")

TRACED = {
    "core": ("compose", "rot", "unit_axis", "generalized_euler"),
    "synthesis": ("replay_factors", "solve_triple"),
    "oracle": ("numeric_search", "geodesic_bound_check"),
    "serialization": ("parse_instance", "parse_certificate", "certificate_to_obj"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"biaxial.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_functions_stay_listed(name):
    module = importlib.import_module(f"biaxial.{name}")
    for attr in TRACED[name]:
        assert attr in module.__all__
        assert callable(getattr(module, attr))


# The runtime needs nothing beyond the standard library and numpy.
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "biaxial"}


@pytest.mark.parametrize("path", sorted(Path(biaxial.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert sorted(imported - RUNTIME) == []
