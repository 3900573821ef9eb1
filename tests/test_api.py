"""The public names each layer module lists in ``__all__``, the functions
that take or read a tolerance, the private names that cross modules, the
packages the library imports, and the CLI flags, the ``decompose_min``
parameters and the ``Tolerances`` fields README documents.

The benchmark's tracer calls ``getattr`` on every ``__all__`` entry of these
modules, so a stale entry breaks every traced run, and its per-layer metrics
count calls of the functions named below.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import biaxial
from biaxial.cli import build_parser

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


# Tolerances admit inputs and accept results.  These functions admit or
# accept; every other function of the layer modules receives admitted
# values only and takes no ``tol``.
TOL_TAKERS = {
    "core": {"_admit_unit", "unit_axis", "rot", "geodesic", "from_so3"},
    "counting": {"AxisPair.from_axes", "analyze", "count_min", "lowenthal_bound"},
    "synthesis": {"decompose_min", "replay_factors", "verify_decomposition", "_rotation"},
    "oracle": {"minimality_certificate"},
    "serialization": {"parse_instance", "_parse_target"},
}


def _tol_takers(node, prefix=""):
    """Qualified names of the functions under ``node`` with a ``tol`` parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            if "tol" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                yield prefix + child.name
            yield from _tol_takers(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _tol_takers(child, f"{prefix}{child.name}.")


@pytest.mark.parametrize("name", MODULES)
def test_only_admission_and_acceptance_take_tol(name):
    path = Path(importlib.import_module(f"biaxial.{name}").__file__)
    assert set(_tol_takers(ast.parse(path.read_text(encoding="utf-8")))) == TOL_TAKERS[name]


# Who reads each tolerance field: ``norm`` only the unit rule and
# ``from_so3``'s matrix checks, ``parallel`` only the axis-pair admission,
# ``recon`` only acceptance.
TOL_READERS = {
    "norm": {"core._admit_unit", "core.from_so3"},
    "parallel": {"counting.AxisPair.from_axes"},
    "recon": {"synthesis.verify_decomposition", "oracle.minimality_certificate",
              "cli._decomposition_result", "cli._cmd_verify"},
}


def _tol_reads(node, prefix):
    """``(field, qualified function)`` for each ``tol.<field>`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _tol_reads(child, f"{prefix}{child.name}.")
        elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
              and child.value.id == "tol"):
            yield child.attr, prefix.rstrip(".")
        else:
            yield from _tol_reads(child, prefix)


def test_each_tolerance_field_has_its_readers():
    readers = {name: set() for name in TOL_READERS}
    for name in MODULES + ("cli",):
        path = Path(importlib.import_module(f"biaxial.{name}").__file__)
        for field, where in _tol_reads(ast.parse(path.read_text(encoding="utf-8")),
                                       f"{name}."):
            readers[field].add(where)
    assert readers == TOL_READERS


# Private names one module imports from another, and who imports them: each
# decision has one home, so a second admission or count route fails here.
PRIVATE_IMPORTS = {
    "_admit_unit": {"counting"},
    "_analyze_pair": {"cli"},
    "_arc": {"counting", "oracle"},
    "_deciding_distances": {"synthesis"},
    "_decompose": {"cli"},
    "_rot": {"oracle", "synthesis"},
    "_vector3": {"cli"},
}


def test_private_names_cross_modules_only_as_listed():
    importers = {}
    for path in Path(biaxial.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        importers.setdefault(alias.name, set()).add(path.stem)
    assert importers == PRIVATE_IMPORTS


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


def _readme_synopsis() -> dict[str, set[str]]:
    """Long flags per subcommand from README's "Command line" synopsis.

    The synopsis is the first code block of that section: its first line
    names the subcommands, a line without a comment lists flags every
    subcommand takes, and ``# name`` ends a line of flags for ``name`` only.
    """
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = section.split("```", 2)[1].strip().splitlines()
    commands = re.search(r"biaxial (\S+)", lines[0]).group(1).split("|")
    flags = {name: set() for name in commands}
    for line in lines:
        options, _, owner = line.partition("#")
        for name in (owner.split() or commands):
            flags[name].update(re.findall(r"--[a-z][a-z-]*", options))
    return flags


def test_readme_synopsis_matches_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser_flags = {
        name: {opt for action in p._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, p in sub.choices.items()}
    assert _readme_synopsis() == parser_flags


def test_readme_decompose_min_parameters_match_signature():
    # README's "`decompose_min(...)`" lists each parameter as ``name`` or
    # ``name=DEFAULT``, with the default named in the package namespace.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = re.search(r"`decompose_min\(([^)]*)\)`",
                           readme.read_text(encoding="utf-8")).group(1)
    params = list(inspect.signature(biaxial.decompose_min).parameters.values())
    entries = [entry.partition("=") for entry in documented.split(", ")]
    assert [name for name, _, _ in entries] == [p.name for p in params]
    for (name, _, default), p in zip(entries, params):
        if default:
            assert getattr(biaxial, default) is p.default, name
        else:
            assert p.default is inspect.Parameter.empty, name


def test_readme_tolerances_fields_match_dataclass():
    # README's "`Tolerances(...)`" names every settable tolerance.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = re.search(r"`Tolerances\(([^)]*)\)`",
                           readme.read_text(encoding="utf-8")).group(1)
    assert documented.split(", ") == [f.name for f in dataclasses.fields(biaxial.Tolerances)]
