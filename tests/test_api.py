"""The public names each layer module lists in ``__all__``.

The benchmark's tracer calls ``getattr`` on every ``__all__`` entry of these
modules, so a stale entry breaks every traced run, and its per-layer metrics
count calls of the functions named below.
"""

import importlib

import pytest

MODULES = ("core", "counting", "synthesis", "oracle", "serialization")

TRACED = {
    "core": ("compose", "rot", "unit_axis", "frame_for", "generalized_euler"),
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
