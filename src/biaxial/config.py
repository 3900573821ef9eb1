"""Numerical tolerances for input admission and the reconstruction bound.

All identities implemented by this library are exact in exact arithmetic;
callers set ``Tolerances`` to admit floating-point inputs, while the fixed
``DECISION_WINDOW`` keeps counts and branches stable at exact boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DECISION_WINDOW = 1e-9  # snap window of every count and degenerate-angle branch


@dataclass(frozen=True)
class Tolerances:
    """Each field must be finite and >= 0, else ``ValueError`` names it."""

    norm: float = 1e-9  # unit-norm admission of axes and targets (then made unit)
    parallel: float = 1e-9  # |m.n| < 1 - parallel admission for axis pairs
    recon: float = 1e-9  # reconstruction residual bound for decompositions

    def __post_init__(self) -> None:
        # A NaN tolerance would pass every admission check.
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance must be finite and >= 0, got {name}={value!r}")

    @classmethod
    def uniform(cls, value: float) -> "Tolerances":
        """One tolerance ``value`` for every field."""
        value = float(value)
        return cls(norm=value, parallel=value, recon=value)


DEFAULT_TOL = Tolerances()
