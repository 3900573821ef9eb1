"""Numerical tolerances used for input admission and branch decisions.

All identities implemented by this library are exact in exact arithmetic;
tolerances exist only to admit floating-point inputs and to keep integer
counts stable at exact branch boundaries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-9  # unit-norm admission for axes and quaternions
    orth: float = 1e-9  # orthogonality admission for frame axes
    angle: float = 1e-9  # degenerate-angle branch thresholds
    parallel: float = 1e-9  # |m.n| < 1 - parallel admission for axis pairs
    ceil: float = 1e-9  # snap window around integers in ceiling counts
    recon: float = 1e-9  # reconstruction residual bound for decompositions

    @classmethod
    def uniform(cls, value: float) -> "Tolerances":
        """One tolerance ``value`` for every field.

        Raises ``ValueError`` unless ``value`` is finite and >= 0 (a NaN
        tolerance would pass every admission check).
        """
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"tolerance must be finite and >= 0, got {value!r}")
        return cls(norm=value, orth=value, angle=value, parallel=value,
                   ceil=value, recon=value)

    @classmethod
    def from_env(cls, env_var: str = "BIAXIAL_TOL") -> "Tolerances":
        """Build tolerances, letting the environment override every field."""
        raw = os.environ.get(env_var)
        if raw is None:
            return cls()
        try:
            return cls.uniform(float(raw))
        except ValueError as exc:
            raise ValueError(f"{env_var}={raw!r}: {exc}") from None


DEFAULT_TOL = Tolerances()
