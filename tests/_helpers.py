"""Shared test utilities: an independent 2x2 complex-matrix oracle and
randomized instance generators.

The matrix oracle never touches the quaternion code paths, so equalities
checked through it are independent of the implementation under test.
"""

from __future__ import annotations

import math

import numpy as np

import biaxial.cli
import biaxial.counting
import biaxial.synthesis
from biaxial import Su2Element, f_angle, overlap_b
from biaxial.counting import analyze

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def su2_matrix(u: Su2Element) -> np.ndarray:
    """2x2 unitary of a quaternion via the defining linear combination."""
    return u.w * I2 + 1j * (u.x * PAULI_X + u.y * PAULI_Y + u.z * PAULI_Z)


def rot_matrix(axis, theta: float) -> np.ndarray:
    """2x2 rotation matrix built without quaternions."""
    v = np.asarray(axis, dtype=float)
    half = 0.5 * theta
    return (math.cos(half) * I2
            - 1j * math.sin(half) * (v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z))


def matrix_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def random_axis(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_su2(rng: np.random.Generator) -> Su2Element:
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    return Su2Element(*q)


def haar_angle_below(rng: np.random.Generator, radius: float) -> float:
    """Rotation angle drawn from the Haar law restricted to ``[0, radius]``.

    The Haar density of the rotation angle is proportional to
    ``sin(theta/2)**2``, so its CDF is proportional to ``theta - sin(theta)``;
    the draw inverts that CDF by bisection.
    """
    target = rng.uniform() * (radius - math.sin(radius))
    lo, hi = 0.0, radius
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid - math.sin(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_pair(rng: np.random.Generator, delta_lo: float,
                delta_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Axes with gap drawn uniformly from [delta_lo, delta_hi]."""
    m = random_axis(rng)
    delta = rng.uniform(delta_lo, delta_hi)
    helper = random_axis(rng)
    perp = np.cross(m, helper)
    while np.linalg.norm(perp) < 1e-6:
        helper = random_axis(rng)
        perp = np.cross(m, helper)
    perp = perp / np.linalg.norm(perp)
    n = math.cos(delta) * m + math.sin(delta) * np.cross(perp, m)
    return m, n / np.linalg.norm(n)


def _frac_distance(x: float) -> float:
    return abs(x - round(x))


def boundary_margin(u: Su2Element, m, n) -> float:
    """Distance of an instance from every integer-count branch boundary.

    Instances sitting on a boundary are legitimately ambiguous at floating
    point and would make infeasibility searches flap, so randomized corpora
    resample when this margin is small.
    """
    result = analyze(u, m, n)
    alpha, beta, gamma = result.triple
    delta = result.governing.delta
    f_mn = f_angle(alpha, beta, delta)
    f_nm = f_angle(gamma, -beta, delta)
    margins = [
        _frac_distance(beta / (2.0 * delta)),
        _frac_distance((f_mn + delta) / (2.0 * delta)),
        _frac_distance((f_nm + delta) / (2.0 * delta)),
        abs(f_mn - delta),
        abs(f_nm - delta),
        abs(overlap_b(result.pair.m, u) - overlap_b(result.pair.n, u)),
    ]
    return min(margins)


def random_instance(rng: np.random.Generator, delta_lo: float = 0.3,
                    delta_hi: float = 0.5 * math.pi, margin: float = 1e-3,
                    max_tries: int = 1000):
    """(m, n, u) away from count branch boundaries by at least ``margin``."""
    for _ in range(max_tries):
        m, n = random_pair(rng, delta_lo, delta_hi)
        u = random_su2(rng)
        if boundary_margin(u, m, n) > margin:
            return m, n, u
    raise RuntimeError("could not sample an instance clear of branch boundaries")


def pair_frame_margin(u: Su2Element, pair) -> float:
    """Branch-boundary margin for the pair's own frame (no governing swap)."""
    from biaxial import generalized_euler

    alpha, beta, gamma = generalized_euler(u, pair.frame())
    delta = pair.delta
    f_mn = f_angle(alpha, beta, delta)
    margins = [
        _frac_distance(beta / (2.0 * delta)),
        _frac_distance((f_mn + delta) / (2.0 * delta)),
        abs(f_mn - delta),
    ]
    return min(margins)


def count_analyze_calls(monkeypatch) -> list:
    """Record every ``counting.analyze`` call, wherever the library binds it.

    Returns the list that grows by one entry per call.
    """
    calls = []
    analyze_fn = biaxial.counting.analyze

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze_fn(*args, **kwargs)

    for module in (biaxial.counting, biaxial.synthesis, biaxial.cli):
        monkeypatch.setattr(module, "analyze", counted)
    return calls
