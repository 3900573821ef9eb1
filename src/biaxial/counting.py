"""Closed-form minimal factor counts for two-axis rotation synthesis.

Given unit axes m, n with gap ``delta = atan2(|m x n|, m.n)`` normalized
into ``(0, pi/2]``, the minimum number of alternating rotations about m and n
realizing a target splits by parity of the factor count:

    odd  (m first and last):  2*ceil(beta / (2*delta)) + 1
    even (n on one end):      g(alpha, beta, delta)  or  g(gamma, -beta, delta)

where (alpha, beta, gamma) is the generalized Euler triple of the target in
the frame spanned by m and ``l = m x n / |m x n|``, and g is computed from
the auxiliary angle ``f``.  The overall minimum also uses the axis with the
larger overlap ``b(v, u)`` as the governing first axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .core import (
    EulerTriple,
    Frame,
    Su2Element,
    compose,
    frame_for,
    generalized_euler,
    rot,
    unit_axis,
)
from .errors import AxesParallelError, InvalidRotationError

__all__ = [
    "AxisPair",
    "CountReport",
    "ceil_snapped",
    "overlap_b",
    "f_angle",
    "g_count",
    "m_odd_count",
    "beta_prime_of",
    "count_min",
    "lowenthal_bound",
    "worst_case_witness",
]

PARITY_ODD = "odd"
PARITY_EVEN_MN = "even-mn"
PARITY_EVEN_NM = "even-nm"


def ceil_snapped(x: float, eps: float = DEFAULT_TOL.ceil) -> int:
    """Ceiling that snaps to the nearest integer within ``eps``.

    Prevents floating-point noise from inflating counts at exact branch
    boundaries such as ``beta = 2*delta``.
    """
    r = round(x)
    if abs(x - r) <= eps:
        return int(r)
    return int(math.ceil(x))


def overlap_b(v, u: Su2Element, tol: Tolerances = DEFAULT_TOL) -> float:
    """Absolute overlap of the quaternion vector part with axis ``v``.

    Equals ``|sin(theta/2)| * |axis . v|`` when ``u`` rotates by ``theta``
    about ``axis``; it decides which of the two axes governs the count.
    """
    a = unit_axis(v, tol)
    return abs(u.x * a[0] + u.y * a[1] + u.z * a[2])


def f_angle(alpha: float, beta: float, delta: float) -> float:
    """Auxiliary angle in [0, pi] controlling the even-parity count.

    ``f/2`` has ``cos(f/2)^2 = cos(b/2)^2 cos(d/2)^2 + sin(b/2)^2 sin(d/2)^2
    + 2 cos(a) sin(b/2) sin(d/2) cos(b/2) cos(d/2)``; the complementary form
    ``sin(f/2)^2 = sin((b-d)/2)^2 + sin(a/2)^2 sin(b) sin(d)`` is used below
    the halfway point so that small values stay fully accurate.  Satisfies
    ``f(0, beta, delta) = |beta - delta|`` and ``f(alpha, 0, delta) = delta``.
    """
    half_diff = math.sin(0.5 * (beta - delta))
    half_alpha = math.sin(0.5 * alpha)
    s2 = half_diff * half_diff + half_alpha * half_alpha * math.sin(beta) * math.sin(delta)
    s2 = min(1.0, max(0.0, s2))
    if s2 <= 0.5:
        return 2.0 * math.asin(math.sqrt(s2))
    return 2.0 * math.acos(math.sqrt(1.0 - s2))


def g_count(alpha: float, beta: float, delta: float,
            tol: Tolerances = DEFAULT_TOL) -> int:
    """Minimal even factor count for the triple (alpha, beta, gamma).

    ``2 * ceil(f/(2*delta) + 1/2)`` when the auxiliary angle reaches the
    axis gap, else 4 (two factors are then impossible).
    """
    f = f_angle(alpha, beta, delta)
    if f >= delta - tol.angle:
        return 2 * ceil_snapped(f / (2.0 * delta) + 0.5, tol.ceil)
    return 4


def m_odd_count(beta: float, delta: float, tol: Tolerances = DEFAULT_TOL) -> int:
    """Minimal odd factor count: ``2*ceil(beta/(2*delta)) + 1``."""
    return 2 * ceil_snapped(beta / (2.0 * delta), tol.ceil) + 1


@dataclass(frozen=True, eq=False)
class AxisPair:
    """Normalized two-axis context.

    ``m`` is sign-flipped if needed so that ``m . n >= 0``, putting the gap
    ``delta = atan2(|m x n|, m . n)`` in ``(0, pi/2]``, and ``l`` is the unit
    normal ``m x n / |m x n|``.  ``swapped`` marks pairs produced by
    exchanging the roles of m and n (which also flips l).
    """

    m: np.ndarray
    n: np.ndarray
    delta: float
    l: np.ndarray
    m_flipped: bool = False
    swapped: bool = False

    @classmethod
    def from_axes(cls, m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> "AxisPair":
        m = unit_axis(m_raw, tol)
        n = unit_axis(n_raw, tol)
        dot = float(m @ n)
        if abs(dot) >= 1.0 - tol.parallel:
            raise AxesParallelError(
                f"axes are parallel within tolerance (|m.n| = {abs(dot):.12g})")
        flipped = dot < 0.0
        if flipped:
            m = -m
            dot = -dot
        # acos(m.n) would lose about 1e-16/delta of absolute accuracy at small
        # gaps (and, before the sign flip, near pi); atan2 keeps it relative.
        cross = np.cross(m, n)
        sin_delta = float(np.linalg.norm(cross))
        delta = math.atan2(sin_delta, dot)
        l = cross / sin_delta
        return cls(m=m, n=n, delta=delta, l=l, m_flipped=flipped)

    def swap(self) -> "AxisPair":
        """Exchange the roles of the two axes; the normal flips sign."""
        return AxisPair(m=self.n, n=self.m, delta=self.delta, l=-self.l,
                        m_flipped=self.m_flipped, swapped=not self.swapped)

    def frame(self, tol: Tolerances = DEFAULT_TOL) -> Frame:
        return frame_for(self.l, self.m, tol)


@dataclass(frozen=True)
class CountReport:
    """Minimal counts for one target, in the governing axis order."""

    n_min: int
    m_odd: int
    m_even_mn: int
    m_even_nm: int
    beta: float
    beta_prime: float
    lowenthal: int
    chosen_parity: str


@dataclass(frozen=True, eq=False)
class Analysis:
    """Internal result bundling the governing context with the counts."""

    pair: AxisPair  # caller-oriented pair (sign-normalized, not swapped)
    governing: AxisPair  # pair actually used for the Euler triple
    frame: Frame
    triple: EulerTriple
    report: CountReport


def analyze(u: Su2Element, m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """Pick the governing axis order, factor the target, compute all counts."""
    if not all(math.isfinite(c) for c in u.components()):
        raise InvalidRotationError(f"target must be finite, got {u.components()}")
    pair = AxisPair.from_axes(m_raw, n_raw, tol)
    governing = pair
    # The closed-form minimum needs the governing axis to carry at least as
    # much of the target's vector part as the other one; ties keep the
    # caller's order for determinism.
    if overlap_b(pair.m, u, tol) < overlap_b(pair.n, u, tol):
        governing = pair.swap()
    frame = governing.frame(tol)
    triple = generalized_euler(u, frame, tol)
    alpha, beta, gamma = triple
    delta = governing.delta
    m_odd = m_odd_count(beta, delta, tol)
    m_even_mn = g_count(alpha, beta, delta, tol)
    m_even_nm = g_count(gamma, -beta, delta, tol)
    n_min = min(m_odd, m_even_mn, m_even_nm)
    if n_min == m_odd:
        parity = PARITY_ODD
    elif n_min == m_even_mn:
        parity = PARITY_EVEN_MN
    else:
        parity = PARITY_EVEN_NM
    report = CountReport(
        n_min=n_min,
        m_odd=m_odd,
        m_even_mn=m_even_mn,
        m_even_nm=m_even_nm,
        beta=beta,
        beta_prime=f_angle(alpha, beta, delta),
        lowenthal=_lowenthal_from_delta(delta, tol),
        chosen_parity=parity,
    )
    return Analysis(pair=pair, governing=governing, frame=frame,
                    triple=triple, report=report)


def count_min(u: Su2Element, m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> CountReport:
    """Exact minimum number of rotations about m or n realizing ``u``."""
    return analyze(u, m_raw, n_raw, tol).report


def beta_prime_of(u: Su2Element, pair: AxisPair,
                  tol: Tolerances = DEFAULT_TOL) -> float:
    """Middle angle of ``rot(l, -delta) * u`` in the (l, m) frame.

    For ``u = rot(m, a) * rot(l, b) * rot(m, c)`` this equals
    ``f_angle(a, b, delta)``.
    """
    shifted = compose(rot(pair.l, -pair.delta, tol), u, tol)
    return generalized_euler(shifted, pair.frame(tol), tol).beta


def _lowenthal_from_delta(delta: float, tol: Tolerances) -> int:
    return ceil_snapped(math.pi / delta, tol.ceil) + 1


def lowenthal_bound(m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> int:
    """Worst case of the minimum count over all targets: ``ceil(pi/delta) + 1``."""
    return _lowenthal_from_delta(AxisPair.from_axes(m_raw, n_raw, tol).delta, tol)


def worst_case_witness(pair: AxisPair, tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """A target whose minimal count attains the worst-case bound.

    With ``nu = ceil(pi/delta)`` the witness is ``rot(m, pi) * rot(l, pi - delta)``
    for even ``nu`` and ``rot(l, pi)`` for odd ``nu``.
    """
    nu = ceil_snapped(math.pi / pair.delta, tol.ceil)
    if nu % 2 == 0:
        return compose(rot(pair.m, math.pi, tol),
                       rot(pair.l, math.pi - pair.delta, tol), tol)
    return rot(pair.l, math.pi, tol)
