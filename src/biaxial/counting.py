"""Minimal factor counts for two-axis rotation synthesis, from sphere distances.

With gap ``delta`` in ``(0, pi/2]``, ``k`` alternating factors applying axis
``a`` first and ``c`` last (``c = a`` iff ``k`` is odd) reach a rotation
``D`` iff ``d(D a, c)`` is 0 (``k = 1``), ``delta`` (``k = 2``) or at most
``(k-1)*delta`` (``k >= 3``).  With ``g`` the governing axis (larger
overlap ``b(v, u)``) and ``h`` the other, each parity's count is the least
such ``k`` for one distance:

    odd: d(D g, g)    even-mn (g first): d(D g, h)    even-nm: d(D h, g)

``d(D g, g)`` is the middle angle ``beta`` of the generalized Euler triple
in the frame of ``g`` and ``l = g x h / |g x h|``, and ``d(D g, h)`` is the
paper's auxiliary angle ``f(alpha, beta, delta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DECISION_WINDOW, DEFAULT_TOL, Tolerances
from .core import Su2Element, _admit_unit, _arc, compose, rot, rotate_vector, unit_axis
from .errors import AxesParallelError, InvalidRotationError

__all__ = [
    "AxisPair",
    "CountReport",
    "ceil_snapped",
    "overlap_b",
    "f_angle",
    "g_count",
    "m_odd_count",
    "even_count",
    "reaches_gap",
    "count_min",
    "lowenthal_bound",
    "worst_case_witness",
]

PARITY_ODD = "odd"
PARITY_EVEN_MN = "even-mn"
PARITY_EVEN_NM = "even-nm"


def ceil_snapped(x: float) -> int:
    """Ceiling that snaps to the nearest integer within ``DECISION_WINDOW``.

    Prevents floating-point noise from inflating counts at exact branch
    boundaries such as ``beta = 2*delta``.
    """
    r = round(x)
    if abs(x - r) <= DECISION_WINDOW:
        return int(r)
    return int(math.ceil(x))


def overlap_b(v, u: Su2Element) -> float:
    """Absolute overlap of the quaternion vector part with the unit axis ``v``.

    Equals ``|sin(theta/2)| * |axis . v|`` when ``u`` rotates by ``theta``
    about ``axis``; it decides which of the two axes governs the count.
    """
    vx, vy, vz = v
    return abs(u.x * vx + u.y * vy + u.z * vz)


def f_angle(alpha: float, beta: float, delta: float) -> float:
    """Auxiliary angle in [0, pi] controlling the even-parity count.

    ``f/2`` has ``sin(f/2)^2 = sin((b-d)/2)^2 + sin(a/2)^2 sin(b) sin(d)``
    and ``cos(f/2)^2 = cos((b+d)/2)^2 + cos(a/2)^2 sin(b) sin(d)``.  When
    ``sin(b) sin(d)`` is negative the same two values are
    ``sin((b+d)/2)^2 + cos(a/2)^2 |sin(b) sin(d)|`` and
    ``cos((b-d)/2)^2 + sin(a/2)^2 |sin(b) sin(d)|``.  Either way both are
    sums of non-negative terms, and ``f`` is read from the two with
    ``atan2``, so it keeps its digits near 0 and near pi alike.  Satisfies
    ``f(0, beta, delta) = |beta - delta|`` and ``f(alpha, 0, delta) = delta``.
    """
    p = math.sin(beta) * math.sin(delta)
    lo, hi = 0.5 * (beta - delta), 0.5 * (beta + delta)
    sin_a, cos_a = math.sin(0.5 * alpha), math.cos(0.5 * alpha)
    if p < 0.0:
        lo, hi, sin_a, cos_a, p = hi, lo, cos_a, sin_a, -p
    sin_lo, cos_hi = math.sin(lo), math.cos(hi)
    s2 = sin_lo * sin_lo + sin_a * sin_a * p
    c2 = cos_hi * cos_hi + cos_a * cos_a * p
    return 2.0 * math.atan2(math.sqrt(s2), math.sqrt(c2))


def m_odd_count(beta: float, delta: float) -> int:
    """Odd count for ``beta = d(D a, a)``: ``2*ceil(beta/(2*delta)) + 1``."""
    return 2 * ceil_snapped(beta / (2.0 * delta)) + 1


def reaches_gap(d: float, delta: float) -> bool:
    """Whether an even pattern's ``d(D a, c)`` reaches the gap (else no two
    factors reach ``D`` and the even chain's leading rotations do not merge)."""
    return d >= delta - DECISION_WINDOW


def even_count(d: float, delta: float) -> int:
    """Even count for ``d = d(D a, c)``: ``2*ceil(d/(2*delta) + 1/2)``
    when ``d`` reaches the gap, else 4."""
    if reaches_gap(d, delta):
        return 2 * ceil_snapped(d / (2.0 * delta) + 0.5)
    return 4


def g_count(alpha: float, beta: float, delta: float) -> int:
    """Even count for the triple (alpha, beta, gamma): :func:`even_count`
    of the auxiliary angle."""
    return even_count(f_angle(alpha, beta, delta), delta)


@dataclass(frozen=True, eq=False)
class AxisPair:
    """Normalized two-axis context and its Euler frame.

    ``m`` and ``n`` are the admitted axes divided by their norms
    (:func:`~biaxial.core.unit_axis`).  ``m`` is sign-flipped if needed so
    that ``m . n >= 0``, putting the gap ``delta = atan2(|m x n|, m . n)``
    in ``(0, pi/2]``.  ``l`` is the unit
    normal ``m x n / |m x n|``, projected orthogonal to ``m`` and normalized
    again, so that ``(l, m)`` is orthonormal to rounding for every gap: the
    cross product alone is off orthogonal by about 1e-16/delta, which would
    add that much to a middle angle read in the frame.  ``swapped`` marks
    pairs produced by exchanging the roles of m and n (which also flips l).
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
                f"axes are parallel within tolerance (|m.n| = {abs(dot):.12g}); "
                f"gaps below sqrt(2*tol.parallel) = "
                f"{math.sqrt(2.0 * tol.parallel):.3g} rad are rejected")
        flipped = dot < 0.0
        if flipped:
            m = -m
            dot = -dot
        # acos(m.n) would lose about 1e-16/delta of absolute accuracy at small
        # gaps (and, before the sign flip, near pi); atan2 keeps it relative.
        cross = np.cross(m, n)
        sin_delta = float(np.linalg.norm(cross))
        delta = math.atan2(sin_delta, dot)
        return cls(m=m, n=n, delta=delta, l=_orthonormal(cross / sin_delta, m),
                   m_flipped=flipped)

    def swap(self) -> "AxisPair":
        """Exchange the roles of the two axes; the normal flips sign."""
        return AxisPair(m=self.n, n=self.m, delta=self.delta,
                        l=_orthonormal(-self.l, self.n),
                        m_flipped=self.m_flipped, swapped=not self.swapped)


def _orthonormal(l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Unit vector along the part of ``l`` orthogonal to the unit ``m``."""
    l = l - float(l @ m) * m
    return l / math.sqrt(float(l @ l))


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
    """Internal result bundling the admitted target and the governing
    context with the counts."""

    target: Su2Element  # the admitted target, unit to rounding
    pair: AxisPair  # caller-oriented pair (sign-normalized, not swapped)
    governing: AxisPair  # pair whose m is the governing axis g
    report: CountReport
    distance: float  # the sphere distance that decides the chosen parity


def _deciding_distances(u: Su2Element, pair: AxisPair) -> tuple[float, float, float]:
    """``d(D m, m)``, ``d(D m, n)`` and ``d(D n, m)`` for the pair's axes:
    the distances that decide the odd, even-mn and even-nm counts."""
    m = pair.m.tolist()  # admitted unit axes; D keeps norms
    n = pair.n.tolist()
    dm = rotate_vector(u, m)
    return _arc(dm, m), _arc(dm, n), _arc(rotate_vector(u, n), m)


def analyze(u: Su2Element, m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """Admit the target and the axes, pick the governing axis order and
    count from three sphere distances.

    The target is admitted by the rule the axes pass (else
    ``InvalidRotationError``), and everything after reads the admitted one.
    """
    c = u.components()
    v = _admit_unit(c, tol, InvalidRotationError, "target")
    if v is not c:
        u = Su2Element(*v)
    return _analyze_pair(u, AxisPair.from_axes(m_raw, n_raw, tol))


def _analyze_pair(u: Su2Element, pair: AxisPair) -> Analysis:
    """:func:`analyze` of an admitted target about an admitted pair."""
    governing = pair
    # The closed-form minimum needs the governing axis to carry at least as
    # much of the target's vector part as the other one; ties keep the
    # caller's order for determinism.
    if overlap_b(pair.m, u) < overlap_b(pair.n, u):
        governing = pair.swap()
    distances = _deciding_distances(u, governing)
    delta = governing.delta
    counts = (m_odd_count(distances[0], delta),
              even_count(distances[1], delta),
              even_count(distances[2], delta))
    # Ties prefer odd, then even-mn.
    chosen = counts.index(min(counts))
    report = CountReport(
        n_min=counts[chosen],
        m_odd=counts[0],
        m_even_mn=counts[1],
        m_even_nm=counts[2],
        beta=distances[0],
        beta_prime=distances[1],
        lowenthal=_lowenthal_from_delta(delta),
        chosen_parity=(PARITY_ODD, PARITY_EVEN_MN, PARITY_EVEN_NM)[chosen],
    )
    return Analysis(target=u, pair=pair, governing=governing, report=report,
                    distance=distances[chosen])


def count_min(u: Su2Element, m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> CountReport:
    """Exact minimum number of rotations about m or n realizing ``u``."""
    return analyze(u, m_raw, n_raw, tol).report


def _lowenthal_from_delta(delta: float) -> int:
    return ceil_snapped(math.pi / delta) + 1


def lowenthal_bound(m_raw, n_raw, tol: Tolerances = DEFAULT_TOL) -> int:
    """Worst case of the minimum count over all targets: ``ceil(pi/delta) + 1``."""
    return _lowenthal_from_delta(AxisPair.from_axes(m_raw, n_raw, tol).delta)


def worst_case_witness(pair: AxisPair) -> Su2Element:
    """A target whose minimal count attains the worst-case bound.

    With ``nu = ceil(pi/delta)`` the witness is ``rot(m, pi) * rot(l, pi - delta)``
    for even ``nu`` and ``rot(l, pi)`` for odd ``nu``.
    """
    nu = ceil_snapped(math.pi / pair.delta)
    if nu % 2 == 0:
        return compose(rot(pair.m, math.pi), rot(pair.l, math.pi - pair.delta))
    return rot(pair.l, math.pi)
