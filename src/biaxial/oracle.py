"""Independent verification of minimal counts.

Both tools read one fact about the sphere: a factor about ``m`` or ``n``
moves the other axis by at most the axis gap ``delta``.  So a pattern of
``k`` alternating factors that applies axis ``a`` first and ``c`` last
reaches a rotation ``D`` exactly when ``d(D a, c)`` lies in the pattern's
feasible set ``S_k``: ``{0}`` for ``k = 1``, ``{delta}`` for ``k = 2`` and
``[0, min(pi, (k-1)*delta)]`` for ``k >= 3``, as in :mod:`biaxial.counting`.
:func:`geodesic_bound_check` tests that condition.  :func:`numeric_search`
returns the pattern's closest product in closed form: its residual is
``2*sin(dist(d(D a, c), S_k)/4)``, and its angles are peeled one factor at
a time off the target turned into ``S_k`` and replayed, so the residual it
reports is one that a product of the pattern attains.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .config import DEFAULT_TOL, Tolerances
from .counting import AxisPair
from .core import (
    IDENTITY,
    Su2Element,
    _arc,
    _rot,
    compose,
    negate,
    normalize_angle,
    quat_distance,
    rotate_vector,
)
from .synthesis import AxisLabel, decompose_min

__all__ = [
    "PatternSpec",
    "SearchResult",
    "GeodesicBoundReport",
    "MinimalityReport",
    "geodesic_bound_check",
    "numeric_search",
    "minimality_certificate",
]

FEASIBLE_RESIDUAL = 1e-6
INFEASIBLE_RESIDUAL = 1e-4
# Allowance on every geodesic bound for rounding in the rotation and the
# distances.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class PatternSpec:
    """Alternating axis pattern of length ``k``.

    ``first_axis`` is the axis of the first factor applied (the rightmost
    one in product order).
    """

    k: int
    first_axis: AxisLabel

    def labels(self) -> tuple[AxisLabel, ...]:
        """Axis labels in application order."""
        out = []
        cur = self.first_axis
        for _ in range(self.k):
            out.append(cur)
            cur = cur.other
        return tuple(out)


@dataclass(frozen=True)
class SearchResult:
    """Closest product of a :func:`numeric_search`: its replayed residual,
    its angles in application order and ``evaluations == k``, one closed
    form per factor."""

    best_residual: float
    best_angles: tuple[float, ...]
    evaluations: int
    seed: int


@dataclass(frozen=True)
class GeodesicBoundReport:
    """The deciding sphere-distance bound for one rotation and one pattern.

    ``distance`` is ``d(D a, a)`` for an odd pattern and ``d(D a, b)`` for
    an even one, and ``bound`` is ``(length - 1) * delta``: the most the
    distance may be, or at length 2 what it must be.
    """

    length: int
    distance: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class MinimalityReport:
    passed: bool
    n_min: int
    construction_residual: float
    construction_count: int
    refutations: tuple[tuple[int, str, float], ...]  # (k, first_axis, residual)
    skipped_zero_length: bool


def _reach(u: Su2Element, pair: AxisPair, pattern: PatternSpec):
    """The sphere distance that decides whether the pattern reaches ``u``.

    Returns ``(a, b, image, c, d, t)``: the pattern's first applied axis
    ``a`` and the other one ``b``, read by label from the sign-normalized
    ``pair`` as float lists, the image ``D a``, the last axis ``c`` (``a``
    itself for odd ``k``, else ``b``), ``d = d(D a, c)`` and the point
    ``t`` of the feasible set ``S_k`` nearest to ``d``.
    """
    a = (pair.m if pattern.first_axis is AxisLabel.M else pair.n).tolist()
    b = (pair.n if pattern.first_axis is AxisLabel.M else pair.m).tolist()
    k = pattern.k
    c = a if k % 2 else b
    image = rotate_vector(u, a)
    d = _arc(image, c)
    t = 0.0 if k == 1 else pair.delta if k == 2 else min(d, (k - 1) * pair.delta)
    return a, b, image, c, d, t


def geodesic_bound_check(u: Su2Element, pair: AxisPair,
                         pattern: PatternSpec) -> GeodesicBoundReport:
    """Sphere-distance bound ``u`` meets exactly when an alternating
    product of the pattern equals it.

    ``a`` is the pattern's first applied axis and ``b`` the other one, both
    read by label from the sign-normalized ``pair``; ``D`` is the rotation
    of ``u`` and ``delta`` the axis gap, in ``(0, pi/2]``.  A product of
    odd length ``k`` has ``d(D a, a) <= (k-1)*delta``, one of length 2 has
    ``d(D a, b) = delta`` and one of even length ``k >= 4`` has
    ``d(D a, b) <= (k-1)*delta``; the other distance's bound (``k*delta``)
    follows by the triangle inequality.  Each condition is also
    sufficient, so up to ``BOUND_SLACK`` a failed check proves that no
    product of the pattern equals ``u`` and a passed one that some does.
    """
    _, _, _, _, distance, nearest = _reach(u, pair, pattern)
    return GeodesicBoundReport(length=pattern.k, distance=distance,
                               bound=(pattern.k - 1) * pair.delta,
                               passed=abs(distance - nearest) <= BOUND_SLACK)


def _check_search(starts: int, seed: int) -> None:
    """Admit integers ``starts >= 1`` and ``seed >= 0``, for every pattern."""
    if operator.index(starts) < 1:
        raise ValueError("starts must be at least 1")
    if operator.index(seed) < 0:
        raise ValueError("seed must be at least 0")


def _turn(p, x, q) -> float:
    """Angle about the unit ``p`` that carries the unit ``x`` nearest to the
    unit ``q``: from ``x``'s part orthogonal to ``p`` to ``q``'s,
    counterclockwise about ``p`` as :func:`~biaxial.core.rot` turns."""
    px, py, pz = p
    xx, xy, xz = x
    qx, qy, qz = q
    return math.atan2(px * (xy * qz - xz * qy) + py * (xz * qx - xx * qz)
                      + pz * (xx * qy - xy * qx),
                      xx * qx + xy * qy + xz * qz
                      - (xx * px + xy * py + xz * pz) * (qx * px + qy * py + qz * pz))


def _landing_turn(image, c, other, angle: float) -> Su2Element:
    """Rotation by ``angle`` that turns ``image`` toward the unit ``c`` along
    the great circle through both.

    Its axis is ``image x c``, or ``c x other`` when ``image`` is ``+-c``,
    made orthogonal to ``image`` so that the turn moves it by exactly
    ``angle``: near ``+-c`` the cross product's rounding would tilt it.
    """
    ix, iy, iz = image
    cx, cy, cz = c
    wx, wy, wz = iy * cz - iz * cy, iz * cx - ix * cz, ix * cy - iy * cx
    if wx == wy == wz == 0.0:
        ox, oy, oz = other
        wx, wy, wz = cy * oz - cz * oy, cz * ox - cx * oz, cx * oy - cy * ox
    along = wx * ix + wy * iy + wz * iz
    wx, wy, wz = wx - along * ix, wy - along * iy, wz - along * iz
    norm = math.sqrt(wx * wx + wy * wy + wz * wz)
    return _rot((wx / norm, wy / norm, wz / norm), angle)


def numeric_search(u: Su2Element, pair: AxisPair, pattern: PatternSpec,
                   starts: int = 64, seed: int = 0,
                   stop_below: float | None = None) -> SearchResult:
    """Closest product of the pattern to ``u``, in closed form.

    The residual is the quaternion distance minimized over the two lifts.
    With ``a``, ``c``, ``d = d(D a, c)`` and ``S_k`` as in the module
    docstring, its least value is ``2*sin(dist(d, S_k)/4)``.  It is a lower
    bound: if ``D = E P`` for a product ``P``, then ``d(D a, P a) <=
    angle(E)``, and ``P``'s residual is ``2*sin(angle(E)/4)``.  It is
    attained: turning ``D a`` along the great circle through ``c`` into
    ``S_k`` by ``F`` leaves ``Q = F D``, a product of the pattern.

    The angles are peeled off ``Q`` one factor at a time.  For ``i = k-1
    ... 3`` factor ``i`` turns the image of ``a`` about ``axis_i`` nearest
    to ``axis_{i-1}``, which keeps it within ``(i-1)*delta`` of that axis.
    Factor 2 turns it about ``a`` to the gap ``delta`` from ``b``, factor 1
    carries ``a`` there about ``b``, and factor 0 is the rotation about
    ``a`` that is left.  ``best_residual`` is the replay of the returned
    angles about the sign-normalized pair by
    :func:`~biaxial.core.compose` and the rotation kernel, on the floor to
    rounding, and ``evaluations`` is ``k``.  ``starts >= 1`` and
    ``seed >= 0`` are checked; neither they nor ``stop_below`` change the
    result.
    """
    _check_search(starts, seed)
    if pattern.k < 1:
        raise ValueError("pattern length must be at least 1")
    k = pattern.k
    a, b, image, c, d, t = _reach(u, pair, pattern)
    q = compose(_landing_turn(image, c, b if c is a else a, d - t), u)
    axes = [b if i % 2 else a for i in range(k)]
    angles = [0.0] * k
    for i in range(k - 1, 1, -1):
        x = rotate_vector(q, a)
        psi = _turn(axes[i], x, axes[i - 1])
        if i == 2:
            # The image at r from a lies at the gap from b once its turn
            # about a is phi past b's, with cos(phi) = tan(r/2)/tan(delta).
            half = 0.5 * _arc(x, a)
            num = math.sin(half) * math.cos(pair.delta)
            den = math.cos(half) * math.sin(pair.delta)
            psi += 0.0 if num >= den else math.acos(num / den)
        q = compose(_rot(axes[i], psi), q)
        angles[i] = -psi
    if k >= 2:
        angles[1] = _turn(b, a, rotate_vector(q, a))
        q = compose(_rot(b, -angles[1]), q)
    ax, ay, az = a
    angles[0] = 2.0 * math.atan2(-(q.x * ax + q.y * ay + q.z * az), q.w)
    angles = tuple(normalize_angle(theta) for theta in angles)
    product = IDENTITY
    for axis, theta in zip(reversed(axes), reversed(angles)):
        product = compose(product, _rot(axis, theta))
    residual = min(quat_distance(product, u), quat_distance(negate(product), u))
    return SearchResult(residual, angles, k, seed)


def minimality_certificate(u: Su2Element, m_raw, n_raw, starts: int = 64,
                           seed: int = 0,
                           tol: Tolerances = DEFAULT_TOL) -> MinimalityReport:
    """Certify the closed-form count.

    Passes when the constructed sequence of the claimed length reproduces the
    target within ``tol.recon`` and no alternating pattern one factor
    shorter (both first-axis choices) reaches it.  Each refutation is the
    residual of that pattern's closest product (:func:`numeric_search`),
    which sits on the proven floor ``2*sin(dist(d, S_k)/4)`` up to
    ``BOUND_SLACK``, so a residual above ``INFEASIBLE_RESIDUAL`` proves that
    the pattern does not reach the target.  A pattern reaches it when its
    residual is within ``INFEASIBLE_RESIDUAL`` and its geodesic bound check
    passes: near a count boundary some product comes that close to targets
    that no product of the pattern equals.  ``starts`` and ``seed`` are
    checked as :func:`numeric_search` checks them and change nothing.
    """
    _check_search(starts, seed)
    dec = decompose_min(u, m_raw, n_raw, tol=tol)
    n = dec.report.n_min
    construction_ok = dec.residual <= tol.recon and dec.count == n
    refutations = []
    infeasible_ok = True
    if n > 1:
        for first_axis in (AxisLabel.M, AxisLabel.N):
            pattern = PatternSpec(n - 1, first_axis)
            result = numeric_search(dec.target, dec.pair, pattern, starts=starts,
                                    seed=seed, stop_below=INFEASIBLE_RESIDUAL)
            refutations.append((n - 1, first_axis.value, result.best_residual))
            if (result.best_residual <= INFEASIBLE_RESIDUAL
                    and geodesic_bound_check(dec.target, dec.pair, pattern).passed):
                infeasible_ok = False
    return MinimalityReport(passed=construction_ok and infeasible_ok,
                            n_min=n,
                            construction_residual=dec.residual,
                            construction_count=dec.count,
                            refutations=tuple(refutations),
                            skipped_zero_length=(n == 1))
