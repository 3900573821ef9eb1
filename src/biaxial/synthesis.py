"""Explicit optimal factor sequences alternating between two fixed axes.

The middle Euler angle of the target (or of a shifted target, for even
factor counts) is split into slabs of at most twice the axis gap; each slab
is realised by one m-n-m triple with angles in closed form.  Chaining the
triples and merging adjacent same-axis rotations yields a sequence whose
length is the count from :mod:`biaxial.counting`'s rule, passed in.

Every slab but the last is a full ``2*delta``, realised exactly by the
triple ``(0, pi, pi)``, so every pair of angles between two full slabs is
the half-turn pair ``n: pi, m: -pi`` (whose product is
``rot(l, 2*delta)``).  A chain is therefore built run-length encoded from
its last slab's solution alone: a head, that constant block repeated, and
a tail.  Reversal, relabelling for the caller's axes and angle reduction
are applied to those few distinct angles; the factor tuple is then spelled
out with one shared ``Factor`` per block angle and replayed once.  The
replay stays the sequential fold, but computes each distinct factor's
rotation once, so one ``decompose_min`` call costs one multiply per factor
of a chain of about ``pi/delta`` factors and no other per-factor work but
building the tuple.  There is no renormalisation rule: admission divides
each axis by its norm, so every rotation and every partial product is
unit to rounding.

Factor lists are stored in product order: ``factors[0]`` is the leftmost
factor, i.e. the last one applied.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from operator import is_not
from typing import NamedTuple, Sequence

import numpy as np

from .config import DECISION_WINDOW, DEFAULT_TOL, Tolerances
from .counting import (Analysis, AxisPair, CountReport, _deciding_distances, analyze,
                       even_count, m_odd_count, reaches_gap)
from .core import (
    IDENTITY,
    Su2Element,
    _rot,
    compose,
    generalized_euler,
    inverse,
    normalize_angle,
    quat_distance,
    unit_axis,
)
from .errors import InfeasibleSlabError

__all__ = [
    "AxisLabel",
    "Factor",
    "Decomposition",
    "VerificationReport",
    "solve_triple",
    "decompose_odd",
    "decompose_even",
    "decompose_even_reversed",
    "decompose_min",
    "verify_decomposition",
    "replay_factors",
]


class AxisLabel(enum.Enum):
    M = "m"
    N = "n"

    @property
    def other(self) -> "AxisLabel":
        return AxisLabel.N if self is AxisLabel.M else AxisLabel.M


class Factor(NamedTuple):
    """One rotation in a sequence: an axis tag and an angle in (-2*pi, 2*pi]."""

    label: AxisLabel
    angle: float


class TripleSolution(NamedTuple):
    alpha: float
    gamma: float
    theta: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """An ordered factor product realising ``target`` about two axes.

    ``axis_m`` and ``axis_n`` are the unit vectors the factor labels refer
    to; replaying the factors left to right (last applied first) reproduces
    the target with exact quaternion sign up to ``residual``.  ``parity`` is
    stated in the governing (normalized) axis order; ``swapped`` marks a
    governing order that exchanged m and n, so the caller-visible label
    order is reversed.  ``beta_prime`` is the even constructions'
    auxiliary middle angle.  ``report`` is the analysis
    :func:`decompose_min` ran; the per-parity constructions run none and are
    never swapped.
    """

    factors: tuple[Factor, ...]
    target: Su2Element
    axis_m: np.ndarray
    axis_n: np.ndarray
    pair: AxisPair
    parity: str
    residual: float
    beta_prime: float | None = None
    report: CountReport | None = None
    swapped: bool = False

    @property
    def count(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class VerificationReport:
    """Diagnostics of one replay; ``product`` is the replayed rotation."""

    product: Su2Element
    residual: float
    alternates: bool
    angles_in_window: bool
    nonempty: bool
    ok: bool


def solve_triple(beta_j: float, delta: float) -> TripleSolution:
    """Angles (alpha_j, gamma_j, theta_j) realising one slab:

        rot(l, beta_j) = rot(m, -alpha_j) * rot(n, theta_j) * rot(m, -gamma_j)

    for orthogonal l, m and ``n = sin(delta) l x m + cos(delta) m``.  With
    ``h = arcsin(tan(beta_j/2) / tan(delta))`` (finite at the float pi/2),
    ``alpha_j = h - pi/2`` and ``gamma_j = h + pi/2``.  A full slab
    ``2*delta`` has both ratios exactly 1, so its triple is exactly
    ``(0, pi, pi)`` at every gap.  Raises ``InfeasibleSlabError`` for a gap
    outside ``(0, pi/2]`` or a slab outside ``[0, 2*delta]``.
    """
    if not (0.0 < delta <= 0.5 * math.pi + DECISION_WINDOW):
        raise InfeasibleSlabError(f"axis gap {delta!r} outside (0, pi/2]")
    if beta_j > 2.0 * delta + DECISION_WINDOW:
        raise InfeasibleSlabError(
            f"slab {beta_j!r} exceeds twice the axis gap {delta!r}")
    if beta_j < -DECISION_WINDOW:
        raise InfeasibleSlabError(f"slab {beta_j!r} is negative")
    ratio = math.tan(0.5 * min(beta_j, 2.0 * delta)) / math.tan(delta)
    h = math.asin(min(1.0, max(-1.0, ratio)))
    s = 2.0 * math.asin(min(1.0, max(-1.0, math.sin(0.5 * beta_j) / math.sin(delta))))
    return TripleSolution(h - 0.5 * math.pi, h + 0.5 * math.pi, s)


def _last_slab(total: float, delta: float, k: int) -> float:
    """Last of the ``k >= 1`` slabs that cut ``total`` into full ``2*delta``
    slabs and a trailing remainder, clipped to at most ``2*delta``.

    A remainder within 1e-12 of a full slab is snapped onto it: the slab
    angle solutions degrade like sqrt of the distance to the full-slab
    boundary, so a one-ulp shortfall would otherwise cost ~1e-8 of
    reconstruction accuracy while the snap costs at most 5e-13.
    """
    full = 2.0 * delta
    remainder = total - full * (k - 1)
    if remainder >= full or abs(remainder - full) <= 1e-12:
        return full
    return remainder


class _Chain(NamedTuple):
    """Raw angles of one construction in the governing frame, run-length
    encoded.

    ``angles[at:at + 2]`` is a block that the full chain repeats ``extra``
    more times in place; with ``extra == 0`` the chain is ``angles`` as it
    stands.  Labels alternate starting with ``first``; since the block has
    two angles, every angle's label is the one it has in ``angles``.
    Angles are not yet reduced into the reporting interval.
    """

    first: AxisLabel
    angles: tuple[float, ...]
    at: int
    extra: int
    beta_prime: float | None


def _blocked(head: tuple[float, ...], block: tuple[float, float], reps: int,
             tail: tuple[float, ...]) -> tuple[tuple[float, ...], int, int]:
    """``(angles, at, extra)`` of the chain ``head + block * reps + tail``."""
    if reps == 0:
        return head + tail, 0, 0
    return head + block + tail, len(head), reps - 1


def _odd_chain(u: Su2Element, pair: AxisPair, count: int) -> _Chain:
    """Raw angles of the odd construction m, n, m, ..., m of ``count``
    factors.

    The middle angle is cut into ``(count - 1) / 2`` slabs, all but the
    last a full ``2*delta`` with triple ``(0, pi, pi)``: three angles per
    slab, with the m-angles between two slabs merged, so every pair between
    two full slabs is the half-turn pair ``(pi, -pi)``.  Only the last slab
    is solved.
    """
    delta = pair.delta
    alpha, beta, gamma = generalized_euler(u, pair)
    k = (count - 1) // 2
    if k <= 0:
        return _Chain(AxisLabel.M, (alpha + gamma,), 0, 0, None)
    last = solve_triple(_last_slab(beta, delta, k), delta)
    if k == 1:
        angles = (alpha - last.alpha, last.theta, -last.gamma + gamma)
        return _Chain(AxisLabel.M, angles, 0, 0, None)
    angles, at, extra = _blocked(
        (alpha,), (math.pi, -math.pi), k - 2,
        (math.pi, -math.pi - last.alpha, last.theta, -last.gamma + gamma))
    return _Chain(AxisLabel.M, angles, at, extra, None)


def _even_chain(u: Su2Element, pair: AxisPair, count: int, merged: bool) -> _Chain:
    """Raw angles of the even construction n, m, ..., n, m of ``count``
    factors, merged or not as :func:`~biaxial.counting.reaches_gap` says.

    ``beta_prime + delta`` is cut into slabs.  A merged chain has ``count /
    2`` of them: the first is pinned to a full ``2*delta`` with triple
    ``(0, pi, pi)``, whose zero m-angle lets the two leading n-rotations
    merge, and the rest are full slabs and the last, as in
    :func:`_odd_chain`.  An unmerged chain is the four-factor fallback: one
    slab.  Only the last slab is solved; the pinned slab never is.
    """
    delta = pair.delta
    shifted = compose(_rot(pair.l, -delta), u)
    ap, bp, gp = generalized_euler(shifted, pair)
    if not merged:
        trip = solve_triple(bp + delta, delta)
        angles = (ap, -trip.alpha, trip.theta, -trip.gamma + gp)
        return _Chain(AxisLabel.N, angles, 0, 0, bp)
    k = count // 2
    if k == 1:
        return _Chain(AxisLabel.N, (ap + math.pi, -math.pi + gp), 0, 0, bp)
    # The pinned slab comes off the total bp + delta, in that order: bp - delta
    # would round differently.
    last = solve_triple(_last_slab(bp + delta - 2.0 * delta, delta, k - 1), delta)
    angles, at, extra = _blocked(
        (ap + math.pi,), (-math.pi, math.pi), k - 2,
        (-math.pi - last.alpha, last.theta, -last.gamma + gp))
    return _Chain(AxisLabel.N, angles, at, extra, bp)


def _finish(chain: _Chain, u: Su2Element, pair: AxisPair, parity: str,
            axis_m: np.ndarray, axis_n: np.ndarray, *,
            reverse: bool = False, swapped: bool = False,
            m_flipped: bool = False,
            report: CountReport | None = None) -> Decomposition:
    """Turn a raw chain into the reported factors and replay them.

    The chain goes through these angle transforms in order: reduce into
    ``(-2*pi, 2*pi]``; with ``reverse``, reverse the list and negate every
    angle (a chain for ``inverse(u)`` becomes one for ``u``); with
    ``swapped``, exchange the labels; with ``m_flipped``, negate the
    m-angles (a rotation about -m by theta is one about m by -theta); reduce
    again.  The transforms act on the chain's distinct angles only (a
    repeated block is transformed once), and the factors are then spelled
    out with one shared ``Factor`` per block angle.  The result is replayed
    once about the admitted axes ``axis_m`` and ``axis_n``.  The chain
    reproduces ``u`` with its quaternion sign, so a wrong lift would show as
    a residual of about 2.
    """
    angles = [normalize_angle(a) for a in chain.angles]
    at, first = chain.at, chain.first
    if reverse:
        if len(angles) % 2 == 0:
            first = first.other
        angles = [-a for a in reversed(angles)]
        at = len(angles) - at - 2
    if swapped:
        first = first.other
    if m_flipped:
        start = 0 if first is AxisLabel.M else 1
        angles[start::2] = [-a for a in angles[start::2]]
    labels = (first, first.other)
    factors = tuple([Factor(labels[i & 1], normalize_angle(a))
                     for i, a in enumerate(angles)])
    if chain.extra:
        factors = (factors[:at] + factors[at:at + 2] * (chain.extra + 1)
                   + factors[at + 2:])
    residual = quat_distance(replay_factors(factors, axis_m, axis_n), u)
    return Decomposition(factors=factors, target=u, axis_m=axis_m,
                         axis_n=axis_n, pair=pair, parity=parity,
                         residual=residual, beta_prime=chain.beta_prime,
                         report=report, swapped=swapped)


def replay_factors(factors: Sequence[Factor], axis_m, axis_n,
                   tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """Product of the factors in list order (applied right to left).

    Bit-identical to the left fold ``acc = compose(acc, rot(axis, f.angle,
    tol))`` from ``IDENTITY``: the same arithmetic in the same order,
    inlined on Python floats.  Neither renormalises: ``unit_axis`` divides
    each axis by its norm, so every rotation and partial product is unit to
    rounding.  The last factor met at even and at odd positions keeps its
    rotation, and a factor that is the same object reuses it, so a chain
    that repeats a shared two-factor block computes each distinct factor's
    rotation once.  Each axis is admitted by ``unit_axis`` once, on its
    first use, so an axis that no factor uses is never checked.
    """
    axes: list = [None, None]
    f_even = f_odd = r_even = r_odd = None
    at_odd = False
    w, x, y, z = IDENTITY.components()
    for f in factors:
        if at_odd:
            if f is not f_odd:
                f_odd, r_odd = f, _rotation(f, axes, axis_m, axis_n, tol)
            c, bx, by, bz = r_odd
        else:
            if f is not f_even:
                f_even, r_even = f, _rotation(f, axes, axis_m, axis_n, tol)
            c, bx, by, bz = r_even
        at_odd = not at_odd
        # core.compose(acc, rot) inlined: keep it in step with core,
        # operation for operation, or the products stop being bit-identical
        # to the fold.
        w, x, y, z = (w * c - x * bx - y * by - z * bz,
                      w * bx + c * x - (y * bz - z * by),
                      w * by + c * y - (z * bx - x * bz),
                      w * bz + c * z - (x * by - y * bx))
    return Su2Element(w, x, y, z)


def _rotation(f: Factor, axes: list, axis_m, axis_n,
              tol: Tolerances) -> tuple[float, float, float, float]:
    """``core.rot`` of one factor as ``(c, bx, by, bz)``, operation for
    operation; ``axes`` holds each axis once ``unit_axis`` has passed it."""
    label, angle = f
    k = 0 if label is AxisLabel.M else 1
    v = axes[k]
    if v is None:
        v = axes[k] = unit_axis(axis_m if k == 0 else axis_n, tol).tolist()
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    return c, -v[0] * s, -v[1] * s, -v[2] * s


def decompose_odd(u: Su2Element, pair: AxisPair) -> Decomposition:
    """Odd-length sequence m, n, m, ..., m realising ``u`` about the pair.

    Length is the odd rule on ``d(D m, m)``, the middle Euler angle
    ``beta``: ``2*ceil(beta/(2*delta)) + 1``; a vanishing middle angle
    gives the single bare m-rotation.
    """
    d = _deciding_distances(u, pair)[0]
    chain = _odd_chain(u, pair, m_odd_count(d, pair.delta))
    return _finish(chain, u, pair, "odd", pair.m, pair.n)


def decompose_even(u: Su2Element, pair: AxisPair) -> Decomposition:
    """Even-length sequence n, m, ..., n, m realising ``u`` about the pair.

    Shifts the target by ``rot(l, -delta)`` to obtain the auxiliary triple
    (alpha', beta', gamma'); when ``beta'`` reaches the gap the leading
    m-angle is zeroed and the two leading n-rotations merge, giving
    ``2*ceil(beta'/(2*delta) + 1/2)`` factors, else four.  The merge pins
    the first slab to a full ``2*delta``, whose triple ``(0, pi, pi)`` has
    the zero m-angle it needs.  Count and merge are read from ``d(D m, n)``,
    which is ``beta'``.
    """
    d = _deciding_distances(u, pair)[1]
    chain = _even_chain(u, pair, even_count(d, pair.delta), reaches_gap(d, pair.delta))
    return _finish(chain, u, pair, "even-mn", pair.m, pair.n)


def decompose_even_reversed(u: Su2Element, pair: AxisPair) -> Decomposition:
    """Even-length sequence m, n, ..., m, n realising ``u``.

    Decomposes the inverse target, then reverses the list and negates every
    angle; the factor count becomes the even minimum for the opposite axis
    order, read from ``d(D n, m)``.
    """
    d = _deciding_distances(u, pair)[2]
    chain = _even_chain(inverse(u), pair, even_count(d, pair.delta),
                        reaches_gap(d, pair.delta))
    return _finish(chain, u, pair, "even-nm", pair.m, pair.n, reverse=True)


def decompose_min(u: Su2Element, m_raw, n_raw,
                  tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Optimal factor sequence for ``u`` about the caller's raw axes.

    Builds the analysed parity's one closed-form chain of the analysed
    count (each slab has a single solution), then maps factor labels and
    angle signs back from the normalized governing axes to the axes as
    given.  ``tol`` admits the target and the axes and reads nothing else;
    the result's ``target``, ``axis_m`` and ``axis_n`` are the admitted
    ones, divided by their norms.  The factors are replayed once about the
    axes, and the analysis is returned as ``report``.
    """
    return _decompose(analyze(u, m_raw, n_raw, tol))


def _decompose(analysis: Analysis) -> Decomposition:
    """:func:`decompose_min` of an analysis."""
    u = analysis.target
    report = analysis.report
    parity = report.chosen_parity
    pair = analysis.pair
    governing = analysis.governing
    if parity == "odd":
        chain = _odd_chain(u, governing, report.n_min)
    else:
        source = inverse(u) if parity == "even-nm" else u
        chain = _even_chain(source, governing, report.n_min,
                            reaches_gap(analysis.distance, governing.delta))
    return _finish(chain, u, pair, parity, -pair.m if pair.m_flipped else pair.m,
                   pair.n, reverse=parity == "even-nm", swapped=governing.swapped,
                   m_flipped=pair.m_flipped, report=report)


def verify_decomposition(d: Decomposition, tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Replay a decomposition once and report structural diagnostics.

    A factor that is the very object two places back has that factor's
    angle, and its label differs from its predecessor's exactly when the
    predecessor's differs from that factor's; so the label and window
    checks read only the other factors, of which a run-length chain has a
    handful.
    """
    factors = d.factors
    prod = replay_factors(factors, d.axis_m, d.axis_n, tol)
    residual = quat_distance(prod, d.target)
    fresh = itertools.chain(
        range(min(2, len(factors))),
        itertools.compress(itertools.count(2), map(is_not, factors[2:], factors)))
    alternates = in_window = True
    for i in fresh:
        label, angle = factors[i]
        alternates = alternates and (i == 0 or factors[i - 1].label is not label)
        in_window = in_window and -2.0 * math.pi < angle <= 2.0 * math.pi + DECISION_WINDOW
    nonempty = len(factors) >= 1
    ok = alternates and in_window and nonempty and residual <= tol.recon
    return VerificationReport(product=prod, residual=residual, alternates=alternates,
                              angles_in_window=in_window, nonempty=nonempty,
                              ok=ok)
