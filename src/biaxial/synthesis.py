"""Explicit optimal factor sequences alternating between two fixed axes.

The middle Euler angle of the target (or of a shifted target, for even
factor counts) is split into slabs of at most twice the axis gap; each slab
is realised by one m-n-m triple with angles in closed form.  Chaining the
triples and merging adjacent same-axis rotations yields sequences whose
length meets the closed-form minimum from :mod:`biaxial.counting`.

Each construction first produces the raw angles of its chain.  Reversal,
relabelling for the caller's axes, trimming and angle reduction are then
applied to those angles, and the final list is replayed once (twice only
when the first product lands on the other lift of the target), so one
``decompose_min`` call costs one pass over a chain of about ``pi/delta``
factors.

Factor lists are stored in product order: ``factors[0]`` is the leftmost
factor, i.e. the last one applied.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .counting import AxisPair, CountReport, analyze, ceil_snapped
from .core import (
    IDENTITY,
    Frame,
    Su2Element,
    compose,
    generalized_euler,
    inverse,
    negate,
    normalize_angle,
    quat_distance,
    rot,
    unit_axis,
)
from .errors import InfeasibleSlabError, InvalidSlabError

__all__ = [
    "AxisLabel",
    "Branch",
    "Factor",
    "SynthesisPlan",
    "Decomposition",
    "VerificationReport",
    "h_param",
    "solve_triple",
    "plan_odd",
    "decompose_odd",
    "decompose_even",
    "decompose_even_reversed",
    "decompose_min",
    "verify_decomposition",
    "replay_factors",
    "normalized_factors",
]


class AxisLabel(enum.Enum):
    M = "m"
    N = "n"

    @property
    def other(self) -> "AxisLabel":
        return AxisLabel.N if self is AxisLabel.M else AxisLabel.M


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Factor:
    """One rotation in a sequence: an axis tag and an angle in (-2*pi, 2*pi]."""

    label: AxisLabel
    angle: float


@dataclass(frozen=True)
class SynthesisPlan:
    """Slab schedule realising a middle angle as a chain of axis triples."""

    parity: str
    slabs: tuple[float, ...]
    t_params: tuple[float, ...]
    branches: tuple[Branch, ...]


class TripleSolution(NamedTuple):
    alpha: float
    gamma: float
    theta: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    """An ordered factor product realising ``target`` about two axes.

    ``axis_m`` and ``axis_n`` are the vectors the factor labels refer to;
    replaying the factors left to right (last applied first) reproduces the
    target with exact quaternion sign up to ``residual``.  ``parity`` is
    stated in the governing (normalized) axis order; when the pair was
    swapped the caller-visible label order is reversed.  ``report`` is the
    analysis :func:`decompose_min` ran; the per-parity constructions run none.
    """

    factors: tuple[Factor, ...]
    target: Su2Element
    axis_m: np.ndarray
    axis_n: np.ndarray
    pair: AxisPair
    parity: str
    residual: float
    plan: SynthesisPlan | None = None
    beta_prime: float | None = None
    report: CountReport | None = None

    @property
    def count(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    alternates: bool
    angles_in_window: bool
    nonempty: bool
    ok: bool


def h_param(beta_tilde: float, delta: float, t: float,
            tol: Tolerances = DEFAULT_TOL) -> float:
    """Free-parameter family for the slab triple angles.

    Zero when the slab is strictly interior at a right-angle gap, the free
    value ``t`` at the fully degenerate corner, and
    ``arcsin(tan(beta_tilde/2) / tan(delta))`` otherwise.
    """
    if not (0.0 < delta <= 0.5 * math.pi + tol.angle):
        raise InvalidSlabError(f"axis gap {delta!r} outside (0, pi/2]")
    if beta_tilde < -tol.angle or beta_tilde > 2.0 * delta + 2.0 * tol.angle:
        raise InvalidSlabError(
            f"slab {beta_tilde!r} outside [0, 2*delta] for delta {delta!r}")
    if abs(delta - 0.5 * math.pi) <= tol.angle:
        if 0.5 * beta_tilde < delta - tol.angle:
            return 0.0
        return t
    ratio = math.tan(0.5 * beta_tilde) / math.tan(delta)
    return math.asin(min(1.0, max(-1.0, ratio)))


def solve_triple(beta_j: float, delta: float, t: float = 0.0,
                 branch: Branch = Branch.PLUS,
                 tol: Tolerances = DEFAULT_TOL) -> TripleSolution:
    """Angles (alpha_j, gamma_j, theta_j) realising one slab:

        rot(l, beta_j) = rot(m, -alpha_j) * rot(n, theta_j) * rot(m, -gamma_j)

    for orthogonal l, m and ``n = sin(delta) l x m + cos(delta) m``.  The two
    branches are distinct closed-form solution families.
    """
    if beta_j > 2.0 * delta + tol.angle:
        raise InfeasibleSlabError(
            f"slab {beta_j!r} exceeds twice the axis gap {delta!r}")
    if beta_j < -tol.angle:
        raise InfeasibleSlabError(f"slab {beta_j!r} is negative")
    h = h_param(min(beta_j, 2.0 * delta), delta, t, tol)
    s = 2.0 * math.asin(min(1.0, max(-1.0, math.sin(0.5 * beta_j) / math.sin(delta))))
    if branch is Branch.PLUS:
        return TripleSolution(h - 0.5 * math.pi, h + 0.5 * math.pi, s)
    return TripleSolution(-h + 0.5 * math.pi, -h + 1.5 * math.pi, 2.0 * math.pi - s)


def _slab_schedule(total: float, delta: float, k: int) -> tuple[float, ...]:
    """k slabs of 2*delta except a trailing remainder, clipped into (0, 2*delta].

    A remainder within 1e-12 of a full slab is snapped onto it: the slab
    angle solutions degrade like sqrt of the distance to the full-slab
    boundary, so a one-ulp shortfall would otherwise cost ~1e-8 of
    reconstruction accuracy while the snap costs at most 5e-13.
    """
    if k <= 0:
        return ()
    full = 2.0 * delta
    remainder = total - full * (k - 1)
    if remainder >= full or abs(remainder - full) <= 1e-12:
        remainder = full
    return (full,) * (k - 1) + (remainder,)


def plan_odd(beta: float, delta: float, tol: Tolerances = DEFAULT_TOL) -> SynthesisPlan:
    """Slab schedule for the odd construction; empty when beta vanishes.

    Uses ``k = ceil(beta/(2*delta))`` slabs, all but the last equal to
    ``2*delta``.
    """
    k = ceil_snapped(beta / (2.0 * delta), tol.ceil)
    slabs = _slab_schedule(beta, delta, k)
    return SynthesisPlan(parity="odd", slabs=slabs,
                         t_params=(0.0,) * k, branches=(Branch.PLUS,) * k)


def _plan_even(beta_prime: float, delta: float,
               tol: Tolerances = DEFAULT_TOL) -> tuple[SynthesisPlan, bool]:
    """Slab schedule for ``beta_prime + delta`` plus a merge flag.

    When the auxiliary angle reaches the gap, the first slab is pinned to
    ``2*delta`` with free parameter pi/2, which zeroes the leading m-angle so
    the two leading n-rotations merge into one (2k factors total).  Otherwise
    a single unmerged slab yields the four-factor fallback.
    """
    if beta_prime >= delta - tol.angle:
        k = ceil_snapped(beta_prime / (2.0 * delta) + 0.5, tol.ceil)
        if k <= 1:
            slabs: tuple[float, ...] = (2.0 * delta,)
            k = 1
        else:
            slabs = (2.0 * delta,) + _slab_schedule(
                beta_prime + delta - 2.0 * delta, delta, k - 1)
        t_params = (0.5 * math.pi,) + (0.0,) * (k - 1)
        return (SynthesisPlan(parity="even-mn", slabs=slabs, t_params=t_params,
                              branches=(Branch.PLUS,) * k), True)
    plan = SynthesisPlan(parity="even-mn", slabs=(beta_prime + delta,),
                         t_params=(0.0,), branches=(Branch.PLUS,))
    return plan, False


def _with_overrides(plan: SynthesisPlan, t_params: Sequence[float] | None,
                    branch: Branch | None) -> SynthesisPlan:
    if t_params is not None:
        padded = tuple(t_params)[: len(plan.slabs)]
        padded += plan.t_params[len(padded):]
        plan = replace(plan, t_params=padded)
    if branch is not None:
        plan = replace(plan, branches=(branch,) * len(plan.slabs))
    return plan


class _Chain(NamedTuple):
    """Raw angles of one construction in the governing frame.

    Labels alternate starting with ``first``; angles are not yet reduced
    into the reporting interval.
    """

    first: AxisLabel
    angles: list[float]
    plan: SynthesisPlan
    beta_prime: float | None


def _solve_slabs(plan: SynthesisPlan, delta: float,
                 tol: Tolerances) -> list[TripleSolution]:
    """Triples for every slab of a plan, solving each distinct slab once.

    All full slabs share one ``(2*delta, t, branch)`` key and
    :func:`solve_triple` is pure, so a chain of any length needs at most a
    few solves.
    """
    solved: dict[tuple[float, float, Branch], TripleSolution] = {}
    trips = []
    for key in zip(plan.slabs, plan.t_params, plan.branches):
        trip = solved.get(key)
        if trip is None:
            trip = solved[key] = solve_triple(key[0], delta, key[1], key[2], tol)
        trips.append(trip)
    return trips


def _odd_chain(u: Su2Element, pair: AxisPair, frame: Frame,
               t_params: Sequence[float] | None, branch: Branch | None,
               tol: Tolerances) -> _Chain:
    """Raw angles of the odd construction m, n, m, ..., m."""
    delta = pair.delta
    alpha, beta, gamma = generalized_euler(u, frame, tol)
    plan = _with_overrides(plan_odd(beta, delta, tol), t_params, branch)
    if not plan.slabs:
        return _Chain(AxisLabel.M, [alpha + gamma], plan, None)
    trips = _solve_slabs(plan, delta, tol)
    angles = [alpha - trips[0].alpha]
    for trip, nxt in zip(trips, trips[1:]):
        angles.append(trip.theta)
        angles.append(-trip.gamma - nxt.alpha)
    angles.append(trips[-1].theta)
    angles.append(-trips[-1].gamma + gamma)
    return _Chain(AxisLabel.M, angles, plan, None)


def _even_chain(u: Su2Element, pair: AxisPair, frame: Frame,
                t_params: Sequence[float] | None, branch: Branch | None,
                tol: Tolerances) -> _Chain:
    """Raw angles of the even construction n, m, ..., n, m."""
    delta = pair.delta
    shifted = compose(rot(pair.l, -delta, tol), u, tol)
    ap, bp, gp = generalized_euler(shifted, frame, tol)
    plan, merged = _plan_even(bp, delta, tol)
    plan = _with_overrides(plan, t_params, branch)
    if merged:
        plan = replace(plan, t_params=(0.5 * math.pi,) + plan.t_params[1:])
    trips = _solve_slabs(plan, delta, tol)
    if merged:
        angles = [ap + trips[0].theta]
        for prev, trip in zip(trips, trips[1:]):
            angles.append(-prev.gamma - trip.alpha)
            angles.append(trip.theta)
        angles.append(-trips[-1].gamma + gp)
    else:
        trip = trips[0]
        angles = [ap, -trip.alpha, trip.theta, -trip.gamma + gp]
    return _Chain(AxisLabel.N, angles, plan, bp)


def _finish(chain: _Chain, u: Su2Element, pair: AxisPair, parity: str,
            axis_m: np.ndarray, axis_n: np.ndarray, tol: Tolerances, *,
            reverse: bool = False, swapped: bool = False,
            m_flipped: bool = False, trim: bool = False,
            report: CountReport | None = None) -> Decomposition:
    """Turn a raw chain into the reported factors and replay them.

    The chain goes through these angle transforms in order: reduce into
    ``(-2*pi, 2*pi]``; with ``reverse``, reverse the list and negate every
    angle (a chain for ``inverse(u)`` becomes one for ``u``); with
    ``swapped``, exchange the labels; with ``m_flipped``, negate the
    m-angles (a rotation about -m by theta is one about m by -theta); with
    ``trim``, drop zero-angle ends; reduce again.  The result is replayed
    once about ``axis_m`` and ``axis_n``.  Only if the product lands on the
    other lift of ``u`` does the chain's first factor gain 2*pi, which flips
    the product's sign exactly, and the transforms and the replay run again.
    """
    reduced = [normalize_angle(a) for a in chain.angles]
    for lift_flip in (False, True):
        angles = list(reduced)
        if lift_flip:
            angles[0] = normalize_angle(angles[0] + 2.0 * math.pi)
        first = chain.first
        if reverse:
            if len(angles) % 2 == 0:
                first = first.other
            angles = [-a for a in reversed(angles)]
        if swapped:
            first = first.other
        if m_flipped:
            start = 0 if first is AxisLabel.M else 1
            angles[start::2] = [-a for a in angles[start::2]]
        if trim:
            lo, hi = 0, len(angles)
            while lo < hi and abs(angles[lo]) <= tol.angle:
                lo += 1
            while hi > lo and abs(angles[hi - 1]) <= tol.angle:
                hi -= 1
            if lo % 2:
                first = first.other
            angles = angles[lo:hi]
        labels = (first, first.other)
        factors = tuple([Factor(labels[i & 1], normalize_angle(a))
                         for i, a in enumerate(angles)])
        prod = replay_factors(factors, axis_m, axis_n, tol)
        residual = quat_distance(prod, u)
        if lift_flip or not quat_distance(negate(prod), u) < residual:
            break
    return Decomposition(factors=factors, target=u, axis_m=axis_m,
                         axis_n=axis_n, pair=pair, parity=parity,
                         residual=residual, plan=chain.plan,
                         beta_prime=chain.beta_prime, report=report)


def replay_factors(factors: Sequence[Factor], axis_m, axis_n,
                   tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """Product of the factors in list order (applied right to left).

    Bit-identical to the left fold ``acc = compose(acc, rot(axis, f.angle,
    tol), tol)`` from ``IDENTITY``: the same arithmetic in the same order,
    with the same renormalisation rule, inlined on Python floats.  Each axis
    is validated by ``unit_axis`` once, on its first use, so an axis that no
    factor uses is never checked.
    """
    renorm = 0.5 * tol.norm
    m_axis = n_axis = None
    w, x, y, z = IDENTITY.components()
    for f in factors:
        if f.label is AxisLabel.M:
            if m_axis is None:
                m_axis = unit_axis(axis_m, tol).tolist()
            vx, vy, vz = m_axis
        else:
            if n_axis is None:
                n_axis = unit_axis(axis_n, tol).tolist()
            vx, vy, vz = n_axis
        # core.rot, then core.compose(acc, rot) inlined: keep both in step
        # with core, operation for operation, or the products stop being
        # bit-identical to the fold.
        half = 0.5 * f.angle
        c, s = math.cos(half), math.sin(half)
        bx, by, bz = -vx * s, -vy * s, -vz * s
        w, x, y, z = (w * c - x * bx - y * by - z * bz,
                      w * bx + c * x - (y * bz - z * by),
                      w * by + c * y - (z * bx - x * bz),
                      w * bz + c * z - (x * by - y * bx))
        n = w * w + x * x + y * y + z * z
        if abs(n - 1.0) > renorm:
            inv = 1.0 / math.sqrt(n)
            w, x, y, z = w * inv, x * inv, y * inv, z * inv
    return Su2Element(w, x, y, z)


def decompose_odd(u: Su2Element, pair: AxisPair,
                  t_params: Sequence[float] | None = None,
                  branch: Branch | None = None,
                  tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Odd-length sequence m, n, m, ..., m realising ``u`` about the pair.

    Length is ``2*ceil(beta/(2*delta)) + 1``; a vanishing middle angle gives
    the single bare m-rotation.
    """
    chain = _odd_chain(u, pair, pair.frame(tol), t_params, branch, tol)
    return _finish(chain, u, pair, "odd", pair.m, pair.n, tol)


def decompose_even(u: Su2Element, pair: AxisPair,
                   t_params: Sequence[float] | None = None,
                   branch: Branch | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Even-length sequence n, m, ..., n, m realising ``u`` about the pair.

    Shifts the target by ``rot(l, -delta)`` to obtain the auxiliary triple
    (alpha', beta', gamma'); when ``beta'`` reaches the gap the leading
    m-angle is zeroed and the two leading n-rotations merge, giving
    ``2*ceil(beta'/(2*delta) + 1/2)`` factors, else four.  The first slab's
    free parameter is pinned to pi/2 (the merge needs it); ``t_params``
    overrides apply to the remaining slabs.
    """
    chain = _even_chain(u, pair, pair.frame(tol), t_params, branch, tol)
    return _finish(chain, u, pair, "even-mn", pair.m, pair.n, tol)


def decompose_even_reversed(u: Su2Element, pair: AxisPair,
                            t_params: Sequence[float] | None = None,
                            branch: Branch | None = None,
                            tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Even-length sequence m, n, ..., m, n realising ``u``.

    Decomposes the inverse target, then reverses the list and negates every
    angle; the factor count becomes the even minimum for the opposite axis
    order.
    """
    chain = _even_chain(inverse(u), pair, pair.frame(tol), t_params, branch, tol)
    return _finish(chain, u, pair, "even-nm", pair.m, pair.n, tol, reverse=True)


def decompose_min(u: Su2Element, m_raw, n_raw,
                  t_params: Sequence[float] | None = None,
                  branch: Branch | None = None,
                  trim: bool = False,
                  tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Optimal factor sequence for ``u`` about the caller's raw axes.

    Dispatches on the parity chosen by the count formulas, then maps factor
    labels and angle signs back from the normalized governing axes to the
    axes as given.  With ``trim`` set, zero-angle factors at the ends are
    elided, which may undercut the formal count.  The factors are replayed
    once (twice when the first replay lands on the other lift), and the
    analysis is returned as ``report``.
    """
    analysis = analyze(u, m_raw, n_raw, tol)
    parity = analysis.report.chosen_parity
    governing = analysis.governing
    build = _odd_chain if parity == "odd" else _even_chain
    source = inverse(u) if parity == "even-nm" else u
    chain = build(source, governing, analysis.frame, t_params, branch, tol)
    return _finish(chain, u, analysis.pair, parity,
                   np.asarray(m_raw, dtype=float), np.asarray(n_raw, dtype=float),
                   tol, reverse=parity == "even-nm", swapped=governing.swapped,
                   m_flipped=analysis.pair.m_flipped, trim=trim,
                   report=analysis.report)


def normalized_factors(d: Decomposition, tol: Tolerances = DEFAULT_TOL) -> tuple[Factor, ...]:
    """Re-express factors relative to the normalized pair axes.

    A factor about a sign-flipped axis keeps its label with the angle
    negated, so the returned list refers to ``d.pair.m`` and ``d.pair.n``.
    """
    out = []
    for f in d.factors:
        axis = d.axis_m if f.label is AxisLabel.M else d.axis_n
        pair_axis = d.pair.m if f.label is AxisLabel.M else d.pair.n
        if float(np.dot(axis, pair_axis)) >= 0.0:
            out.append(f)
        else:
            out.append(Factor(f.label, -f.angle))
    return tuple(out)


def verify_decomposition(d: Decomposition, tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Replay a decomposition and report structural diagnostics."""
    if d.factors:
        prod = replay_factors(d.factors, d.axis_m, d.axis_n, tol)
        residual = quat_distance(prod, d.target)
    else:
        residual = quat_distance(IDENTITY, d.target)
    alternates = all(a.label is not b.label
                     for a, b in zip(d.factors, d.factors[1:]))
    in_window = all(-2.0 * math.pi < f.angle <= 2.0 * math.pi + tol.angle
                    for f in d.factors)
    nonempty = len(d.factors) >= 1
    ok = alternates and in_window and nonempty and residual <= tol.recon
    return VerificationReport(residual=residual, alternates=alternates,
                              angles_in_window=in_window, nonempty=nonempty,
                              ok=ok)
