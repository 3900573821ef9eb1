"""Shared test utilities: an independent 2x2 complex-matrix oracle and
randomized instance generators.

The matrix oracle never touches the quaternion code paths, so equalities
checked through it are independent of the implementation under test.
"""

from __future__ import annotations

import math

import numpy as np

import biaxial.cli
import biaxial.core
import biaxial.counting
import biaxial.oracle
import biaxial.serialization
import biaxial.synthesis
from biaxial import (
    DEFAULT_TOL,
    AxisLabel,
    AxisPair,
    Factor,
    PatternSpec,
    Su2Element,
    compose,
    f_angle,
    g_count,
    generalized_euler,
    geodesic_bound_check,
    inverse,
    m_odd_count,
    negate,
    normalize_angle,
    overlap_b,
    quat_distance,
    replay_factors,
    rot,
    verify_decomposition,
)
from biaxial.counting import analyze, even_count, reaches_gap
from biaxial.oracle import SearchResult

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


def euler_route_counts(u: Su2Element, m, n, tol=DEFAULT_TOL):
    """Reference count through the generalized Euler triple.

    The governing axis is the one with the larger overlap (ties keep the
    caller's order); the counts are the paper's closed forms
    ``m_odd_count(beta)``, ``g_count(alpha, beta)`` and
    ``g_count(gamma, -beta)`` of the triple in that pair's frame.  Returns
    ``(n_min, m_odd, m_even_mn, m_even_nm, chosen_parity, swapped)``.
    """
    pair = AxisPair.from_axes(m, n, tol)
    governing = pair
    if overlap_b(pair.m, u) < overlap_b(pair.n, u):
        governing = pair.swap()
    alpha, beta, gamma = generalized_euler(u, governing)
    delta = governing.delta
    counts = (m_odd_count(beta, delta), g_count(alpha, beta, delta),
              g_count(gamma, -beta, delta))
    chosen = counts.index(min(counts))
    parity = ("odd", "even-mn", "even-nm")[chosen]
    return (counts[chosen], *counts, parity, governing.swapped)


def _frac_distance(x: float) -> float:
    return abs(x - round(x))


def boundary_margin(u: Su2Element, m, n) -> float:
    """Distance of an instance from every integer-count branch boundary.

    Instances sitting on a boundary are legitimately ambiguous at floating
    point and would make infeasibility searches flap, so randomized corpora
    resample when this margin is small.
    """
    result = analyze(u, m, n)
    alpha, beta, gamma = generalized_euler(u, result.governing)
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
    alpha, beta, gamma = generalized_euler(u, pair)
    delta = pair.delta
    f_mn = f_angle(alpha, beta, delta)
    margins = [
        _frac_distance(beta / (2.0 * delta)),
        _frac_distance((f_mn + delta) / (2.0 * delta)),
        abs(f_mn - delta),
    ]
    return min(margins)


def count_analyze_calls(monkeypatch) -> list:
    """Record every analysis: each ``counting._analyze_pair`` call (which
    ``analyze`` makes after admission), wherever the library binds it.

    Returns the list that grows by one entry per call.
    """
    calls = []
    analyze_fn = biaxial.counting._analyze_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return analyze_fn(*args, **kwargs)

    for module in (biaxial.counting, biaxial.cli):
        monkeypatch.setattr(module, "_analyze_pair", counted)
    return calls


def count_from_axes_calls(monkeypatch) -> list:
    """Record every ``AxisPair.from_axes`` call (the axes' admission).

    Returns the list that grows by one entry per call.
    """
    calls = []
    from_axes = biaxial.counting.AxisPair.from_axes

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return from_axes(*args, **kwargs)

    monkeypatch.setattr(biaxial.counting.AxisPair, "from_axes", classmethod(counted))
    return calls


def count_admit_calls(monkeypatch) -> list:
    """Record every ``core._admit_unit`` call (the unit rule), wherever the
    library binds it.

    Returns the list that grows by one entry per call.
    """
    calls = []
    admit_fn = biaxial.core._admit_unit

    def counted(*args, **kwargs):
        calls.append(1)
        return admit_fn(*args, **kwargs)

    for module in (biaxial.core, biaxial.counting, biaxial.synthesis, biaxial.oracle,
                   biaxial.serialization, biaxial.cli):
        if hasattr(module, "_admit_unit"):
            monkeypatch.setattr(module, "_admit_unit", counted)
    return calls


def count_replay_calls(monkeypatch) -> list:
    """Record every ``synthesis.replay_factors`` call, wherever the library
    binds it.

    Returns the list that grows by one entry per call.
    """
    calls = []
    replay_fn = biaxial.synthesis.replay_factors

    def counted(*args, **kwargs):
        calls.append(1)
        return replay_fn(*args, **kwargs)

    for module in (biaxial.synthesis, biaxial.oracle, biaxial.cli):
        if hasattr(module, "replay_factors"):
            monkeypatch.setattr(module, "replay_factors", counted)
    return calls


def bounds_of(dec):
    """Geodesic bound report of a decomposition's replayed product against
    its own pattern."""
    product = verify_decomposition(dec).product
    return geodesic_bound_check(product, dec.pair,
                                PatternSpec(dec.count, dec.factors[-1].label))


def slab_schedule(total: float, delta: float, k: int) -> tuple[float, ...]:
    """k slabs of 2*delta except a trailing remainder, clipped into (0, 2*delta].

    A remainder within 1e-12 of a full slab is snapped onto it.  This is
    the whole slab plan the run-length chains replaced, kept here so the
    reference chain does not read the code under test.
    """
    if k <= 0:
        return ()
    full = 2.0 * delta
    remainder = total - full * (k - 1)
    if remainder >= full or abs(remainder - full) <= 1e-12:
        remainder = full
    return (full,) * (k - 1) + (remainder,)


def plan_odd(beta: float, delta: float, count: int) -> tuple[float, ...]:
    """The ``(count - 1) / 2`` slabs of an odd chain, all but the last
    ``2*delta``."""
    return slab_schedule(beta, delta, (count - 1) // 2)


def plan_even(beta_prime: float, delta: float, count: int,
              merged: bool) -> tuple[float, ...]:
    """Slabs of ``beta_prime + delta`` for an even chain of ``count``.

    A merged chain has ``count / 2`` slabs, the first pinned to
    ``2*delta``; an unmerged chain is the four-factor fallback: one slab.
    """
    if merged:
        return (2.0 * delta,) + slab_schedule(
            beta_prime + delta - 2.0 * delta, delta, count // 2 - 1)
    return (beta_prime + delta,)


def reference_chain(u: Su2Element, pair, parity: str, count: int | None = None,
                    merged: bool | None = None):
    """Raw chain of one construction, spelled out slab by slab.

    Plans the slabs with :func:`plan_odd` or :func:`plan_even` and solves
    every slab with its own ``solve_triple`` call (looked up on the module,
    so a patched solver is used here too), the pinned slab included: its
    ``2*delta`` gives ``h = arcsin(1) = pi/2``, the zero m-angle the merge
    needs.  ``count`` and ``merged`` default to the rule on
    the chain's own Euler angle, as in the per-parity constructions.
    Returns ``(first label, angles, slabs, beta_prime)``; the angles are
    not yet reduced.
    """
    solve = biaxial.synthesis.solve_triple
    delta = pair.delta
    if parity == "odd":
        alpha, beta, gamma = generalized_euler(u, pair)
        if count is None:
            count = m_odd_count(beta, delta)
        slabs = plan_odd(beta, delta, count)
        if not slabs:
            return AxisLabel.M, [alpha + gamma], slabs, None
        trips = [solve(s, delta) for s in slabs]
        angles = [alpha - trips[0].alpha]
        for trip, nxt in zip(trips, trips[1:]):
            angles += [trip.theta, -trip.gamma - nxt.alpha]
        angles += [trips[-1].theta, -trips[-1].gamma + gamma]
        return AxisLabel.M, angles, slabs, None
    source = inverse(u) if parity == "even-nm" else u
    shifted = compose(rot(pair.l, -delta), source)
    ap, bp, gp = generalized_euler(shifted, pair)
    if count is None:
        count = even_count(bp, delta)
    if merged is None:
        merged = reaches_gap(bp, delta)
    slabs = plan_even(bp, delta, count, merged)
    if not merged:
        trip = solve(slabs[0], delta)
        return AxisLabel.N, [ap, -trip.alpha, trip.theta, -trip.gamma + gp], slabs, bp
    trips = [solve(s, delta) for s in slabs]
    angles = [ap + trips[0].theta]
    for prev, trip in zip(trips, trips[1:]):
        angles += [-prev.gamma - trip.alpha, trip.theta]
    angles.append(-trips[-1].gamma + gp)
    return AxisLabel.N, angles, slabs, bp


def reference_factors(chain, u: Su2Element, axis_m, axis_n, *, reverse=False,
                      swapped=False, m_flipped=False, tol=DEFAULT_TOL):
    """Reported factors of a :func:`reference_chain`, one angle at a time.

    Reduces every angle, reverses and negates the list, exchanges the
    labels, negates the m-angles and reduces again, in that order and each
    step only when asked; every factor is its own ``Factor``.  When the
    product lands nearer the other lift of ``u``, the first raw angle gains
    2*pi and the steps run again.  Returns ``(factors, residual)``.
    """
    first_label, raw, _, _ = chain
    reduced = [normalize_angle(a) for a in raw]
    for lift_flip in (False, True):
        angles = list(reduced)
        if lift_flip:
            angles[0] = normalize_angle(angles[0] + 2.0 * math.pi)
        first = first_label
        if reverse:
            if len(angles) % 2 == 0:
                first = first.other
            angles = [-a for a in reversed(angles)]
        if swapped:
            first = first.other
        if m_flipped:
            angles = [-a if (first if i % 2 == 0 else first.other) is AxisLabel.M else a
                      for i, a in enumerate(angles)]
        factors = [Factor(first if i % 2 == 0 else first.other, normalize_angle(a))
                   for i, a in enumerate(angles)]
        prod = replay_factors(factors, axis_m, axis_n, tol)
        residual = quat_distance(prod, u)
        if lift_flip or not quat_distance(negate(prod), u) < residual:
            return factors, residual


def reference_decompose_min(u: Su2Element, m, n, tol=DEFAULT_TOL):
    """``(factors, residual)`` of ``decompose_min`` from the slab-by-slab
    reference: the analysed parity's chain on the governing pair, relabelled
    for the caller's axes."""
    analysis = analyze(u, m, n, tol)
    report, governing = analysis.report, analysis.governing
    merged = reaches_gap(analysis.distance, governing.delta)
    chain = reference_chain(u, governing, report.chosen_parity, report.n_min, merged)
    return reference_factors(chain, u, np.asarray(m, dtype=float), np.asarray(n, dtype=float),
                             reverse=report.chosen_parity == "even-nm",
                             swapped=governing.swapped, m_flipped=analysis.pair.m_flipped,
                             tol=tol)


def hex_factors(factors) -> list[tuple[str, str]]:
    """Factors as ``(label, float.hex(angle))``, so that equality is bit for bit."""
    return [(f.label.value, f.angle.hex()) for f in factors]


def _qmul_cols(a, b):
    """Quaternion product on column tuples (w, x, y, z) of (S,) arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + w2 * x1 - (y1 * z2 - z1 * y2),
            w1 * y2 + w2 * y1 - (z1 * x2 - x1 * z2),
            w1 * z2 + w2 * z1 - (x1 * y2 - y1 * x2))


def _qmul_pure_right(a, v):
    """Product ``a * (0, v)`` with a constant pure quaternion on the right."""
    w1, x1, y1, z1 = a
    vx, vy, vz = v
    return (-(x1 * vx + y1 * vy + z1 * vz),
            w1 * vx - (y1 * vz - z1 * vy),
            w1 * vy - (z1 * vx - x1 * vz),
            w1 * vz - (x1 * vy - y1 * vx))


# Sweep limits of reference_search: at most _MAX_SWEEPS sweeps per start, and
# a row settles once its overlap moves by at most _SWEEP_ATOL in a sweep, two
# float spacings of h just above 1 (2.2e-16 each, 1.1e-16 below 1): at 1e-16
# rows at the float floor kept sweeping on one-ulp changes of h.
_MAX_SWEEPS = 8000
_SWEEP_ATOL = 4.5e-16


def reference_search(u: Su2Element, pair, pattern: PatternSpec,
                     starts: int = 64, seed: int = 0,
                     stop_below: float | None = None) -> SearchResult:
    """Multistart cyclic coordinate descent on the pattern-product
    residual: independent search evidence for ``numeric_search``.

    Starts are drawn uniformly from ``[-2*pi, 2*pi]^k`` by
    ``default_rng(seed)`` and swept over coordinates ``k-1 ... 0``.  Every
    coordinate update forms ``left * suffix`` and ``left * (0, p) * suffix``
    column by column, dots both with the target and sets the coordinate to
    the exact maximiser of the overlap ``a*cos + b*sin``.  A row settles
    once a sweep moves its overlap by at most ``_SWEEP_ATOL``, or by
    ``1e-4 * stop_below**2`` when that is larger, and the sweeps stop early
    once the best residual drops under ``stop_below``.  The result is an
    upper bound on the least residual, within rounding of it unless the
    sweep stalls.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    if pattern.k < 1:
        raise ValueError("pattern length must be at least 1")
    k = pattern.k
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (starts, k))
    axes = [(pair.m if lab is AxisLabel.M else pair.n) for lab in pattern.labels()]
    pure = [(-a[0], -a[1], -a[2]) for a in axes]
    c = [np.cos(0.5 * angles[:, i]) for i in range(k)]
    s = [np.sin(0.5 * angles[:, i]) for i in range(k)]
    tw, tx, ty, tz = u.w, u.x, u.y, u.z
    zero = np.zeros(starts)
    one = np.ones(starts)
    identity = (one, zero, zero, zero)

    # A row may settle once its per-sweep progress is far below the
    # precision the caller's threshold needs; without a threshold it only
    # settles at machine precision.
    settle_atol = _SWEEP_ATOL
    if stop_below is not None:
        settle_atol = max(_SWEEP_ATOL, 1e-4 * stop_below * stop_below)

    h = zero.copy()
    h_prev = np.full(starts, -1.0)
    settled = np.zeros(starts, dtype=bool)
    sweeps = 0
    row_sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        row_sweeps += int(starts - settled.sum())
        # Suffix products R[i] = V_{i-1} ... V_0 from the current angles,
        # with V_j = c_j * 1 + s_j * (0, pure_j).
        suffix = [identity]
        for i in range(1, k):
            factor = (c[i - 1],
                      s[i - 1] * pure[i - 1][0],
                      s[i - 1] * pure[i - 1][1],
                      s[i - 1] * pure[i - 1][2])
            suffix.append(_qmul_cols(factor, suffix[i - 1]))
        left = identity
        for i in range(k - 1, -1, -1):
            left_q = _qmul_pure_right(left, pure[i])
            pw, px, py, pz = _qmul_cols(left, suffix[i])
            qw, qx, qy, qz = _qmul_cols(left_q, suffix[i])
            a_coef = pw * tw + px * tx + py * ty + pz * tz
            b_coef = qw * tw + qx * tx + qy * ty + qz * tz
            h_new = np.hypot(a_coef, b_coef)
            # |a*cos + b*sin| is maximised at (cos, sin) = (a, b)/hypot.
            upd = (~settled) & (h_new > 0.0)
            safe = np.where(h_new > 0.0, h_new, 1.0)
            c[i] = np.where(upd, a_coef / safe, c[i])
            s[i] = np.where(upd, b_coef / safe, s[i])
            h = np.where(settled, h, h_new)
            left = (c[i] * left[0] + s[i] * left_q[0],
                    c[i] * left[1] + s[i] * left_q[1],
                    c[i] * left[2] + s[i] * left_q[2],
                    c[i] * left[3] + s[i] * left_q[3])
        settled |= np.abs(h - h_prev) <= settle_atol
        if settled.all():
            break
        h_prev = np.where(settled, h_prev, h)
        if stop_below is not None:
            best_now = math.sqrt(max(0.0, 2.0 * (1.0 - min(1.0, float(h.max())))))
            if best_now < stop_below:
                break

    residuals = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.minimum(1.0, h))))
    best = int(np.argmin(residuals))
    best_angles = tuple(normalize_angle(2.0 * math.atan2(float(s[i][best]),
                                                         float(c[i][best])))
                        for i in range(k))
    return SearchResult(best_residual=float(residuals[best]),
                        best_angles=best_angles,
                        evaluations=row_sweeps * k,
                        seed=seed)
