"""Independent verification of minimal counts.

Two tools: an exact check of how far an alternating product can move the
base axis on the sphere (each factor advances the geodesic position by at
most the axis gap; two factors advance it by exactly the gap), and a
multistart derivative-free search that shows, at desk scale, that no
shorter alternating product reaches the target.

The search exploits the product being linear in ``(cos(theta_i/2),
sin(theta_i/2))`` for each angle separately: every coordinate has a closed
form exact minimizer, so cyclic coordinate descent needs no line search and
all random starts sweep in lockstep as rows of one array.  Two and three
factors need no search: a two-factor overlap's maximum is the top singular
value of a 2x2 matrix, and a three-factor pattern's middle factor has a
closed-form best angle that leaves a two-factor problem for the outer pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .counting import AxisPair
from .core import Su2Element, _arc, normalize_angle, rotate_vector
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

_MAX_SWEEPS = 8000
# Two float spacings of h just above 1 (2.2e-16 each, 1.1e-16 below 1): at
# 1e-16 rows at the float floor kept sweeping on one-ulp changes of h.
_SWEEP_ATOL = 4.5e-16
# Longest pattern swept on its dense overlap tensor.  Its products have
# inner dimension 2**(k-1); from 16 up, BLAS gemm rounds a column
# differently with the number of columns, so results would depend on
# ``starts``.
_DENSE_MAX_K = 4


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
    """Best row of a :func:`numeric_search`.  ``evaluations`` counts
    coordinate updates, ``k`` per sweep of each live start; it is 2 for a
    length-2 search and 3 for a length-3 one, which set each coordinate
    once in closed form."""

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
    a = (pair.m if pattern.first_axis is AxisLabel.M else pair.n).tolist()
    b = (pair.n if pattern.first_axis is AxisLabel.M else pair.m).tolist()
    k = pattern.k
    distance = _arc(rotate_vector(u, a), a if k % 2 else b)
    bound = (k - 1) * pair.delta
    passed = (abs(distance - bound) if k == 2 else distance - bound) <= BOUND_SLACK
    return GeodesicBoundReport(length=k, distance=distance, bound=bound, passed=passed)


def _left_pure(v) -> np.ndarray:
    """Matrix ``A`` with ``(0, v) * q = A @ q`` for a (w, x, y, z) column ``q``."""
    vx, vy, vz = v
    return np.array([[0.0, -vx, -vy, -vz],
                     [vx, 0.0, vz, -vy],
                     [vy, -vz, 0.0, vx],
                     [vz, vy, -vx, 0.0]])


def _overlap_slices(target: np.ndarray, mats: list[np.ndarray]) -> list[np.ndarray]:
    """Coefficients of the overlap ``<t, V_{k-1} ... V_0>``, one slice per
    coordinate.

    The overlap is multilinear in the pairs ``x_i = (c_i, s_i)``: it is
    ``sum_b W[b] * prod_i x_i[b_i]`` over bits ``b``, where ``W[b]`` is the
    overlap of ``t`` with the product of ``1`` (bit 0) or ``-(0, axis_i)``
    (bit 1) over ``i``.  Slice ``i`` is ``W`` with ``b_i`` leading and the
    other bits flattened, highest index first, as ``(2, 2**(k-1))``.
    """
    prods = np.array([1.0, 0.0, 0.0, 0.0])
    for mat in mats:
        prods = np.stack([prods, -(prods @ mat.T)])
    w = prods @ target
    k = len(mats)
    return [np.moveaxis(w, k - 1 - i, 0).reshape(2, -1) for i in range(k)]


def _update(c_i: np.ndarray, s_i: np.ndarray, a_coef: np.ndarray, b_coef: np.ndarray,
            live: np.ndarray, h: np.ndarray) -> None:
    """Exact update of coordinate ``i`` on the live rows from the overlap
    ``a*c_i + b*s_i`` it maximises."""
    h_new = np.hypot(a_coef, b_coef)
    # |a*cos + b*sin| is maximised at (cos, sin) = (a, b)/hypot.
    upd = live & (h_new > 0.0)
    np.divide(a_coef, h_new, out=c_i, where=upd)
    np.divide(b_coef, h_new, out=s_i, where=upd)
    np.copyto(h, h_new, where=live)


def _dense_plan(slices: list[np.ndarray], x: np.ndarray) -> list[tuple]:
    """Per coordinate ``i``, in sweep order: views of ``c_i`` and ``s_i`` in
    ``x``, its slice of ``W``, the products that form the outer product of
    the other coordinates' ``x_j``, that product, and the buffer its
    ``(a, b)`` lands in with views of ``a`` and ``b``."""
    k, _, cols = x.shape
    plan = []
    for i in range(k - 1, -1, -1):
        others = [x[j] for j in range(k - 1, -1, -1) if j != i]
        steps = []
        outer = others[0] if others else np.ones((1, cols))
        for row in others[1:]:
            out = np.empty((len(outer), 2, cols))
            steps.append((outer[:, None, :], row, out))
            outer = out.reshape(-1, cols)
        ab = np.empty((2, cols))
        plan.append((x[i, 0], x[i, 1], slices[i], steps, outer, ab, ab[0], ab[1]))
    return plan


def _dense_sweep(plan: list[tuple], live: np.ndarray, h: np.ndarray) -> None:
    """One sweep ``k-1 ... 0``: coordinate ``i``'s ``(a, b)`` is its slice
    of ``W`` times the outer product of the other coordinates' ``x_j``."""
    for c_i, s_i, w_i, steps, outer, ab, a_coef, b_coef in plan:
        for left, right, out in steps:
            np.multiply(left, right, out=out)
        np.matmul(w_i, outer, out=ab)
        _update(c_i, s_i, a_coef, b_coef, live, h)


def _two_factor_optimum(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit ``x_1``, ``x_0`` maximising the two-factor overlap ``x_1^T W x_0``,
    and the maximum ``h``, ``W``'s top singular value.

    ``x_1`` is the top eigenvector of ``W W^T = [[p, r], [r, q]]``, at angle
    ``0.5*atan2(2r, p - q)``, and ``x_0 = W^T x_1 / h`` with
    ``h = |W^T x_1|``.  The four products ``W`` is taken against span the
    quaternions, so ``W`` and ``h`` are nonzero for a unit target.
    """
    (p, r), (_, q) = w @ w.T
    phi = 0.5 * math.atan2(2.0 * r, p - q)
    x1 = np.array([math.cos(phi), math.sin(phi)])
    v = x1 @ w
    h = math.hypot(v[0], v[1])
    return x1, v / h, h


def _running_sweep(mats: list[np.ndarray], target: np.ndarray, c: list[np.ndarray],
                   s: list[np.ndarray], live: np.ndarray, h: np.ndarray) -> None:
    """One sweep ``k-1 ... 0`` carrying a running target down the pattern;
    quaternions are ``(4, starts)`` arrays."""
    k = len(mats)
    # Suffix products R_i = V_{i-1} ... V_0 from the current angles.
    suffix = [np.zeros((4, len(h)))]
    suffix[0][0] = 1.0
    for i in range(k - 1):
        suffix.append(c[i] * suffix[i] - s[i] * (mats[i] @ suffix[i]))
    # Running target T = conj(V_{k-1} ... V_{i+1}) * t.  Since
    # <p*q, r> = <q, conj(p)*r>, the product's overlap with t is
    # <R_i, conj(V_i) T> = a*c_i + b*s_i with a = <R_i, T> and
    # b = <R_i, A_i T>.
    run = target[:, None]
    for i in range(k - 1, -1, -1):
        turned = mats[i] @ run
        _update(c[i], s[i], (suffix[i] * run).sum(axis=0),
                (suffix[i] * turned).sum(axis=0), live, h)
        run = c[i] * run + s[i] * turned


def _check_search(starts: int, seed: int) -> None:
    """Admit integers ``starts >= 1`` and ``seed >= 0``, for every pattern."""
    if operator.index(starts) < 1:
        raise ValueError("starts must be at least 1")
    if operator.index(seed) < 0:
        raise ValueError("seed must be at least 0")


def _search_result(pairs, h: float, evaluations: int, seed: int) -> SearchResult:
    """Result for the pairs ``(c_i, s_i)`` of a product with overlap ``h``."""
    angles = tuple(normalize_angle(2.0 * math.atan2(s_i, c_i)) for c_i, s_i in pairs)
    return SearchResult(math.sqrt(max(0.0, 2.0 * (1.0 - min(1.0, h)))), angles, evaluations, seed)


def numeric_search(u: Su2Element, pair: AxisPair, pattern: PatternSpec,
                   starts: int = 64, seed: int = 0,
                   stop_below: float | None = None) -> SearchResult:
    """Multistart minimization of the pattern-product residual.

    The residual is the quaternion distance minimized over the two lifts
    (angle windows of width 4*pi absorb the sign).  The overlap with the
    target is multilinear in the pairs ``(cos(theta_i/2), sin(theta_i/2))``.
    A two-factor overlap is ``x_1^T W x_0`` for a 2x2 slice ``W``, so a
    length-2 search returns ``W``'s top singular value in closed form
    (:func:`_two_factor_optimum`), drawing no start.  A length-3 pattern
    ``a, b, a`` needs no start either.  With the target ``t = (w, v)``
    split into its part in ``span{1, (0, a)}`` and the rest, rotations
    about ``a`` on the left and on the right turn the two parts
    independently, through the half-sum and half-difference of the outer
    angles.  So the best overlap with a middle factor ``V`` is
    ``|t_par||V_par| + |t_perp||V_perp|`` with ``|V_perp| = |s_1| sin(delta)``,
    largest at ``|s_1| = min(1, |v x a| / |a x b|)``.  The outer pair is
    then the two-factor optimum of ``x_1`` times slice 1 of the overlap
    coefficients.  Both closed forms return the same result for every
    ``starts``, ``seed`` and ``stop_below``.  They maximise the overlap
    in quaternion algebra and return a residual, never a verdict; the
    count and :func:`geodesic_bound_check` read sphere distances of the
    rotated axis, so the evidence stays independent.

    Other patterns draw starts uniformly from ``[-2*pi, 2*pi]^k`` and refine
    them by cyclic coordinate descent with exact per-coordinate updates,
    sweeping coordinates ``k-1 ... 0``.  Rows evolve independently and stop
    when their per-sweep progress dies out, so the result equals a
    sequential scan of the same start list and is nonincreasing in
    ``starts``, from ``starts = 1`` up.  When ``stop_below`` is set the
    sweep loop exits as soon as the best row's residual drops under it, and
    rows settle at coarser precision; both trades remain deterministic.
    Lengths 1 and 4, the others up to ``_DENSE_MAX_K``, sweep on the overlap's
    ``2**k`` coefficients, built once per search: an update is one product
    of the coordinate's slice with the other coordinates' outer product.
    Longer patterns carry a running target down each sweep instead, at a
    cost that grows like ``k`` rather than ``2**k``; both make the same
    updates up to rounding.  The cut-off keeps the ``starts`` claim: past 4
    factors the dense products reach inner dimension 16, where BLAS gemm
    rounds a column differently with the number of columns.  On speed
    alone the dense form would win up to 6 factors.
    """
    _check_search(starts, seed)
    if pattern.k < 1:
        raise ValueError("pattern length must be at least 1")
    k = pattern.k
    # Factor i is V_i = c_i - s_i * (0, axis_i); mats[i] is the left
    # multiplication by (0, axis_i).
    axes = [pair.m if lab is AxisLabel.M else pair.n for lab in pattern.labels()]
    mats = [_left_pure(axis) for axis in axes]
    target = np.array([u.w, u.x, u.y, u.z])
    if k == 2:
        x1, x0, h_opt = _two_factor_optimum(_overlap_slices(target, mats)[1])
        return _search_result((x0, x1), h_opt, 2, seed)
    if k == 3:
        # Pattern a, b, a: the middle factor's best |s_1| is
        # min(1, |v x a| / |a x b|), then the outer pair is a two-factor optimum.
        ax, ay, az = axes[0].tolist()
        _, vx, vy, vz = u.components()
        s1 = min(1.0, math.hypot(vy * az - vz * ay, vz * ax - vx * az, vx * ay - vy * ax)
                 / math.sin(pair.delta))
        x1 = np.array([math.sqrt(1.0 - s1 * s1), s1])
        x2, x0, h_opt = _two_factor_optimum(
            (x1 @ _overlap_slices(target, mats)[1]).reshape(2, 2))
        return _search_result((x0, x1, x2), h_opt, 3, seed)

    rng = np.random.default_rng(seed)
    angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (starts, k))
    # A single column would send the sweeps' products through BLAS gemv,
    # which rounds differently from the gemm that wider arrays take, so a
    # lone start sweeps as two identical columns.
    if starts == 1:
        angles = np.repeat(angles, 2, axis=0)
    # x[i] holds (c_i, s_i), one column per start; c[i], s[i] are its views.
    x = np.stack([np.cos(0.5 * angles.T), np.sin(0.5 * angles.T)], axis=1)
    c = list(x[:, 0])
    s = list(x[:, 1])

    # A row may settle once its per-sweep progress is far below the
    # precision the caller's threshold needs; without a threshold it only
    # settles at machine precision.
    settle_atol = _SWEEP_ATOL
    if stop_below is not None:
        settle_atol = max(_SWEEP_ATOL, 1e-4 * stop_below * stop_below)

    cols = len(angles)
    h = np.zeros(cols)
    h_prev = np.full(cols, -1.0)
    settled = np.zeros(cols, dtype=bool)
    row_sweeps = 0
    plan = _dense_plan(_overlap_slices(target, mats), x) if k <= _DENSE_MAX_K else None
    for _ in range(_MAX_SWEEPS):
        live = ~settled
        row_sweeps += int(live[:starts].sum())
        if plan is not None:
            _dense_sweep(plan, live, h)
        else:
            _running_sweep(mats, target, c, s, live, h)
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
    return _search_result([(c[i][best], s[i][best]) for i in range(k)], h[best],
                          row_sweeps * k, seed)


def minimality_certificate(u: Su2Element, m_raw, n_raw, starts: int = 64,
                           seed: int = 0,
                           tol: Tolerances = DEFAULT_TOL) -> MinimalityReport:
    """Certify the closed-form count at desk scale.

    Passes when the constructed sequence of the claimed length reproduces the
    target within ``tol.recon`` and no alternating pattern one factor
    shorter (both first-axis choices) reaches it.  A pattern reaches it when
    multistart search gets within the infeasibility residual and its
    geodesic bound check passes: near a count boundary the search gets that
    close to targets that no product of the pattern equals.  A search that
    stays above the residual is evidence, not proof.
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
