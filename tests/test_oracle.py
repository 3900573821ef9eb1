"""Geodesic bound checks and brute-force minimality search."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from biaxial import (
    AxisLabel,
    AxisPair,
    Factor,
    IDENTITY,
    InvalidRotationError,
    PatternSpec,
    compose,
    count_min,
    decompose_min,
    geodesic_bound_check,
    m_odd_count,
    minimality_certificate,
    negate,
    numeric_search,
    quat_distance,
    replay_factors,
    rot,
    Su2Element,
    worst_case_witness,
)
import biaxial.oracle as oracle
from biaxial.oracle import FEASIBLE_RESIDUAL, INFEASIBLE_RESIDUAL
from biaxial.synthesis import decompose_even, decompose_odd
from _helpers import (
    bounds_of,
    count_analyze_calls,
    random_instance,
    random_pair,
    random_su2,
    reference_search,
)

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_with_delta(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


class TestGeodesicBounds:
    def test_single_factor_bound_is_tight_at_zero(self):
        pair = AxisPair.from_axes(EZ, EX)
        report = geodesic_bound_check(rot(EZ, 1.3), pair, PatternSpec(1, AxisLabel.M))
        assert report.bound == 0.0
        assert report.distance == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_two_factor_bound(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = compose(rot(EX, math.pi), rot(EZ, -math.pi))
        report = geodesic_bound_check(u, pair, PatternSpec(2, AxisLabel.M))
        assert report.distance <= 0.5 * math.pi + 1e-9
        assert report.passed

    def test_target_fails_a_pattern_that_cannot_reach_it(self):
        # A rotation about n moves m by its angle, which one m-factor cannot.
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(pair.n, 1.0)
        report = geodesic_bound_check(u, pair, PatternSpec(1, AxisLabel.M))
        assert report.distance == pytest.approx(1.0, abs=1e-12)
        assert not report.passed
        assert geodesic_bound_check(u, pair, PatternSpec(1, AxisLabel.N)).passed

    def test_two_factor_bound_is_exact(self):
        # Two factors move m to exactly the gap from n: a target whose m lands
        # just nearer or just farther than that is reached by no two-factor
        # product, however close a search gets to it.
        pair = pair_with_delta(1.0)
        sides = set()
        for off in (1e-7, -1e-7, 3e-9, -3e-9):
            u = compose(rot(pair.n, 0.7), compose(rot(pair.l, off), rot(pair.m, -1.2)))
            report = geodesic_bound_check(u, pair, PatternSpec(2, AxisLabel.M))
            assert abs(abs(report.distance - report.bound) - abs(off)) < 1e-13
            assert not report.passed
            sides.add(report.distance > report.bound)
        assert sides == {False, True}
        u = compose(rot(pair.n, 0.7), rot(pair.m, -1.2))
        assert geodesic_bound_check(u, pair, PatternSpec(2, AxisLabel.M)).passed

    def test_holds_for_all_produced_decompositions(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            u = random_su2(rng)
            assert bounds_of(decompose_min(u, m, n)).passed
            pair = AxisPair.from_axes(m, n)
            assert bounds_of(decompose_odd(u, pair)).passed
            assert bounds_of(decompose_even(u, pair)).passed


class TestNumericSearch:
    def test_feasible_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(np.array([0.0, 1.0, 0.0]), math.pi)
        result = numeric_search(u, pair, PatternSpec(2, AxisLabel.M),
                                starts=16, seed=0, stop_below=1e-8)
        assert result.best_residual < 1e-6

    def test_infeasible_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(np.array([0.0, 1.0, 0.0]), 0.5 * math.pi)
        for first in (AxisLabel.M, AxisLabel.N):
            result = numeric_search(u, pair, PatternSpec(2, first),
                                    starts=32, seed=0)
            assert result.best_residual > 1e-3

    def test_identity_single_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        result = numeric_search(IDENTITY, pair, PatternSpec(1, AxisLabel.M),
                                starts=8, seed=0, stop_below=1e-13)
        assert result.best_residual < 1e-12
        # The objective is flat to machine precision for |theta| below ~3e-8.
        assert result.best_angles[0] % (2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        pair = AxisPair.from_axes(m, n)
        u = random_su2(rng)
        a = numeric_search(u, pair, PatternSpec(3, AxisLabel.M), starts=8, seed=7)
        b = numeric_search(u, pair, PatternSpec(3, AxisLabel.M), starts=8, seed=7)
        assert a == b

    def test_monotone_in_starts(self):
        # No length may get worse with more starts, one start included.
        rng = np.random.default_rng(42)
        for _ in range(8):
            m, n = random_pair(rng, 0.4, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            for k in range(1, 7):
                for first in (AxisLabel.M, AxisLabel.N):
                    spec = PatternSpec(k, first)
                    residuals = [numeric_search(u, pair, spec, starts=s, seed=3).best_residual
                                 for s in (1, 2, 3, 4, 8, 16, 64)]
                    assert all(a >= b for a, b in zip(residuals, residuals[1:])), (spec, residuals)

    def test_feasible_searches_settle(self):
        # Reachable targets are found without stop_below, in one closed form
        # per factor.
        rng = np.random.default_rng(7)
        for k in (2, 4):
            for _ in range(40):
                m, n = random_pair(rng, 0.5 * math.pi, 0.5 * math.pi)
                spec = PatternSpec(k, AxisLabel.M if rng.uniform() < 0.5 else AxisLabel.N)
                angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, k)
                u = replay_factors([Factor(lab, a) for lab, a in
                                    zip(reversed(spec.labels()), reversed(angles))], m, n)
                result = numeric_search(u, AxisPair.from_axes(m, n), spec, starts=8, seed=0)
                assert result.best_residual <= FEASIBLE_RESIDUAL, (spec, result)
                assert result.evaluations == k, (spec, result)

    @pytest.mark.parametrize("bad", [{"starts": 0}, {"starts": -1}, {"seed": -1}])
    def test_every_length_rejects_the_same_parameters(self, bad):
        # No length draws starts, yet every length checks starts and seed.
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(np.array([0.0, 1.0, 0.0]), 0.5 * math.pi)
        for k in (1, 2, 3, 5):
            with pytest.raises(ValueError):
                numeric_search(u, pair, PatternSpec(k, AxisLabel.M), **bad)

    def test_zero_overlap_keeps_the_starts(self):
        # (0, 1, 0, 0) is a half turn about x and orthogonal to every
        # rotation about z: D z = -z, and every angle is sqrt(2) away.
        pair = AxisPair.from_axes(EZ, EX)
        u = Su2Element(0.0, 1.0, 0.0, 0.0)
        spec = PatternSpec(1, AxisLabel.M)
        result = numeric_search(u, pair, spec, starts=8, seed=5)
        assert result.best_residual == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert math.isfinite(result.best_angles[0])
        assert replayed_residual(u, pair, spec, result.best_angles) == pytest.approx(
            result.best_residual, abs=1e-15)

    def test_matches_two_product_reference(self):
        # The closed form against the two-product sweep: same verdicts at
        # both thresholds, residuals equal to rounding.  Under
        # stop_below=1e-4 the sweep stops early on a reachable target at a
        # residual up to 1e-4, where the closed form returns the exact
        # optimum: there every length need only be no worse and agree on the
        # infeasibility verdict.
        rng = np.random.default_rng(44)
        for delta in (0.5 * math.pi, 1.0, 0.3, 2.5):
            for _ in range(2):
                m, n = random_pair(rng, delta, delta)
                pair = AxisPair.from_axes(m, n)
                u = random_su2(rng)
                for k, first, stop_below in itertools.product(
                        range(1, 7), (AxisLabel.M, AxisLabel.N),
                        (None, 1e-7, 1e-4)):
                    spec = PatternSpec(k, first)
                    got = numeric_search(u, pair, spec, starts=8, seed=k,
                                         stop_below=stop_below).best_residual
                    ref = reference_search(u, pair, spec, starts=8, seed=k,
                                           stop_below=stop_below).best_residual
                    case = (delta, spec, stop_below, got, ref)
                    if stop_below == 1e-4:
                        assert got <= ref + 1e-12, case
                    else:
                        assert abs(got - ref) <= 1e-7, case
                        assert (got <= FEASIBLE_RESIDUAL) == (ref <= FEASIBLE_RESIDUAL), case
                    assert (got <= INFEASIBLE_RESIDUAL) == (ref <= INFEASIBLE_RESIDUAL), case

    def test_odd_count_cross_check(self):
        # The odd formula's value is exactly where the m-first odd search
        # starts succeeding.
        pair = pair_with_delta(math.pi / 3)
        u = rot(pair.l, math.pi)
        k = m_odd_count(math.pi, pair.delta)
        assert k == 5
        ok = numeric_search(u, pair, PatternSpec(k, AxisLabel.M),
                            starts=32, seed=0, stop_below=1e-8)
        assert ok.best_residual < 1e-6
        short = numeric_search(u, pair, PatternSpec(k - 2, AxisLabel.M),
                               starts=32, seed=0)
        assert short.best_residual > 1e-4


class TestEveryLength:
    """Every length in closed form: the residual is the floor
    ``2*sin(dist(d, S_k)/4)`` read from the geodesic bound's distance, and
    the returned angles replay to it."""

    GAPS = (0.5 * math.pi, 1.0, 0.3, 0.05, 2.5)

    @staticmethod
    def floor(u, pair, spec) -> float:
        distance = geodesic_bound_check(u, pair, spec).distance
        k, delta = spec.k, pair.delta
        if k == 1:
            excess = distance
        elif k == 2:
            excess = abs(distance - delta)
        else:
            excess = max(0.0, distance - min(math.pi, (k - 1) * delta))
        return 2.0 * math.sin(0.25 * excess)

    @staticmethod
    def check(u, pair, spec, want: float, tol: float = 1e-12):
        result = numeric_search(u, pair, spec)
        case = (pair.delta, spec, result, want)
        assert all(math.isfinite(a) for a in result.best_angles), case
        assert result.best_residual == pytest.approx(want, abs=tol), case
        assert replayed_residual(u, pair, spec, result.best_angles) == pytest.approx(
            result.best_residual, abs=1e-12), case
        return result

    def test_matches_the_floor_and_the_reference(self):
        # m is negated at every other gap, so the pair's sign flip is read.
        rng = np.random.default_rng(54)
        for i, delta in enumerate(self.GAPS):
            m, n = random_pair(rng, delta, delta)
            pair = AxisPair.from_axes((-1.0) ** i * m, n)
            u = random_su2(rng)
            for k in range(1, 8):
                for first in (AxisLabel.M, AxisLabel.N):
                    spec = PatternSpec(k, first)
                    got = self.check(u, pair, spec, self.floor(u, pair, spec))
                    ref = reference_search(u, pair, spec, starts=4, seed=k)
                    assert got.best_residual <= ref.best_residual + 1e-12, (
                        delta, spec, got, ref)

    def test_reachable_length_four_targets_are_found(self):
        # Products of a random length-4 pattern: the 64-start sweep left 3 of
        # the 30 at gap 0.05 above FEASIBLE_RESIDUAL, the worst at 1.1e-4.
        rng = np.random.default_rng(60)
        for delta in (1.0, 0.3, 0.05):
            for _ in range(30):
                m, n = random_pair(rng, delta, delta)
                spec = PatternSpec(4, AxisLabel.M if rng.uniform() < 0.5 else AxisLabel.N)
                angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 4)
                u = replay_factors([Factor(lab, a) for lab, a in
                                    zip(reversed(spec.labels()), reversed(angles))], m, n)
                result = numeric_search(u, AxisPair.from_axes(m, n), spec)
                assert result.best_residual <= FEASIBLE_RESIDUAL, (delta, spec, angles, result)

    @staticmethod
    def onto(pair, first, turn: float) -> Su2Element:
        """A rotation ``D`` that turns the first axis ``a`` about ``l`` by
        ``turn`` toward the other axis ``b``, which it reaches at ``delta``."""
        sign = 1.0 if first is AxisLabel.M else -1.0
        a = pair.m if first is AxisLabel.M else pair.n
        return compose(rot(pair.l, sign * turn), rot(a, 0.7))

    @pytest.mark.parametrize("delta", [0.5 * math.pi, 1.0, 0.05])
    def test_image_on_the_last_axis(self, delta):
        # D a = b at k = 2: D a must be turned away from b by the whole gap
        # along some great circle.  D a = a at k = 1 and 3 needs no turn.
        pair = pair_with_delta(delta)
        for first in (AxisLabel.M, AxisLabel.N):
            self.check(self.onto(pair, first, pair.delta), pair, PatternSpec(2, first),
                       2.0 * math.sin(0.25 * pair.delta))
            for k in (1, 3):
                self.check(self.onto(pair, first, 0.0), pair, PatternSpec(k, first), 0.0)

    @pytest.mark.parametrize("delta", [0.5 * math.pi, 1.0, 0.05])
    def test_image_opposite_the_last_axis(self, delta):
        # D a = -a at k = 1 and D a = -b at k = 2: every great circle through
        # the last axis passes through the image.
        pair = pair_with_delta(delta)
        for first in (AxisLabel.M, AxisLabel.N):
            self.check(self.onto(pair, first, math.pi), pair, PatternSpec(1, first),
                       math.sqrt(2.0))
            self.check(self.onto(pair, first, math.pi + pair.delta), pair,
                       PatternSpec(2, first), 2.0 * math.sin(0.25 * (math.pi - pair.delta)))

    def test_image_on_the_last_axis_in_exact_arithmetic(self):
        # About z and x these half turns move z and x to exactly +-x, +-z, so
        # the image's cross product with the last axis is exactly zero.
        pair = AxisPair.from_axes(EZ, EX)
        h = math.sqrt(0.5)
        for first in (AxisLabel.M, AxisLabel.N):
            self.check(Su2Element(0.0, h, 0.0, h), pair, PatternSpec(2, first),
                       2.0 * math.sin(0.25 * pair.delta), tol=1e-15)
            self.check(Su2Element(0.0, h, 0.0, -h), pair, PatternSpec(2, first),
                       2.0 * math.sin(0.25 * (math.pi - pair.delta)), tol=1e-15)
            self.check(Su2Element(0.0, 0.0, 1.0, 0.0), pair, PatternSpec(1, first),
                       math.sqrt(2.0), tol=1e-15)

    @pytest.mark.parametrize("delta, k", [(0.5 * math.pi, 3), (1.0, 5), (0.3, 12)])
    def test_every_target_reachable_past_pi(self, delta, k):
        # (k-1)*delta >= pi: S_k is all of [0, pi].
        rng = np.random.default_rng(55)
        for _ in range(20):
            m, n = random_pair(rng, delta, delta)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            for first in (AxisLabel.M, AxisLabel.N):
                result = self.check(u, pair, PatternSpec(k, first), 0.0)
                assert result.best_residual <= 1e-12


def replayed_residual(u: Su2Element, pair: AxisPair, spec: PatternSpec, angles) -> float:
    """Residual of the pattern's product with ``angles`` (application order)
    about the sign-normalized pair, minimised over both lifts."""
    prod = IDENTITY
    for label, theta in zip(spec.labels(), angles):
        prod = compose(rot(pair.m if label is AxisLabel.M else pair.n, theta), prod)
    return min(quat_distance(prod, u), quat_distance(negate(prod), u))


def two_factor_overlap_matrix(u: Su2Element, first, second,
                              middle: Su2Element = IDENTITY) -> np.ndarray:
    """``W[b1, b0] = <u, P_{b1} M P_{b0}>`` with ``P_0 = 1``, ``P_1 =
    rot(axis, pi)`` and ``M`` the ``middle`` rotation: a product
    ``rot(second, t1) * M * rot(first, t0)`` has overlap ``x_1^T W x_0``
    with ``u``, ``x_i = (cos(t_i/2), sin(t_i/2))``."""
    t = np.array(u.components())
    return np.array([[np.dot(t, compose(rot(second, math.pi * b1),
                                        compose(middle, rot(first, math.pi * b0))).components())
                      for b0 in (0, 1)] for b1 in (0, 1)])


class TestTwoFactorOptimum:
    """A length-2 search lands on the top singular value of its overlap
    matrix."""

    @staticmethod
    def expected_residual(u, first, second) -> float:
        sigma = np.linalg.svd(two_factor_overlap_matrix(u, first, second), compute_uv=False)
        return math.sqrt(2.0 * (1.0 - sigma[0]))

    def test_matches_singular_value(self):
        rng = np.random.default_rng(45)
        for delta in (0.5 * math.pi, 1.0, 0.3, 2.5):
            for sign in (1.0, -1.0):
                m, n = random_pair(rng, delta, delta)
                m = sign * m
                pair = AxisPair.from_axes(m, n)
                for _ in range(4):
                    u = random_su2(rng)
                    for first, a0, a1 in ((AxisLabel.M, m, n), (AxisLabel.N, n, m)):
                        result = numeric_search(u, pair, PatternSpec(2, first), starts=8, seed=2)
                        want = self.expected_residual(u, a0, a1)
                        assert result.best_residual == pytest.approx(want, abs=1e-12), (
                            delta, sign, first, result, want)
                        # The angles, about the sign-normalized pair,
                        # reproduce the residual.
                        b0, b1 = (pair.m, pair.n) if first is AxisLabel.M else (pair.n, pair.m)
                        prod = compose(rot(b1, result.best_angles[1]),
                                       rot(b0, result.best_angles[0]))
                        overlap = abs(np.dot(prod.components(), u.components()))
                        assert math.sqrt(2.0 * (1.0 - overlap)) == pytest.approx(
                            want, abs=1e-12)

    def test_equal_singular_values(self):
        # W = c * I has every unit x_1 as a top eigenvector (p = q, r = 0).
        pair = pair_with_delta(1.0)
        basis = np.array([compose(rot(pair.n, math.pi * b1),
                                  rot(pair.m, math.pi * b0)).components()
                          for b1 in (0, 1) for b0 in (0, 1)])
        t = np.linalg.solve(basis, [1.0, 0.0, 0.0, 1.0])
        u = Su2Element(*(t / np.linalg.norm(t)))
        sigma = np.linalg.svd(two_factor_overlap_matrix(u, pair.m, pair.n), compute_uv=False)
        assert sigma[0] - sigma[1] < 1e-12
        # The suite turns a RuntimeWarning (0/0, NaN arithmetic) into an error.
        result = numeric_search(u, pair, PatternSpec(2, AxisLabel.M), starts=8, seed=0)
        assert all(math.isfinite(a) for a in result.best_angles)
        assert result.best_residual == pytest.approx(
            math.sqrt(2.0 * (1.0 - sigma[0])), abs=1e-12)

    def test_independent_of_starts_and_seed(self):
        rng = np.random.default_rng(46)
        m, n = random_pair(rng, 1.0, 1.0)
        pair = AxisPair.from_axes(m, n)
        u = random_su2(rng)
        for first in (AxisLabel.M, AxisLabel.N):
            results = {(r.best_residual, r.best_angles) for r in
                       (numeric_search(u, pair, PatternSpec(2, first), starts=s, seed=seed)
                        for s in (1, 2, 8, 64) for seed in (0, 1, 9))}
            assert len(results) == 1

    @pytest.mark.parametrize("feasible", [False, True])
    def test_closed_form_in_two_evaluations(self, feasible):
        # One evaluation per factor, whatever the starts.
        rng = np.random.default_rng(47)
        for _ in range(10):
            m, n = random_pair(rng, 0.5 * math.pi, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            if feasible:
                u = compose(rot(n, rng.uniform(-math.pi, math.pi)),
                            rot(m, rng.uniform(-math.pi, math.pi)))
            result = numeric_search(u, pair, PatternSpec(2, AxisLabel.M), starts=8, seed=0)
            assert result.evaluations == 2
            assert (result.best_residual <= FEASIBLE_RESIDUAL) == feasible, result


class TestLengthThreeStall:
    """Reachable length-3 targets on which coordinate descent stalled above
    FEASIBLE_RESIDUAL; the closed form reaches each of them."""

    def test_reachable_length_three_targets_are_found(self):
        # Products of a random length-3 pattern: an 8-start sweep returned
        # 1.63e-6 here after 8000 sweeps per start.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(60):
            m, n = random_pair(rng, 0.5 * math.pi, 0.5 * math.pi)
            spec = PatternSpec(3, AxisLabel.M if rng.uniform() < 0.5 else AxisLabel.N)
            angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)
            u = replay_factors([Factor(lab, a) for lab, a in
                                zip(reversed(spec.labels()), reversed(angles))], m, n)
            result = numeric_search(u, AxisPair.from_axes(m, n), spec, starts=8, seed=0)
            worst = max(worst, result.best_residual)
            assert result.evaluations == 3, result
        assert worst <= FEASIBLE_RESIDUAL, worst

    @pytest.mark.parametrize("delta", [1.0, 0.05])
    def test_reachable_targets_at_unit_and_small_gaps(self, delta):
        # The 64-start sweep stopped at up to 1.4e-4 (gap 1) and 1.67e-4
        # (gap 0.05) on such products, above INFEASIBLE_RESIDUAL.
        rng = np.random.default_rng(49)
        for _ in range(40):
            m, n = random_pair(rng, delta, delta)
            spec = PatternSpec(3, AxisLabel.M if rng.uniform() < 0.5 else AxisLabel.N)
            angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)
            u = replay_factors([Factor(lab, a) for lab, a in
                                zip(reversed(spec.labels()), reversed(angles))], m, n)
            result = numeric_search(u, AxisPair.from_axes(m, n), spec)
            assert result.best_residual <= FEASIBLE_RESIDUAL, (spec, angles, result)


class TestThreeFactorOptimum:
    """A length-3 search ``a, b, a`` lands on the best middle angle and the
    outer pair's top singular value for it."""

    GAPS = (0.5 * math.pi, 1.0, 0.3, 0.05, 2.5)

    @staticmethod
    def cases(rng, haar: int, reachable: int):
        """``(pair, u, first, a, b)`` per gap, sign of ``m``, target and
        first axis, with ``a``, ``b`` read from the sign-normalized pair."""
        for delta in TestThreeFactorOptimum.GAPS:
            for sign in (1.0, -1.0):
                m, n = random_pair(rng, delta, delta)
                pair = AxisPair.from_axes(sign * m, n)
                targets = [random_su2(rng) for _ in range(haar)]
                for first, a, b in ((AxisLabel.M, pair.m, pair.n),
                                    (AxisLabel.N, pair.n, pair.m)):
                    products = [compose(rot(a, z), compose(rot(b, y), rot(a, x)))
                                for x, y, z in rng.uniform(-2.0 * math.pi, 2.0 * math.pi,
                                                           (reachable, 3))]
                    for u in targets + products:
                        yield pair, u, first, a, b

    @staticmethod
    def brute_force_overlap(u, a, b) -> float:
        """Largest top singular value of the outer pair's matrix over the
        middle angle: a grid, then a bounded scalar polish."""
        def top(y):
            return np.linalg.svd(two_factor_overlap_matrix(u, a, a, rot(b, y)),
                                 compute_uv=False)[0]
        grid = np.linspace(0.0, 2.0 * math.pi, 121)
        step = grid[1]
        y0 = grid[int(np.argmax([top(y) for y in grid]))]
        polish = minimize_scalar(lambda y: -top(y), bounds=(y0 - step, y0 + step),
                                 method="bounded", options={"xatol": 1e-12})
        return max(top(y0), -polish.fun)

    def test_matches_brute_force(self):
        # Near 0 the residual sqrt(2*(1 - h)) turns one float spacing of the
        # overlap h into 1.5e-8, so there the overlaps are compared.
        rng = np.random.default_rng(50)
        for pair, u, first, a, b in self.cases(rng, haar=3, reachable=1):
            result = numeric_search(u, pair, PatternSpec(3, first))
            sigma = self.brute_force_overlap(u, a, b)
            want = math.sqrt(max(0.0, 2.0 * (1.0 - sigma)))
            case = (pair.delta, first, result, want)
            assert 1.0 - 0.5 * result.best_residual ** 2 == pytest.approx(sigma, abs=1e-14), case
            if want > 1e-3:
                assert result.best_residual == pytest.approx(want, abs=1e-12), case
            # The angles, about the sign-normalized pair, replay to the residual.
            x, y, z = result.best_angles
            prod = compose(rot(a, z), compose(rot(b, y), rot(a, x)))
            overlap = abs(np.dot(prod.components(), u.components()))
            assert overlap == pytest.approx(1.0 - 0.5 * result.best_residual ** 2,
                                            abs=1e-14), case

    def test_independent_of_starts_and_seed(self):
        # At every length, not only 3.
        rng = np.random.default_rng(51)
        for pair, u, first, _, _ in self.cases(rng, haar=1, reachable=1):
            for k in range(1, 8):
                results = {(r.best_residual, r.best_angles) for r in
                           (numeric_search(u, pair, PatternSpec(k, first), starts=s,
                                           seed=seed, stop_below=stop_below)
                            for s in (1, 8, 64) for seed in (0, 1, 9)
                            for stop_below in (None, 1e-7, 1e-4))}
                assert len(results) == 1, (pair.delta, k, first, results)

    def test_closed_form_in_three_evaluations(self):
        # One evaluation per factor at every length, three at length 3.
        rng = np.random.default_rng(52)
        for pair, u, first, _, _ in self.cases(rng, haar=1, reachable=1):
            for k in range(1, 8):
                for stop_below in (None, 1e-4):
                    result = numeric_search(u, pair, PatternSpec(k, first),
                                            stop_below=stop_below)
                    assert result.evaluations == k

    def test_verdict_matches_geodesic_bound(self):
        # Haar targets, products of the pattern, and targets whose
        # d(D a, a) sits 1e-4 inside or outside the bound 2*delta: away from
        # BOUND_SLACK the search reaches exactly the targets the bound admits.
        rng = np.random.default_rng(53)
        seen = set()
        for pair, u, first, a, _ in self.cases(rng, haar=4, reachable=2):
            spec = PatternSpec(3, first)
            targets = [u]
            for off in (-1e-4, 1e-4):
                if 2.0 * pair.delta + off < math.pi:
                    x, z = rng.uniform(-math.pi, math.pi, 2)
                    targets.append(compose(rot(a, z), compose(
                        rot(pair.l, 2.0 * pair.delta + off), rot(a, x))))
            for target in targets:
                report = geodesic_bound_check(target, pair, spec)
                if abs(report.distance - report.bound) <= 1e3 * oracle.BOUND_SLACK:
                    continue
                result = numeric_search(target, pair, spec)
                assert (result.best_residual <= FEASIBLE_RESIDUAL) == report.passed, (
                    pair.delta, first, report, result)
                seen.add(report.passed)
        assert seen == {False, True}


class TestMinimalityCertificate:
    def test_identity_skips_zero_length(self):
        report = minimality_certificate(IDENTITY, EZ, EX, starts=4, seed=0)
        assert report.passed
        assert report.n_min == 1
        assert report.skipped_zero_length
        assert report.refutations == ()

    def test_worked_two_factor(self):
        u = rot(np.array([0.0, 1.0, 0.0]), math.pi)
        report = minimality_certificate(u, EZ, EX, starts=16, seed=0)
        assert report.passed
        assert report.n_min == 2
        assert all(res > 1e-4 for (_, _, res) in report.refutations)

    def test_worst_case_witness_certified(self):
        pair = pair_with_delta(math.pi / 3)
        witness = worst_case_witness(pair)
        report = minimality_certificate(witness, pair.m, pair.n, starts=32, seed=0)
        assert report.passed
        assert report.n_min == 4

    def test_one_analysis_per_call(self, monkeypatch):
        calls = count_analyze_calls(monkeypatch)
        u = rot(np.array([0.0, 1.0, 0.0]), math.pi)
        report = minimality_certificate(u, -EZ, EX, starts=4, seed=0)
        assert report.n_min == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [{"starts": 0}, {"starts": -1}, {"seed": -1}])
    def test_bad_search_parameters_rejected_for_every_target(self, bad):
        # The identity counts 1 and searches nothing; rot(y, pi/2) counts 3.
        for u in (IDENTITY, rot(np.array([0.0, 1.0, 0.0]), 0.5 * math.pi)):
            with pytest.raises(ValueError):
                minimality_certificate(u, EZ, EX, **bad)

    def test_non_finite_target_rejected(self):
        with pytest.raises(InvalidRotationError):
            minimality_certificate(Su2Element(math.nan, 0.0, 0.0, 1.0), EZ, EX)

    # (q, m, n) as float.hex: instances 164 of seed 934 and 2678 of seed 123
    # of the certify workload's stream (bench/workloads.py).  Both count 3,
    # and an even distance misses the gap by 5.3e-7 and 1.6e-6, so the
    # length-2 search gets within INFEASIBLE_RESIDUAL of them.
    COUNT_BOUNDARY = {
        "seed-934": (
            ("-0x1.3c85d51a476c4p-1", "-0x1.2760b1e5f3675p-1",
             "-0x1.0bca1f60fbbabp-1", "0x1.b609f68e879a9p-4"),
            ("-0x1.3399a79899b17p-1", "0x1.8a16f985054d0p-1", "0x1.ba2a4da17b2e6p-3"),
            ("0x1.7db134ecaa10ap-1", "0x1.461df58f38cd8p-1", "-0x1.920cac6fe691ap-3")),
        "seed-123": (
            ("-0x1.4dbb9972d62a9p-1", "0x1.614b8a6a6134dp-1",
             "0x1.195227f1dcdb2p-2", "0x1.3a090364ddd66p-3"),
            ("0x1.86be651fa4f71p-3", "-0x1.9f362e7a2d18bp-1", "-0x1.1b328673ccf0fp-1"),
            ("0x1.e9de1ca1ed918p-1", "0x1.c4a8bccaad452p-6", "0x1.287850c5ae1c1p-2")),
    }

    @pytest.mark.parametrize("name", sorted(COUNT_BOUNDARY))
    def test_count_boundary_instances_pass(self, name):
        q, m, n = ([float.fromhex(v) for v in vs] for vs in self.COUNT_BOUNDARY[name])
        report = minimality_certificate(Su2Element(*q), m, n)
        assert report.n_min == 3
        assert min(res for _, _, res in report.refutations) <= INFEASIBLE_RESIDUAL
        assert report.passed, report

    def test_injected_overcount_fails(self, monkeypatch):
        # A claimed count one above the minimum, with a valid chain of that
        # length: the shorter pattern is reached, so the certificate fails.
        u = compose(rot(EZ, 0.4), compose(rot(np.array([0.0, 1.0, 0.0]), 1.0), rot(EZ, -0.9)))
        real = decompose_min(u, EZ, EX)
        assert real.report.n_min == 3 and real.parity == "odd"
        longer = decompose_even(real.target, real.pair)
        assert longer.count == 4 and longer.residual <= 1e-12
        fake = dataclasses.replace(
            longer, report=dataclasses.replace(real.report, n_min=4))
        monkeypatch.setattr(oracle, "decompose_min", lambda *args, **kwargs: fake)
        report = minimality_certificate(u, EZ, EX)
        assert report.n_min == report.construction_count == 4
        assert report.construction_residual <= 1e-12
        assert any(res <= INFEASIBLE_RESIDUAL for _, _, res in report.refutations)
        assert not report.passed

    def test_randomized_sample(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            m, n, u = random_instance(rng, 0.4, 0.5 * math.pi)
            report = minimality_certificate(u, m, n, starts=32, seed=1)
            assert report.passed, report
            assert report.n_min == count_min(u, m, n).n_min
