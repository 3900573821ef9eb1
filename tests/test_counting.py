"""Closed-form count formulas, axis-pair normalization, worst-case bound."""

import math

import numpy as np
import pytest

from biaxial import (
    AxesParallelError,
    AxisPair,
    IDENTITY,
    InvalidRotationError,
    Su2Element,
    beta_prime_of,
    ceil_snapped,
    compose,
    count_min,
    f_angle,
    g_count,
    lowenthal_bound,
    m_odd_count,
    negate,
    overlap_b,
    rot,
    solve_triple,
    worst_case_witness,
)
from biaxial.synthesis import Branch
from _helpers import random_axis, random_pair, random_su2

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_with_delta(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


class TestCeilSnapped:
    def test_plain(self):
        assert ceil_snapped(1.5) == 2

    def test_snap_down(self):
        assert ceil_snapped(2.0 + 1e-12) == 2

    def test_snap_up(self):
        assert ceil_snapped(2.0 - 1e-12) == 2

    def test_outside_window(self):
        assert ceil_snapped(2.0 + 1e-8) == 3


class TestOverlap:
    def test_identity_has_no_vector_part(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert overlap_b(random_axis(rng), IDENTITY) == 0.0

    def test_full_overlap(self):
        assert overlap_b(EZ, rot(EZ, math.pi)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vector_part(self):
        assert overlap_b(EZ, rot(EY, 0.5 * math.pi)) == pytest.approx(0.0, abs=1e-15)


class TestFAngle:
    def test_zero_alpha_gives_difference(self):
        for beta in np.linspace(0.0, math.pi, 17):
            for delta in (0.2, 0.7854, 1.2, 0.5 * math.pi):
                assert f_angle(0.0, beta, delta) == pytest.approx(
                    abs(beta - delta), abs=1e-12)

    def test_zero_beta_gives_delta(self):
        for alpha in np.linspace(-6.0, 6.0, 13):
            assert f_angle(alpha, 0.0, 0.9) == pytest.approx(0.9, abs=1e-12)

    def test_pi_alpha_gives_sum(self):
        assert f_angle(math.pi, math.pi / 3, math.pi / 6) == pytest.approx(
            0.5 * math.pi, abs=1e-12)


class TestGCount:
    def test_boundary_two(self):
        # f(0, pi/2, pi/4) = pi/4 = delta exactly.
        assert g_count(0.0, 0.5 * math.pi, 0.25 * math.pi) == 2

    def test_below_gap_gives_four(self):
        assert g_count(0.0, math.pi / 5, 0.25 * math.pi) == 4

    def test_sum_case(self):
        # f collapses to beta + delta = 3*pi/4 here.
        assert f_angle(math.pi, 0.5 * math.pi, 0.25 * math.pi) == pytest.approx(
            0.75 * math.pi, abs=1e-12)
        assert g_count(math.pi, 0.5 * math.pi, 0.25 * math.pi) == 4

    def test_always_even(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = g_count(rng.uniform(-7, 7), rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.05, 0.5 * math.pi))
            assert g % 2 == 0 and g >= 2


class TestMOddCount:
    def test_zero_beta(self):
        assert m_odd_count(0.0, 1.1) == 1

    def test_half_gap(self):
        assert m_odd_count(math.pi, 0.5 * math.pi) == 3

    def test_third_gap(self):
        assert m_odd_count(math.pi, math.pi / 3) == 5

    def test_always_odd_and_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            beta = rng.uniform(0.0, math.pi)
            delta = rng.uniform(0.05, 0.5 * math.pi)
            k = m_odd_count(beta, delta)
            assert k % 2 == 1 and k >= 1
            assert m_odd_count(min(math.pi, beta + 0.1), delta) >= k
            assert m_odd_count(beta, min(0.5 * math.pi, delta + 0.1)) <= k


class TestAxisPair:
    def test_sign_normalization(self):
        n = math.sin(1.0) * EX + math.cos(1.0) * EZ
        pair = AxisPair.from_axes(-EZ, n)
        assert pair.m_flipped
        assert np.allclose(pair.m, EZ)
        assert pair.delta == pytest.approx(1.0)
        assert float(pair.l @ pair.m) == pytest.approx(0.0, abs=1e-15)
        assert float(pair.l @ pair.n) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_pair_needs_no_flip(self):
        pair = AxisPair.from_axes(EZ, EX)
        assert not pair.m_flipped
        assert pair.delta == pytest.approx(0.5 * math.pi)
        assert np.allclose(pair.l, EY)

    def test_rejects_parallel(self):
        with pytest.raises(AxesParallelError):
            AxisPair.from_axes(EZ, EZ)
        with pytest.raises(AxesParallelError):
            AxisPair.from_axes(EZ, -EZ)

    def test_swap_flips_normal(self):
        pair = pair_with_delta(1.0)
        swapped = pair.swap()
        assert swapped.swapped
        assert np.allclose(swapped.l, -pair.l)
        assert np.allclose(swapped.m, pair.n)


class TestBetaPrime:
    def test_gap_rotation_cancels(self):
        pair = pair_with_delta(0.8)
        assert beta_prime_of(rot(pair.l, 0.8), pair) == pytest.approx(0.0, abs=1e-12)

    def test_identity_gives_delta(self):
        pair = pair_with_delta(0.8)
        assert beta_prime_of(IDENTITY, pair) == pytest.approx(0.8, abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            beta = rng.uniform(0.0, math.pi)
            gamma = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            u = compose(rot(pair.m, alpha),
                        compose(rot(pair.l, beta), rot(pair.m, gamma)))
            assert beta_prime_of(u, pair) == pytest.approx(
                f_angle(alpha, beta, pair.delta), abs=1e-10)


class TestCountMin:
    def test_identity_is_single_factor(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            report = count_min(IDENTITY, m, n)
            assert report.n_min == 1
            assert report.m_odd == 1
            assert report.chosen_parity == "odd"

    def test_worked_two_factor(self):
        report = count_min(rot(EY, math.pi), EZ, EX)
        assert report.n_min == 2
        assert report.chosen_parity.startswith("even")
        # Witness product for the count, checked by direct multiplication.
        witness = compose(rot(EX, math.pi), rot(EZ, -math.pi))
        assert witness.components() == pytest.approx(
            rot(EY, math.pi).components(), abs=1e-15)

    def test_worked_three_factor(self):
        report = count_min(rot(EY, 0.5 * math.pi), EZ, EX)
        assert report.n_min == 3
        assert report.m_odd == 3
        assert report.m_even_mn == 4
        assert report.m_even_nm == 4
        assert report.chosen_parity == "odd"

    def test_gap_third_of_pi_worst_case(self):
        pair = pair_with_delta(math.pi / 3)
        report = count_min(rot(pair.l, math.pi), pair.m, pair.n)
        assert (report.m_odd, report.m_even_mn, report.m_even_nm) == (5, 4, 4)
        assert report.n_min == 4
        assert report.n_min == lowenthal_bound(pair.m, pair.n)

    def test_rejects_non_unit_axis(self):
        from biaxial import InvalidAxisError
        with pytest.raises(InvalidAxisError):
            count_min(IDENTITY, np.array([1.0, 1.0, 0.0]), EX)

    def test_rejects_nan_axis(self):
        from biaxial import InvalidAxisError
        with pytest.raises(InvalidAxisError):
            count_min(IDENTITY, np.array([math.nan, 0.0, 1.0]), EX)
        with pytest.raises(InvalidAxisError):
            count_min(IDENTITY, EZ, np.array([0.0, math.nan, 0.0]))

    def test_counts_bounded_by_lowenthal(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            u = random_su2(rng)
            assert count_min(u, m, n).n_min <= lowenthal_bound(m, n)

    def test_sign_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            u = random_su2(rng)
            base = count_min(u, m, n).n_min
            assert count_min(u, -m, n).n_min == base
            assert count_min(u, m, -n).n_min == base
            assert count_min(u, -m, -n).n_min == base

    def test_lift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            u = random_su2(rng)
            assert count_min(negate(u), m, n).n_min == count_min(u, m, n).n_min

    def test_solvable_two_factor_forces_f_equal_delta(self):
        # Whenever one slab triple solves a pure n-rotation, the auxiliary
        # angle of that (alpha, beta) equals the gap exactly.
        rng = np.random.default_rng(8)
        for _ in range(200):
            delta = rng.uniform(0.1, 0.5 * math.pi)
            beta_j = rng.uniform(1e-3, 2.0 * delta)
            t = rng.uniform(-2.0, 2.0)
            branch = Branch.PLUS if rng.integers(2) else Branch.MINUS
            alpha_j, gamma_j, theta_j = solve_triple(beta_j, delta, t, branch)
            assert f_angle(alpha_j, beta_j, delta) == pytest.approx(delta, abs=1e-9)


class TestLowenthal:
    def test_orthogonal(self):
        assert lowenthal_bound(EZ, EX) == 3

    def test_pi_third(self):
        n = math.sin(math.pi / 3) * EX + math.cos(math.pi / 3) * EZ
        assert lowenthal_bound(EZ, n) == 4

    def test_one_radian(self):
        n = math.sin(1.0) * EX + math.cos(1.0) * EZ
        assert lowenthal_bound(EZ, n) == 5

    def test_parallel_rejected(self):
        with pytest.raises(AxesParallelError):
            lowenthal_bound(EZ, EZ)

    def test_parallel_admission_is_configurable(self):
        from biaxial import Tolerances
        delta = 2e-3
        n = math.sin(delta) * EX + math.cos(delta) * EZ
        assert lowenthal_bound(EZ, n) == ceil_snapped(math.pi / delta) + 1
        with pytest.raises(AxesParallelError):
            lowenthal_bound(EZ, n, tol=Tolerances(parallel=1e-5))


    def test_antiparallel_within_tolerance_message(self):
        # lowenthal_bound admits its axes through AxisPair.from_axes; the
        # error type and message are those of the admission it replaced.
        n = [math.sin(1e-5), 0.0, -math.cos(1e-5)]
        with pytest.raises(AxesParallelError) as info:
            lowenthal_bound(EZ, n)
        assert str(info.value) == (
            "axes are parallel within tolerance (|m.n| = 0.99999999995)")


class TestGapConditioning:
    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 0.3, 1.5])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gap_keeps_relative_accuracy(self, delta, sign):
        # acos(cos(delta)) loses about 1e-16/delta absolute; the gap is
        # computed from |m x n| as well, so it stays within a few ulps.
        n = sign * (math.sin(delta) * EX + math.cos(delta) * EZ)
        pair = AxisPair.from_axes(EZ, n)
        assert pair.m_flipped is (sign < 0)
        assert abs(pair.delta - delta) <= 4.0 * math.ulp(delta)


class TestNonFiniteTarget:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_count_min_rejects_non_finite_target(self, bad):
        with pytest.raises(InvalidRotationError, match="finite"):
            count_min(Su2Element(bad, 0.0, 0.0, 1.0), EZ, EX)
        with pytest.raises(InvalidRotationError, match="finite"):
            count_min(Su2Element(0.0, 1.0, bad, 0.0), EZ, EX)


class TestWorstCase:
    @pytest.mark.parametrize("delta,expected", [
        (0.5 * math.pi, 3),
        (math.pi / 3, 4),
        (0.25 * math.pi, 5),
    ])
    def test_witness_attains_bound(self, delta, expected):
        pair = pair_with_delta(delta)
        witness = worst_case_witness(pair)
        assert count_min(witness, pair.m, pair.n).n_min == expected
        assert lowenthal_bound(pair.m, pair.n) == expected

    def test_even_nu_form(self):
        pair = pair_with_delta(0.5 * math.pi)
        witness = worst_case_witness(pair)
        expected = compose(rot(pair.m, math.pi), rot(pair.l, 0.5 * math.pi))
        assert witness.components() == pytest.approx(expected.components(), abs=1e-15)

    def test_odd_nu_form(self):
        pair = pair_with_delta(math.pi / 3)
        witness = worst_case_witness(pair)
        expected = rot(pair.l, math.pi)
        assert witness.components() == pytest.approx(expected.components(), abs=1e-15)
