"""Closed-form count formulas, axis-pair normalization, worst-case bound."""

import math

import mpmath
import numpy as np
import pytest

from biaxial import (
    AxesParallelError,
    AxisPair,
    IDENTITY,
    InvalidRotationError,
    Su2Element,
    Tolerances,
    compose,
    count_min,
    f_angle,
    g_count,
    lowenthal_bound,
    m_odd_count,
    negate,
    overlap_b,
    quat_distance,
    rot,
    solve_triple,
    worst_case_witness,
)
import biaxial.core
import biaxial.counting
import biaxial.synthesis
from biaxial.core import geodesic, rotate_vector, to_so3
from biaxial.counting import analyze, ceil_snapped
from biaxial.oracle import minimality_certificate
from biaxial.synthesis import decompose_min
from _helpers import euler_route_counts, random_axis, random_pair, random_su2

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

    def test_matches_mpmath_near_zero_and_pi(self):
        # Reference: the sin^2 sum in 40 digits, with cos(f/2)^2 = 1 - sum.
        # Half the draws put f near pi (alpha near pi with beta + delta near
        # pi, or alpha near 0 with beta near -(pi - delta)), where reading f
        # from 1 - sum alone in floats loses half the digits.
        mp = mpmath.mp.clone()
        mp.dps = 40

        def reference(a, b, d):
            a, b, d = mp.mpf(a), mp.mpf(b), mp.mpf(d)
            s2 = mp.sin((b - d) / 2) ** 2 + mp.sin(a / 2) ** 2 * mp.sin(b) * mp.sin(d)
            s2 = min(max(s2, mp.mpf(0)), mp.mpf(1))
            return float(2 * mp.atan2(mp.sqrt(s2), mp.sqrt(1 - s2)))

        rng = np.random.default_rng(31)
        worst = 0.0
        for i in range(2000):
            d = rng.uniform(1e-4, 0.5 * math.pi)
            near = rng.normal() * 10.0 ** rng.uniform(-12.0, -2.0)
            if i % 4 == 0:
                a, b = rng.uniform(-2 * math.pi, 2 * math.pi), rng.uniform(0.0, math.pi)
            elif i % 4 == 1:
                a, b = rng.uniform(-2 * math.pi, 2 * math.pi), -rng.uniform(0.0, math.pi)
            elif i % 4 == 2:
                a, b = math.pi + near, min(math.pi, math.pi - d + near)
            else:
                a, b = near, max(-math.pi, -(math.pi - d) + near)
            worst = max(worst, abs(f_angle(a, b, d) - reference(a, b, d)))
        assert worst < 1e-14, worst


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

    @pytest.mark.parametrize("gap", [5e-5, 1e-4, 1e-2, 1.0, math.pi - 1e-3])
    def test_frame_is_orthonormal(self, gap):
        # m x n / |m x n| alone is off orthogonal to m by about 1e-16/delta.
        rng = np.random.default_rng(37)
        eps = np.finfo(float).eps
        for _ in range(100):
            m, n = random_pair(rng, gap, gap)
            for sign in (1.0, -1.0):
                pair = AxisPair.from_axes(sign * m, n)
                for p in (pair, pair.swap()):
                    assert abs(float(p.l @ p.m)) <= 4.0 * eps
                    assert abs(float(np.linalg.norm(p.l)) - 1.0) <= 4.0 * eps


def beta_prime_of(u, pair):
    """The even-mn distance ``d(D m, n)``, as the analysis computes it."""
    return geodesic(rotate_vector(u, pair.m), pair.n)


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

    def test_bare_m_rotation_is_one_factor_at_small_gaps(self):
        # The cross-product normal is off orthogonal to m by about
        # 1e-16/delta; the Euler frame must not read that as a middle angle.
        # A bare n rotation is read in the swapped frame.
        rng = np.random.default_rng(31)
        for delta in (1e-2, 1e-3, 1e-4):
            for _ in range(50):
                m, n = random_pair(rng, delta, delta)
                theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
                for sign in (1.0, -1.0):
                    assert count_min(rot(sign * m, theta), sign * m, n).n_min == 1
                    assert count_min(rot(n, theta), sign * m, n).n_min == 1

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
            alpha_j, gamma_j, theta_j = solve_triple(beta_j, delta)
            assert f_angle(alpha_j, beta_j, delta) == pytest.approx(delta, abs=1e-9)


class TestRotateVector:
    def test_equals_the_rotation_matrix(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = random_su2(rng)
            v = rng.normal(size=3)
            assert np.allclose(rotate_vector(u, v), to_so3(u) @ v,
                               rtol=0.0, atol=1e-15 * np.linalg.norm(v) * 4)

    def test_rotation_about_the_vector_fixes_it(self):
        assert rotate_vector(rot(EZ, 1.2), EZ) == pytest.approx(EZ, abs=1e-16)
        assert rotate_vector(rot(EZ, 0.5 * math.pi), EX) == pytest.approx(
            EY, abs=1e-15)


def boundary_cases(rng, gap):
    """(u, m, n) at one gap: canonical and random axes with m of both signs,
    and targets on or near count boundaries."""
    cases = []
    for draw in range(8):
        if draw % 2:
            m, n = random_pair(rng, gap, gap)
        else:
            m, n = EZ, math.sin(gap) * EX + math.cos(gap) * EZ
        m = m if draw % 4 < 2 else -m
        pair = AxisPair.from_axes(m, n)
        delta, l, g = pair.delta, pair.l, pair.m
        steps = int(math.pi / delta)
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=4)
        j = int(rng.integers(0, steps + 1))
        k = int(rng.integers(0, steps + 1))
        targets = [
            random_su2(rng),
            rot(m, theta[0]),
            rot(n, theta[1]),
            compose(rot(n, theta[2]), rot(m, theta[3])),
            compose(rot(m, theta[2]), rot(n, theta[3])),
            worst_case_witness(pair),
            rot(l, k * delta),
            # m-l-m triples whose middle angle sits on a count boundary.
            compose(rot(g, theta[0]), rot(l, j * delta)),
            compose(rot(l, j * delta), rot(g, theta[1])),
            compose(rot(g, theta[2]), compose(rot(l, 2 * (j // 2) * delta),
                                             rot(g, theta[3]))),
        ]
        cases.extend((u, m, n) for u in targets)
    return cases


class TestSphereDistanceCounts:
    """The count path reads three sphere distances, never the Euler triple."""

    def test_count_min_runs_no_euler_factoring(self, monkeypatch):
        calls = []
        factor = biaxial.core.generalized_euler

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        for module in (biaxial.core, biaxial.counting, biaxial.synthesis):
            if hasattr(module, "generalized_euler"):
                monkeypatch.setattr(module, "generalized_euler", counted)
        rng = np.random.default_rng(13)
        for _ in range(50):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            count_min(random_su2(rng), m, n)
        assert calls == []

    def test_gap_rotation_at_gap_1e_4(self):
        # d(D m, n) is 31413 gaps exactly; the auxiliary angle read from the
        # Euler triple is 6e-13 above it, outside the ceiling's snap window.
        m = EZ
        n = np.array([math.sin(1e-4), 0.0, math.cos(1e-4)])
        pair = AxisPair.from_axes(m, n)
        u = rot(pair.l, 31414 * pair.delta)
        report = count_min(u, m, n)
        assert (report.n_min, report.chosen_parity) == (31414, "even-mn")
        dec = decompose_min(u, m, n)
        assert dec.count == 31414
        assert dec.residual <= 1e-9

    @pytest.mark.parametrize("gap", [0.5 * math.pi, 1.0, 0.3, 0.05, 1e-2, 1e-3,
                                     2.5, math.pi - 1e-3])
    def test_equals_the_euler_route_on_boundaries(self, gap):
        rng = np.random.default_rng(14)
        for u, m, n in boundary_cases(rng, gap):
            analysis = analyze(u, m, n)
            report = analysis.report
            got = (report.n_min, report.m_odd, report.m_even_mn, report.m_even_nm,
                   report.chosen_parity, analysis.governing.swapped)
            assert got == euler_route_counts(u, m, n), (u, m, n)
            dec = decompose_min(u, m, n)
            assert dec.count == report.n_min
            assert dec.residual <= 1e-9


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
        # message names |m.n| and the gap floor that the rule implies.
        n = [math.sin(1e-5), 0.0, -math.cos(1e-5)]
        with pytest.raises(AxesParallelError) as info:
            lowenthal_bound(EZ, n)
        assert str(info.value) == (
            "axes are parallel within tolerance (|m.n| = 0.99999999995); "
            "gaps below sqrt(2*tol.parallel) = 4.47e-05 rad are rejected")


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


class TestTargetAdmission:
    """Every entry point admits the target by the rule the axes pass:
    squared norm 1 within ``max(2*tol.norm, rounding)``, then divided by its
    norm."""

    ENTRIES = {
        "count_min": lambda u, tol: count_min(u, EZ, EX, tol),
        "decompose_min": lambda u, tol: decompose_min(u, EZ, EX, tol),
        "minimality_certificate": lambda u, tol: minimality_certificate(
            u, EZ, EX, starts=4, tol=tol),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0),
                                     (0.0, 0.6, 0.0, 0.6)], ids=["zero", "two", "short"])
    def test_rejects_off_unit_target(self, entry, bad):
        with pytest.raises(InvalidRotationError, match="norm 1"):
            self.ENTRIES[entry](Su2Element(*bad), Tolerances())

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_admits_within_tolerance(self, entry):
        u = rot(EY, 0.7)
        near = Su2Element(*(c * (1.0 + 0.4e-9) for c in u.components()))
        loose = Su2Element(*(c * 1.0004 for c in u.components()))
        self.ENTRIES[entry](near, Tolerances())
        self.ENTRIES[entry](loose, Tolerances.uniform(1e-3))
        with pytest.raises(InvalidRotationError):
            self.ENTRIES[entry](loose, Tolerances())

    def test_loose_target_is_divided_by_its_norm(self):
        u = rot(EY, 0.7)
        loose = Su2Element(*(c * 1.0004 for c in u.components()))
        dec = decompose_min(loose, EZ, EX, Tolerances.uniform(1e-3))
        assert dec.residual <= 1e-14  # 4.0e-4, the norm error, undivided
        assert quat_distance(dec.target, u) <= 1e-15
        assert analyze(dec.target, EZ, EX).target is dec.target

    def test_zero_norm_tolerance_admits_numpy_normalised_inputs(self):
        # np.linalg.norm leaves squared norms a few float spacings off 1.
        rng = np.random.default_rng(18)
        tol = Tolerances(norm=0.0)
        for _ in range(200):
            u, m, n = random_su2(rng), random_axis(rng), random_axis(rng)
            assert count_min(u, m, n, tol) == count_min(u, m, n)


class TestToleranceIndependence:
    """Counts depend on the target and the gap alone: loose tolerances move
    admission and the reconstruction bound, never a count."""

    @pytest.mark.parametrize("delta", [1.0, 0.3, 1.5])
    def test_loose_tolerances_keep_reports(self, delta):
        rng = np.random.default_rng(5)
        n = math.sin(delta) * EX + math.cos(delta) * EZ
        targets = [random_su2(rng) for _ in range(400)]
        want = [count_min(u, EZ, n) for u in targets]
        for value in (1e-6, 1e-4, 1e-2):
            tol = Tolerances.uniform(value)
            assert [count_min(u, EZ, n, tol) for u in targets] == want, value


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

    def test_witness_is_unit_to_rounding(self):
        # CLI worst-case analyses the witness without admitting it again,
        # which keeps its bits only if admission would return it unchanged.
        rng = np.random.default_rng(48)
        tight = Tolerances(norm=0.0)
        for gap in np.linspace(1e-3, math.pi - 1e-3, 40):
            for _ in range(25):
                m, n = random_pair(rng, gap, gap)
                pair = AxisPair.from_axes(m if rng.uniform() < 0.5 else -m, n)
                c = worst_case_witness(pair).components()
                assert biaxial.core._admit_unit(c, tight, InvalidRotationError, "target") is c
