"""Geodesic bound checks and brute-force minimality search."""

import math

import numpy as np
import pytest

from biaxial import (
    AxisLabel,
    AxisPair,
    Factor,
    IDENTITY,
    InvalidRotationError,
    PatternError,
    PatternSpec,
    count_min,
    decompose_even,
    decompose_min,
    decompose_odd,
    geodesic_bound_check,
    m_odd_count,
    minimality_certificate,
    normalized_factors,
    numeric_search,
    rot,
    Su2Element,
    worst_case_witness,
)
from _helpers import count_analyze_calls, random_instance, random_pair, random_su2

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_with_delta(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


class TestGeodesicBounds:
    def test_single_factor_bound_is_tight_at_zero(self):
        pair = AxisPair.from_axes(EZ, EX)
        report = geodesic_bound_check([Factor(AxisLabel.M, 1.3)], pair)
        assert report.kbar == 1
        assert report.d_self == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_two_factor_bound(self):
        pair = AxisPair.from_axes(EZ, EX)
        factors = [Factor(AxisLabel.N, math.pi), Factor(AxisLabel.M, -math.pi)]
        report = geodesic_bound_check(factors, pair)
        assert report.d_cross <= 0.5 * math.pi + 1e-9
        assert report.passed

    def test_rejects_non_alternating(self):
        pair = AxisPair.from_axes(EZ, EX)
        with pytest.raises(PatternError):
            geodesic_bound_check([Factor(AxisLabel.M, 0.3), Factor(AxisLabel.M, 0.4)], pair)

    def test_holds_for_all_produced_decompositions(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            u = random_su2(rng)
            dec = decompose_min(u, m, n)
            assert geodesic_bound_check(normalized_factors(dec), dec.pair).passed
            pair = AxisPair.from_axes(m, n)
            assert geodesic_bound_check(decompose_odd(u, pair).factors, pair).passed
            assert geodesic_bound_check(decompose_even(u, pair).factors, pair).passed


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
        rng = np.random.default_rng(42)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        pair = AxisPair.from_axes(m, n)
        u = random_su2(rng)
        spec = PatternSpec(2, AxisLabel.M)
        residuals = [numeric_search(u, pair, spec, starts=s, seed=3).best_residual
                     for s in (1, 4, 8, 16)]
        assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

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

    def test_non_finite_target_rejected(self):
        with pytest.raises(InvalidRotationError):
            minimality_certificate(Su2Element(math.nan, 0.0, 0.0, 1.0), EZ, EX)

    def test_randomized_sample(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            m, n, u = random_instance(rng, 0.4, 0.5 * math.pi)
            report = minimality_certificate(u, m, n, starts=32, seed=1)
            assert report.passed, report
            assert report.n_min == count_min(u, m, n).n_min
