"""Explicit constructions: slab triples, chains, optimal dispatch."""

import math

import numpy as np
import pytest

from biaxial import (
    AxisLabel,
    AxisPair,
    Branch,
    Factor,
    DEFAULT_TOL,
    IDENTITY,
    InfeasibleSlabError,
    InvalidAxisError,
    InvalidRotationError,
    InvalidSlabError,
    compose,
    count_min,
    decompose_even,
    decompose_even_reversed,
    decompose_min,
    decompose_odd,
    f_angle,
    g_count,
    generalized_euler,
    h_param,
    inverse,
    normalize_angle,
    plan_odd,
    quat_distance,
    replay_factors,
    rot,
    solve_triple,
    Su2Element,
    to_so3,
    verify_decomposition,
)
import biaxial.synthesis as synthesis
from biaxial.counting import analyze
from biaxial.synthesis import Decomposition
from _helpers import random_axis, random_pair, random_su2

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_with_delta(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


def axes_for(pair: AxisPair):
    """Concrete (l, m, n) for checking slab triples by multiplication."""
    return pair.l, pair.m, pair.n


class TestHParam:
    def test_interior_slab_at_right_angle_gap(self):
        assert h_param(0.5 * math.pi, 0.5 * math.pi, t=0.7) == 0.0

    def test_degenerate_corner_returns_t(self):
        assert h_param(math.pi, 0.5 * math.pi, t=0.7) == 0.7

    def test_full_slab(self):
        delta = 0.25 * math.pi
        assert h_param(2.0 * delta, delta, t=0.0) == pytest.approx(
            0.5 * math.pi, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSlabError):
            h_param(1.2, 0.5, t=0.0)
        with pytest.raises(InvalidSlabError):
            h_param(-0.1, 0.5, t=0.0)


class TestSolveTriple:
    def test_degenerate_slab(self):
        pair = pair_with_delta(0.9)
        l, m, n = axes_for(pair)
        alpha, gamma, theta = solve_triple(1e-12, 0.9)
        assert abs(theta) < 1e-11
        product = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
        assert quat_distance(product, IDENTITY) < 1e-11

    def test_full_slab_closed_form(self):
        delta = math.pi / 3
        alpha, gamma, theta = solve_triple(2.0 * delta, delta, t=0.5 * math.pi)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert gamma == pytest.approx(math.pi, abs=1e-12)
        assert theta == pytest.approx(math.pi, abs=1e-12)
        pair = pair_with_delta(delta)
        l, m, n = axes_for(pair)
        lhs = rot(l, 2.0 * delta)
        rhs = compose(rot(n, math.pi), rot(m, -math.pi))
        assert quat_distance(lhs, rhs) < 1e-14

    def test_half_slab_residual(self):
        delta = math.pi / 3
        alpha, gamma, theta = solve_triple(delta, delta, t=0.0)
        assert theta == pytest.approx(
            2.0 * math.asin(math.sin(0.5 * delta) / math.sin(delta)), abs=1e-12)
        pair = pair_with_delta(delta)
        l, m, n = axes_for(pair)
        lhs = rot(l, delta)
        rhs = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
        assert quat_distance(lhs, rhs) < 1e-10

    def test_both_branches_random(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            delta = rng.uniform(0.05, 0.5 * math.pi)
            beta_j = rng.uniform(1e-6, 2.0 * delta)
            t = rng.uniform(-2.0, 2.0)
            pair = pair_with_delta(delta)
            l, m, n = axes_for(pair)
            for branch in (Branch.PLUS, Branch.MINUS):
                alpha, gamma, theta = solve_triple(beta_j, delta, t, branch)
                lhs = rot(l, beta_j)
                rhs = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
                assert quat_distance(lhs, rhs) < 1e-12

    def test_rejects_oversized_slab(self):
        with pytest.raises(InfeasibleSlabError):
            solve_triple(1.3, 0.6)


class TestPlanOdd:
    def test_zero_beta(self):
        assert plan_odd(0.0, 0.7).slabs == ()

    def test_single_slab(self):
        assert plan_odd(math.pi, 0.5 * math.pi).slabs == (math.pi,)

    def test_remainder_schedule(self):
        plan = plan_odd(0.9, 0.25)
        assert plan.slabs == pytest.approx((0.5, 0.4))
        assert sum(plan.slabs) == pytest.approx(0.9, abs=1e-12)
        assert all(0.0 < s <= 0.5 + 1e-12 for s in plan.slabs)


class TestDecomposeOdd:
    def test_bare_m_rotation(self):
        pair = pair_with_delta(1.1)
        dec = decompose_odd(rot(pair.m, 1.2), pair)
        assert [f.label for f in dec.factors] == [AxisLabel.M]
        assert dec.factors[0].angle == pytest.approx(1.2, abs=1e-12)
        assert dec.residual < 1e-12

    def test_worked_three_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, 0.5 * math.pi)
        dec = decompose_odd(u, pair)
        assert [f.label.value for f in dec.factors] == ["m", "n", "m"]
        assert dec.residual < 1e-12
        assert dec.count == count_min(u, EZ, EX).n_min == 3

    def test_valid_but_not_minimal(self):
        # The odd route must still deliver its formula count even where the
        # even route is shorter.
        pair = pair_with_delta(math.pi / 3)
        u = rot(pair.l, math.pi)
        dec = decompose_odd(u, pair)
        assert dec.count == 5
        assert dec.residual < 1e-9
        assert count_min(u, pair.m, pair.n).n_min == 4


class TestDecomposeEven:
    def test_worked_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, math.pi)
        dec = decompose_even(u, pair)
        assert [(f.label.value, pytest.approx(f.angle, abs=1e-12))
                for f in dec.factors] == [("n", math.pi), ("m", -math.pi)]
        assert dec.residual < 1e-12

    def test_pure_n_target(self):
        pair = pair_with_delta(0.9)
        u = rot(pair.n, 0.4)
        dec = decompose_even(u, pair)
        assert dec.residual < 1e-9
        assert dec.count % 2 == 0

    def test_gap_rotation_falls_back_to_four(self):
        pair = pair_with_delta(0.9)
        u = rot(pair.l, 0.9)
        dec = decompose_even(u, pair)
        assert dec.count == 4
        assert dec.residual < 1e-9
        assert dec.beta_prime == pytest.approx(0.0, abs=1e-10)

    def test_beta_prime_equals_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            beta = rng.uniform(0.0, math.pi)
            gamma = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            u = compose(rot(pair.m, alpha),
                        compose(rot(pair.l, beta), rot(pair.m, gamma)))
            dec = decompose_even(u, pair)
            assert dec.beta_prime == pytest.approx(
                f_angle(alpha, beta, pair.delta), abs=1e-10)


class TestDecomposeEvenReversed:
    def test_identity(self):
        pair = pair_with_delta(0.8)
        dec = decompose_even_reversed(IDENTITY, pair)
        assert dec.count == 2
        assert [f.label.value for f in dec.factors] == ["m", "n"]
        assert all(abs(f.angle) < 1e-12 for f in dec.factors)
        assert dec.residual < 1e-12

    def test_worked_reversed_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, math.pi)
        dec = decompose_even_reversed(u, pair)
        assert [f.label.value for f in dec.factors] == ["m", "n"]
        assert dec.residual < 1e-9

    def test_count_matches_reversed_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            triple = generalized_euler(u, pair.frame())
            dec = decompose_even_reversed(u, pair)
            assert dec.count == g_count(triple.gamma, -triple.beta, pair.delta)
            assert dec.residual < 1e-9


class TestDecomposeMin:
    def test_identity(self):
        rng = np.random.default_rng(23)
        m, n = random_pair(rng, 0.3, 0.5 * math.pi)
        dec = decompose_min(IDENTITY, m, n)
        assert dec.count == 1
        assert dec.factors[0] == Factor(AxisLabel.M, 0.0)
        assert dec.residual == 0.0

    def test_worked_two_factor(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        assert dec.count == 2
        assert dec.residual < 1e-12

    def test_worst_case_at_third_gap(self):
        pair = pair_with_delta(math.pi / 3)
        u = rot(pair.l, math.pi)
        dec = decompose_min(u, pair.m, pair.n)
        assert dec.count == 4
        assert dec.residual < 1e-9

    def test_optimality_and_alternation_random(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            m, n = random_pair(rng, 0.15, 0.5 * math.pi)
            u = random_su2(rng)
            dec = decompose_min(u, m, n)
            assert dec.count == count_min(u, m, n).n_min
            assert dec.residual <= 1e-9
            for a, b in zip(dec.factors, dec.factors[1:]):
                assert a.label is not b.label

    def test_flipped_and_swapped_axes_replay_on_raw_axes(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
            for mm, nn in ((-m, n), (m, -n), (-m, -n)):
                dec = decompose_min(u, mm, nn)
                rebuilt = replay_factors(dec.factors, mm, nn)
                assert quat_distance(rebuilt, u) <= 1e-9
                assert dec.count == count_min(u, mm, nn).n_min

    def test_trim_drops_zero_ends(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX, trim=True)
        assert dec.count == 2  # no zero-angle ends here
        rng = np.random.default_rng(26)
        m, n = random_pair(rng, 0.3, 0.5 * math.pi)
        trimmed = decompose_min(IDENTITY, m, n, trim=True)
        assert trimmed.count == 0

    def test_transport_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
            dec = decompose_min(u, m, n)
            w = random_su2(rng)
            mat = to_so3(w)
            moved = compose(w, compose(u, inverse(w)))
            dec_moved = decompose_min(moved, mat @ m, mat @ n)
            assert dec_moved.count == dec.count
            assert [f.label for f in dec_moved.factors] == [f.label for f in dec.factors]
            for f, g in zip(dec.factors, dec_moved.factors):
                assert f.angle == pytest.approx(g.angle, abs=1e-9)


class TestPlanInvariants:
    def test_slab_sums_and_ranges(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, n = random_pair(rng, 0.1, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            delta = pair.delta
            odd = decompose_odd(u, pair)
            beta = generalized_euler(u, pair.frame()).beta
            assert sum(odd.plan.slabs) == pytest.approx(beta, abs=1e-9)
            assert all(0.0 < b <= 2.0 * delta + 1e-9 for b in odd.plan.slabs)
            even = decompose_even(u, pair)
            assert sum(even.plan.slabs) == pytest.approx(
                even.beta_prime + delta, abs=1e-9)
            assert all(0.0 < b <= 2.0 * delta + 1e-9 for b in even.plan.slabs)


class TestParameterOverrides:
    def test_custom_t_and_branch_keep_validity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            ts = list(rng.uniform(-1.5, 1.5, 8))
            for branch in (None, Branch.MINUS):
                for dec_fn in (decompose_odd, decompose_even, decompose_even_reversed):
                    base = dec_fn(u, pair)
                    dec = dec_fn(u, pair, t_params=ts, branch=branch)
                    assert dec.residual <= 1e-9
                    assert dec.count == base.count

    def test_decompose_min_with_overrides(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX,
                            t_params=[0.4], branch=Branch.MINUS)
        assert dec.count == 2
        assert dec.residual <= 1e-9


class TestSlabFeasibility:
    def test_constructed_theta_meets_condition(self):
        # Each n-angle theta_j in the chain satisfies
        # sin(delta)*|sin(theta_j/2)| = |sin(slab_j/2)|.
        rng = np.random.default_rng(28)
        for _ in range(100):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            for dec in (decompose_odd(u, pair), decompose_even(u, pair)):
                if dec.plan is None or not dec.plan.slabs:
                    continue
                n_angles = [f.angle for f in dec.factors if f.label is AxisLabel.N]
                if dec.parity == "even-mn":
                    # The merged leading n-factor absorbed an extra phase.
                    n_angles = n_angles[1:]
                    slabs = dec.plan.slabs[1:]
                else:
                    slabs = dec.plan.slabs
                for slab, theta in zip(slabs, n_angles):
                    assert math.sin(pair.delta) * abs(math.sin(0.5 * theta)) == \
                        pytest.approx(abs(math.sin(0.5 * slab)), abs=1e-12)


class TestVerifyDecomposition:
    def test_valid(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        report = verify_decomposition(dec)
        assert report.ok
        assert report.residual < 1e-12

    def test_tampered_angle(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        factors = list(dec.factors)
        factors[0] = Factor(factors[0].label, factors[0].angle + 0.1)
        tampered = Decomposition(
            factors=tuple(factors), target=dec.target, axis_m=dec.axis_m,
            axis_n=dec.axis_n, pair=dec.pair, parity=dec.parity,
            residual=dec.residual, plan=dec.plan, beta_prime=dec.beta_prime)
        report = verify_decomposition(tampered)
        assert not report.ok
        assert report.residual > 1e-3

    def test_empty_factors_vs_identity(self):
        dec = decompose_min(IDENTITY, EZ, EX, trim=True)
        report = verify_decomposition(dec)
        assert report.residual == 0.0
        assert not report.nonempty
        assert not report.ok


def fold_replay(factors, axis_m, axis_n, tol=DEFAULT_TOL):
    """Reference product: the left fold over ``compose`` and ``rot``."""
    acc = IDENTITY
    for f in factors:
        axis = axis_m if f.label is AxisLabel.M else axis_n
        acc = compose(acc, rot(axis, f.angle, tol), tol)
    return acc


def alternating(angles, first=AxisLabel.M):
    labels = (first, first.other)
    return [Factor(labels[i % 2], a) for i, a in enumerate(angles)]


class TestReplayKernel:
    """``replay_factors`` equals the ``compose``/``rot`` fold bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 3, 20, 500, 20000])
    def test_bit_identical_to_fold(self, length):
        rng = np.random.default_rng(100 + length)
        m, n = random_pair(rng, 1e-3, 0.5 * math.pi)
        angles = list(rng.uniform(-9.0, 9.0, size=length))
        specials = [0.0, 2.0 * math.pi, -2.0 * math.pi]
        for i, angle in zip(rng.choice(length, size=min(length, 9), replace=False),
                            specials * 3):
            angles[i] = angle
        for first in (AxisLabel.M, AxisLabel.N):
            factors = alternating(angles, first)
            got = replay_factors(factors, m, n)
            assert got.components() == fold_replay(factors, m, n).components()

    def test_off_unit_axes_take_the_renormalisation_branch(self):
        rng = np.random.default_rng(110)
        tol = DEFAULT_TOL
        for _ in range(20):
            # Raw axes off unit norm by up to tol.norm stay admissible, but
            # their rotations are not unit quaternions, so compose renormalises.
            m = random_axis(rng) * (1.0 + tol.norm * rng.uniform(-1.0, 1.0))
            n = random_axis(rng) * (1.0 + tol.norm * rng.uniform(-1.0, 1.0))
            factors = alternating(list(rng.uniform(-7.0, 7.0, size=300)),
                                  rng.choice([AxisLabel.M, AxisLabel.N]))
            assert any(rot(m if f.label is AxisLabel.M else n, f.angle).norm_error()
                       > 0.5 * tol.norm for f in factors)
            got = replay_factors(factors, m, n, tol)
            assert got.components() == fold_replay(factors, m, n, tol).components()

    def test_empty_list_is_identity(self):
        assert replay_factors([], EZ, EX) == IDENTITY
        # Neither axis is used, so neither is validated.
        assert replay_factors([], [1.0, 1.0, 0.0], [math.nan, 0.0, 0.0]) == IDENTITY

    def test_unused_invalid_axis_is_not_checked(self):
        factors = [Factor(AxisLabel.M, a) for a in (0.3, -1.1, 2.0)]
        for bad_n in ([1.0, 1.0, 0.0], [math.nan, 0.0, 1.0], [1.0, 0.0]):
            got = replay_factors(factors, EZ, bad_n)
            assert got.components() == fold_replay(factors, EZ, bad_n).components()

    def test_used_invalid_axis_raises(self):
        with pytest.raises(InvalidAxisError):
            replay_factors([Factor(AxisLabel.M, 0.3)], [math.nan, 0.0, 1.0], EX)
        with pytest.raises(InvalidAxisError):
            replay_factors(alternating([0.3, 0.4]), EZ, [1.0, 1.0, 0.0])


class TestNonFiniteAxes:
    def test_decompose_min_rejects_nan_axis(self):
        with pytest.raises(InvalidAxisError):
            decompose_min(rot(EY, 0.4), [math.nan, 0.0, 1.0], EX)
        with pytest.raises(InvalidAxisError):
            decompose_min(rot(EY, 0.4), EZ, [1.0, math.inf, 0.0])


class TestNonFiniteTarget:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_decompose_min_rejects_non_finite_target(self, bad):
        with pytest.raises(InvalidRotationError, match="finite"):
            decompose_min(Su2Element(bad, 0.0, 0.0, 1.0), EZ, EX)


PUBLIC_CONSTRUCTION = {
    "odd": decompose_odd,
    "even-mn": decompose_even,
    "even-nm": decompose_even_reversed,
}


def pinned_cases():
    """Seeded (u, m, n) with m.n > 0: four of each (parity, swapped) pair."""
    rng = np.random.default_rng(120)
    want = {(p, s): 4 for p in PUBLIC_CONSTRUCTION for s in (False, True)}
    cases = []
    while any(want.values()):
        m, n = random_pair(rng, 0.2, 1.5)
        u = random_su2(rng)
        analysis = analyze(u, m, n)
        key = (analysis.report.chosen_parity, analysis.governing.swapped)
        if want[key]:
            want[key] -= 1
            cases.append((u, m, n))
    return cases


class TestDecomposeMinPinned:
    """``decompose_min`` is the public construction for the governing pair,
    relabelled for the caller's axes, with one replay."""

    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_equals_relabelled_public_construction(self, m_sign):
        for u, m, n in pinned_cases():
            mm = m_sign * m
            analysis = analyze(u, mm, n)
            assert analysis.pair.m_flipped is (m_sign < 0)
            build = PUBLIC_CONSTRUCTION[analysis.report.chosen_parity]
            inner = build(u, analysis.governing)
            expected = []
            for f in inner.factors:
                label = f.label.other if analysis.governing.swapped else f.label
                angle = -f.angle if (label is AxisLabel.M and m_sign < 0) else f.angle
                expected.append(Factor(label, normalize_angle(angle)))
            dec = decompose_min(u, mm, n)
            assert dec.factors == tuple(expected)
            assert dec.plan == inner.plan
            assert dec.beta_prime == inner.beta_prime
            assert dec.parity == inner.parity

    def test_one_replay_per_call(self, monkeypatch):
        calls = []
        replay = synthesis.replay_factors

        def counting(*args, **kwargs):
            calls.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(synthesis, "replay_factors", counting)
        for u, m, n in pinned_cases():
            for mm in (m, -m):
                for trim in (False, True):
                    calls.clear()
                    dec = decompose_min(u, mm, n, trim=trim)
                    assert len(calls) == 1
                    assert dec.residual <= 1e-9

    def test_other_lift_costs_one_more_replay(self, monkeypatch):
        # Shifting every slab's n-angle by 2*pi negates each slab's product,
        # so a chain with an odd number of slabs first lands on -u.
        calls = []
        replay, solve = synthesis.replay_factors, synthesis.solve_triple

        def counting(*args, **kwargs):
            calls.append(1)
            return replay(*args, **kwargs)

        def shifted(*args, **kwargs):
            trip = solve(*args, **kwargs)
            return trip._replace(theta=trip.theta + 2.0 * math.pi)

        monkeypatch.setattr(synthesis, "replay_factors", counting)
        monkeypatch.setattr(synthesis, "solve_triple", shifted)
        flipped = 0
        for u, m, n in pinned_cases():
            calls.clear()
            dec = decompose_min(u, m, n)
            odd_slabs = len(dec.plan.slabs) % 2 == 1
            assert len(calls) == (2 if odd_slabs else 1)
            assert dec.residual <= 1e-9
            assert dec.count == count_min(u, m, n).n_min
            flipped += odd_slabs
        assert flipped > 0


class TestDecomposeMinReport:
    """``decompose_min`` returns the analysis it ran as ``report``."""

    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_report_equals_count_min(self, m_sign):
        swapped = 0
        for u, m, n in pinned_cases():
            mm = m_sign * m
            for trim in (False, True):
                dec = decompose_min(u, mm, n, trim=trim)
                assert dec.report == count_min(u, mm, n)
                assert dec.pair.m_flipped is (m_sign < 0)
            swapped += analyze(u, mm, n).governing.swapped
        assert swapped > 0

    def test_public_constructions_carry_no_report(self):
        pair = pair_with_delta(1.0)
        u = rot(EY, 0.8)
        for build in PUBLIC_CONSTRUCTION.values():
            assert build(u, pair).report is None


class TestSmallGapResidual:
    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_residual_within_recon_at_gap_1e_4(self, m_sign):
        # At this gap acos(m.n) has an absolute error of about 1e-12, which
        # the chain of ~3e4 factors turns into residuals of several 1e-9.
        rng = np.random.default_rng(1004)
        for _ in range(3):
            m, n = random_pair(rng, 1e-4, 1e-4)
            u = random_su2(rng)
            dec = decompose_min(u, m_sign * m, n)
            assert dec.count == count_min(u, m_sign * m, n).n_min
            assert dec.residual <= 1e-9, dec.residual
